// Reproducers: strict JSON round-tripping and bit-identical replay.
#include "explore/reproducer.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <utility>

#include "explore/canary.hpp"
#include "explore/scenario.hpp"
#include "explore/shrink.hpp"
#include "runner/runner.hpp"

namespace bftsim::explore {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + std::to_string(::getpid()) + "_" + name;
}

/// A real reproducer, produced the way the campaign engine produces them:
/// generate the known-violating canary scenario, cap it, shrink it.
Reproducer make_reproducer() {
  register_fuzz_canary();
  const Scenario scenario = generate_scenario(ScenarioSpace::canary(), 1, 3);
  const Watchdog watchdog{2'000'000, 0.0};
  const SimConfig failing = watchdog.apply(scenario.config);
  Shrunk shrunk = shrink(failing, evaluate(failing, ObjectiveKind::kVerdict),
                         Objective::verdict(Oracle::kCertificate), 200);
  Reproducer repro;
  repro.id = scenario.id();
  repro.seed = scenario.campaign_seed;
  repro.index = scenario.index;
  repro.config = std::move(shrunk.config);
  repro.recorded = std::move(shrunk.eval);
  repro.shrink_steps = shrunk.steps;
  repro.shrink_runs = shrunk.runs;
  return repro;
}

TEST(Reproducer, JsonRoundTripsExactly) {
  const Reproducer repro = make_reproducer();
  const Reproducer back = Reproducer::from_json(repro.to_json());
  EXPECT_EQ(back.to_json().dump(2), repro.to_json().dump(2));
  EXPECT_EQ(back.kind, ObjectiveKind::kVerdict);
  EXPECT_EQ(back.id, repro.id);
  EXPECT_EQ(back.oracle(), repro.oracle());
  EXPECT_EQ(back.recorded.trace, repro.recorded.trace);
  EXPECT_EQ(back.config.seed, repro.config.seed);
  EXPECT_EQ(back.config.to_json().dump(), repro.config.to_json().dump());
}

TEST(Reproducer, SaveAndLoadThroughAFile) {
  const Reproducer repro = make_reproducer();
  const std::string path = temp_path("repro.json");
  repro.save(path);
  const Reproducer loaded = Reproducer::from_file(path);
  EXPECT_EQ(loaded.to_json().dump(2), repro.to_json().dump(2));
}

TEST(Reproducer, ReplayMatchesVerdictAndFingerprint) {
  const Reproducer repro = make_reproducer();
  const ReplayOutcome outcome = replay_reproducer(repro);
  EXPECT_TRUE(outcome.verdict_matches)
      << outcome.replayed.verdict.to_string();
  EXPECT_TRUE(outcome.fingerprint_matches)
      << outcome.replayed.trace.fingerprint
      << " != " << repro.recorded.trace.fingerprint;
  EXPECT_TRUE(outcome.ok());
}

TEST(Reproducer, ReplayDetectsAForgedFingerprint) {
  Reproducer repro = make_reproducer();
  repro.recorded.trace.fingerprint ^= 1;  // a single-bit divergence
  const ReplayOutcome outcome = replay_reproducer(repro);
  EXPECT_TRUE(outcome.verdict_matches);
  EXPECT_FALSE(outcome.fingerprint_matches);
  EXPECT_FALSE(outcome.ok());
}

TEST(Reproducer, ReplayDetectsAForgedVerdict) {
  Reproducer repro = make_reproducer();
  repro.recorded.verdict.violated = Oracle::kAgreement;  // was certificate
  const ReplayOutcome outcome = replay_reproducer(repro);
  EXPECT_FALSE(outcome.verdict_matches);
  EXPECT_FALSE(outcome.ok());
}

TEST(Reproducer, RejectsWrongSchemaWithPath) {
  json::Value doc = make_reproducer().to_json();
  doc.as_object()["schema"] = "bftsim-fuzz-reproducer-v0";
  try {
    (void)Reproducer::from_json(doc, "$");
    FAIL() << "expected schema rejection";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("schema"), std::string::npos)
        << e.what();
  }
}

TEST(Reproducer, RejectsUnknownOracleName) {
  json::Value doc = make_reproducer().to_json();
  doc.as_object()["oracle"] = "totality";
  EXPECT_THROW((void)Reproducer::from_json(doc), std::invalid_argument);
}

}  // namespace
}  // namespace bftsim::explore
