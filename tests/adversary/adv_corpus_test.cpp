// Adversary-corpus regression: every checked-in worst-case reproducer must
// replay with its recorded damage score, verdict and trace fingerprints,
// bit-exactly. Drift here means the engine, an attack, or a damage
// objective changed behavior — the resilience table is stale either way.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/json.hpp"
#include "explore/reproducer.hpp"

namespace bftsim::adversary {
namespace {

using explore::ObjectiveKind;
using explore::ReplayOutcome;
using explore::Reproducer;

std::vector<std::string> corpus_files() {
  const std::string dir =
      std::string(BFTSIM_REPO_ROOT) + "/tests/data/adversary_corpus";
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(AdversaryCorpus, EveryWorstCaseReplaysExactly) {
  const std::vector<std::string> files = corpus_files();
  ASSERT_FALSE(files.empty()) << "adversary corpus is missing";
  for (const std::string& file : files) {
    const Reproducer repro = Reproducer::from_file(file);
    EXPECT_EQ(repro.kind, ObjectiveKind::kDamage) << file;
    const ReplayOutcome outcome = explore::replay_reproducer(repro);
    EXPECT_TRUE(outcome.score_matches)
        << file << ": score " << outcome.replayed.damage.score
        << " vs recorded " << repro.recorded.damage.score;
    EXPECT_TRUE(outcome.verdict_matches) << file;
    EXPECT_TRUE(outcome.fingerprint_matches)
        << file << ": attacked " << outcome.replayed.trace.fingerprint << "/"
        << outcome.replayed.trace.records << " vs recorded "
        << repro.recorded.trace.fingerprint << "/"
        << repro.recorded.trace.records;
  }
}

TEST(AdversaryCorpus, CoversMultipleProtocolsAndAttacks) {
  // The corpus ships the search's full default table: several protocols,
  // several attack families, so the replay gate keeps exercising all of
  // the damage objectives from checked-in data.
  std::vector<std::string> protocols, attacks;
  for (const std::string& file : corpus_files()) {
    const Reproducer repro = Reproducer::from_file(file);
    protocols.push_back(repro.config.protocol);
    attacks.push_back(repro.config.attack);
    // Zero-damage cells ship no reproducer.
    EXPECT_GT(repro.recorded.damage.score, 0.0) << file;
  }
  std::sort(protocols.begin(), protocols.end());
  protocols.erase(std::unique(protocols.begin(), protocols.end()),
                  protocols.end());
  std::sort(attacks.begin(), attacks.end());
  attacks.erase(std::unique(attacks.begin(), attacks.end()), attacks.end());
  EXPECT_GE(protocols.size(), 3u);
  EXPECT_GE(attacks.size(), 3u);
}

TEST(AdversaryCorpus, MislabeledReproducersAreRejected) {
  // The top-level protocol/attack labels feed the table and file names;
  // a hand-edited document whose label disagrees with the embedded config
  // would silently replay something else, so both cross-checks must fail
  // the parse.
  const std::vector<std::string> files = corpus_files();
  ASSERT_FALSE(files.empty());
  json::Value protocol_flip = json::parse_file(files.front());
  protocol_flip.as_object()["protocol"] = json::Value{std::string("asyncba")};
  EXPECT_THROW((void)Reproducer::from_json(protocol_flip),
               std::invalid_argument);
  json::Value attack_flip = json::parse_file(files.front());
  attack_flip.as_object()["attack"] = json::Value{std::string("flood")};
  EXPECT_THROW((void)Reproducer::from_json(attack_flip), std::invalid_argument);
}

}  // namespace
}  // namespace bftsim::adversary
