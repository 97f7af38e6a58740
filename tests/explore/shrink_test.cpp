// Shrinking: deterministic, budget-respecting, and free of the
// config-aliasing hazard that json::Value's shared-object copies invite;
// the damage objective keeps the attack and counts two runs per probe.
#include "explore/shrink.hpp"

#include <gtest/gtest.h>

#include "adversary/search.hpp"
#include "explore/canary.hpp"
#include "explore/scenario.hpp"
#include "runner/runner.hpp"
#include "sim/simulation.hpp"

namespace bftsim::explore {
namespace {

/// A canary scenario known to violate `oracle`, capped exactly as the
/// campaign engine caps it before shrinking.
SimConfig failing_config(std::uint64_t index) {
  register_fuzz_canary();
  const Watchdog watchdog{2'000'000, 0.0};
  return watchdog.apply(generate_scenario(ScenarioSpace::canary(), 1, index).config);
}

/// Shrinks `failing` under the verdict objective, as a campaign does.
Shrunk shrink_failing(const SimConfig& failing, Oracle oracle,
                      std::size_t budget = 200) {
  return shrink(failing, evaluate(failing, ObjectiveKind::kVerdict),
                Objective::verdict(oracle), budget);
}

TEST(Shrink, ReducesTheScenarioAndPreservesTheViolation) {
  const SimConfig failing = failing_config(3);  // certificate violation
  const Shrunk result = shrink_failing(failing, Oracle::kCertificate);
  EXPECT_GT(result.steps, 0u);
  EXPECT_GE(result.runs, result.steps + 1);  // + the start's run
  EXPECT_LT(result.config.max_time_ms, failing.max_time_ms);
  ASSERT_FALSE(result.eval.verdict.ok);
  EXPECT_EQ(result.eval.verdict.violated, Oracle::kCertificate);

  // The shrunk config independently reproduces verdict and fingerprint.
  const RunResult rerun = run_simulation(result.config);
  const OracleReport verdict = check_oracles(result.config, rerun);
  ASSERT_FALSE(verdict.ok);
  EXPECT_EQ(verdict.violated, Oracle::kCertificate);
  EXPECT_EQ(rerun.trace_fingerprint, result.eval.trace.fingerprint);
  EXPECT_EQ(rerun.trace_records, result.eval.trace.records);
}

TEST(Shrink, IsDeterministic) {
  const SimConfig failing = failing_config(3);
  const Shrunk a = shrink_failing(failing, Oracle::kCertificate);
  const Shrunk b = shrink_failing(failing, Oracle::kCertificate);
  EXPECT_EQ(a.config.to_json().dump(), b.config.to_json().dump());
  EXPECT_EQ(a.eval.trace, b.eval.trace);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.runs, b.runs);
}

TEST(Shrink, DoesNotMutateTheInputConfig) {
  // Regression: json::Value copies share their underlying object, so a
  // candidate that edited attack_params in place would silently rewrite
  // the input (and the current best) even when the candidate is rejected.
  // Scenario 28 carries a partition attack whose resolve_ms the shrinker
  // halves, which is exactly the transformation that used to alias.
  const SimConfig failing = failing_config(28);  // agreement violation
  ASSERT_EQ(failing.attack, "partition");
  const std::string before = failing.to_json().dump();
  const Shrunk result = shrink_failing(failing, Oracle::kAgreement);
  EXPECT_EQ(failing.to_json().dump(), before) << "shrink mutated its input";
  // The accepted shrink really did halve the partition's resolve window.
  ASSERT_TRUE(result.config.attack_params.is_object());
  EXPECT_LT(result.config.attack_params.get_number("resolve_ms", 1e18),
            failing.attack_params.get_number("resolve_ms", 0.0));
}

TEST(Shrink, RespectsTheRunBudget) {
  const SimConfig failing = failing_config(3);
  const Shrunk result = shrink_failing(failing, Oracle::kCertificate, 3);
  EXPECT_LE(result.runs, 3u);
  ASSERT_FALSE(result.eval.verdict.ok);
  EXPECT_EQ(result.eval.verdict.violated, Oracle::kCertificate);
}

TEST(Shrink, NonViolatingInputThrows) {
  SimConfig healthy;
  healthy.protocol = "pbft";
  healthy.n = 4;
  healthy.lambda_ms = 1000;
  healthy.delay = DelaySpec::normal(250, 50);
  healthy.seed = 1;
  healthy.decisions = 1;
  healthy.max_time_ms = 60'000;
  healthy.record_trace = true;
  EXPECT_THROW((void)shrink_failing(healthy, Oracle::kAgreement),
               std::invalid_argument);
}

TEST(Shrink, DamageShrinkKeepsTheAttackAndItsScore) {
  adversary::SearchOptions options;
  options.n = 8;
  options.watchdog = Watchdog{100'000, 30'000.0};
  SimConfig attacked = adversary::search_base_config("pbft", options);
  attacked.attack = "eclipse";
  attacked.attack_params = json::parse(
      R"({"victim": 4, "keep": 3, "start_ms": 0, "duration_ms": 15000,
          "mode": "delay"})");
  const Evaluation start = evaluate(attacked, ObjectiveKind::kDamage);
  ASSERT_GT(start.damage.score, 0.0);
  const Shrunk result = shrink(attacked, start,
                               Objective::damage(start.damage.score), 6);
  EXPECT_EQ(result.config.attack, attacked.attack);
  EXPECT_GE(result.eval.damage.score, start.damage.score);
  EXPECT_LE(result.runs, 12u);  // two simulations per probe
  EXPECT_EQ(result.runs % 2, 0u);
  // The recorded evaluation is the shrunk config's own.
  const Evaluation again = evaluate(result.config, ObjectiveKind::kDamage);
  EXPECT_EQ(again.damage.score, result.eval.damage.score);
  EXPECT_EQ(again.trace, result.eval.trace);
  EXPECT_EQ(again.baseline, result.eval.baseline);
}

}  // namespace
}  // namespace bftsim::explore
