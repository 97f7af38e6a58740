#include "protocols/synchotstuff/synchotstuff.hpp"

#include <gtest/gtest.h>

#include "sim/simulation.hpp"

namespace bftsim {
namespace {

SimConfig shs_config(std::uint32_t n = 16, std::uint64_t seed = 1) {
  SimConfig cfg;
  cfg.protocol = "sync-hotstuff";
  cfg.n = n;
  cfg.lambda_ms = 1000;
  cfg.delay = DelaySpec::normal(250, 50);
  cfg.seed = seed;
  cfg.max_time_ms = 300'000;
  return cfg;
}

TEST(SyncHotStuffTest, FirstCommitWaitsTwoDelta) {
  const RunResult result = run_simulation(shs_config());
  ASSERT_TRUE(result.terminated);
  EXPECT_TRUE(result.decisions_consistent());
  // Proposal + vote (~0.5 s) then the 2Δ = 2 s commit timer.
  EXPECT_GT(result.latency_ms(), 2000);
  EXPECT_LT(result.latency_ms(), 3500);
}

TEST(SyncHotStuffTest, PipelinedCommitsArriveFasterThanFirst) {
  SimConfig cfg = shs_config();
  cfg.decisions = 5;
  const RunResult result = run_simulation(cfg);
  ASSERT_TRUE(result.terminated);
  // 5 decisions cost far less than 5x the first (certificates pipeline).
  EXPECT_LT(result.latency_ms(), 2.5 * run_simulation(shs_config()).latency_ms());
}

TEST(SyncHotStuffTest, CommitLatencyScalesWithLambda) {
  SimConfig big = shs_config();
  big.lambda_ms = 3000;  // 2Δ = 6 s
  const RunResult fast = run_simulation(shs_config());
  const RunResult slow = run_simulation(big);
  ASSERT_TRUE(slow.terminated);
  EXPECT_GT(slow.latency_ms() - fast.latency_ms(), 3500);
}

TEST(SyncHotStuffTest, HonestMajorityResilience) {
  SimConfig cfg = shs_config();
  cfg.honest = 9;  // f = 7 tolerated
  const RunResult result = run_simulation(cfg);
  ASSERT_TRUE(result.terminated);
  EXPECT_TRUE(result.decisions_consistent());
}

TEST(SyncHotStuffTest, BlamesSilentLeaderIntoViewChange) {
  // Force the view-0 leader dead across seeds until one hits node 0; the
  // run must still decide via the blame / quit-view path.
  bool exercised = false;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SimConfig cfg = shs_config(16, seed);
    cfg.honest = 12;
    const RunResult result = run_simulation(cfg);
    ASSERT_TRUE(result.terminated) << "seed " << seed;
    EXPECT_TRUE(result.decisions_consistent()) << "seed " << seed;
    for (const NodeId dead : result.failstopped) {
      if (dead == 0) {
        exercised = true;
        // Blame timer (3Δ) + new view + 2Δ commit: clearly slower.
        EXPECT_GT(result.latency_ms(), 4500) << "seed " << seed;
      }
    }
  }
  EXPECT_TRUE(exercised) << "no seed fail-stopped the first leader";
}

TEST(SyncHotStuffEquivocationTest, DetectionPreservesSafety) {
  SimConfig cfg = shs_config(16, 2);
  cfg.attack = "sync-hotstuff-equivocation";
  const RunResult attacked = run_simulation(cfg);
  ASSERT_TRUE(attacked.terminated);
  // The conflicting proposals must never commit on both sides.
  EXPECT_TRUE(attacked.decisions_consistent());
  EXPECT_EQ(attacked.corrupted.size(), 1u);
  // One view is lost to the blame round.
  const RunResult clean = run_simulation(shs_config(16, 2));
  EXPECT_GT(attacked.latency_ms(), clean.latency_ms());
}

TEST(SyncHotStuffEquivocationTest, InjectedProposalsCarryValidSignatures) {
  SimConfig cfg = shs_config(16, 2);
  cfg.attack = "sync-hotstuff-equivocation";
  cfg.record_trace = true;
  const RunResult result = run_simulation(cfg);
  // The attack's proposals were accepted (nodes voted), proving the
  // corrupted key produced verifiable signatures.
  EXPECT_GT(result.messages_injected, 0u);
  bool saw_vote = false;
  for (const TraceRecord& rec : result.trace.records()) {
    if (rec.kind == TraceKind::kSend && rec.type == PayloadType::kSyncHotStuffVote &&
        rec.at < from_ms(1000)) {
      saw_vote = true;
    }
  }
  EXPECT_TRUE(saw_vote);
}

class SyncHotStuffSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t>> {};

TEST_P(SyncHotStuffSweep, AgreementAndTermination) {
  const auto [n, seed] = GetParam();
  SimConfig cfg = shs_config(n, seed);
  cfg.decisions = 3;
  const RunResult result = run_simulation(cfg);
  ASSERT_TRUE(result.terminated);
  EXPECT_TRUE(result.decisions_consistent());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SyncHotStuffSweep,
    ::testing::Combine(::testing::Values(5u, 9u, 16u, 31u),
                       ::testing::Values(1ull, 2ull, 3ull)));

}  // namespace
}  // namespace bftsim
