// Invariant oracles: names, the certificate-rule table, and end-to-end
// verdicts on real runs (clean, timed-out-quiescent, and canary).
#include "explore/oracles.hpp"

#include <gtest/gtest.h>

#include "explore/canary.hpp"
#include "explore/scenario.hpp"
#include "sim/simulation.hpp"

namespace bftsim::explore {
namespace {

SimConfig quiet_config(const std::string& protocol, std::uint64_t seed = 1) {
  SimConfig cfg;
  cfg.protocol = protocol;
  cfg.n = 4;
  cfg.lambda_ms = 1000;
  cfg.delay = DelaySpec::normal(250, 50);
  cfg.seed = seed;
  cfg.decisions = 1;
  cfg.max_time_ms = 60'000;
  cfg.record_trace = true;
  return cfg;
}

TEST(OracleNames, RoundTripThroughStrings) {
  for (const Oracle oracle :
       {Oracle::kAgreement, Oracle::kValidity, Oracle::kCompleteness,
        Oracle::kCertificate, Oracle::kLiveness}) {
    EXPECT_EQ(oracle_from_string(to_string(oracle)), oracle);
  }
  EXPECT_THROW((void)oracle_from_string("totality"), std::invalid_argument);
}

TEST(CertificateRules, MatchEachProtocolsCommitQuorum) {
  // n = 4 => f = 1 for the one-third-resilient protocols.
  const auto pbft = certificate_rule("pbft", 4);
  ASSERT_TRUE(pbft.has_value());
  EXPECT_EQ(pbft->vote_type, PayloadType::kPbftCommit);
  EXPECT_EQ(pbft->min_senders, 3u);  // 2f + 1

  const auto tendermint = certificate_rule("tendermint", 7);
  ASSERT_TRUE(tendermint.has_value());
  EXPECT_EQ(tendermint->vote_type, PayloadType::kTendermintPrecommit);
  EXPECT_EQ(tendermint->min_senders, 5u);  // f = 2

  // Leader-collected votes: the leader's own vote never hits the wire.
  const auto hotstuff = certificate_rule("hotstuff-ns", 4);
  ASSERT_TRUE(hotstuff.has_value());
  EXPECT_EQ(hotstuff->vote_type, PayloadType::kHotStuffVote);
  EXPECT_EQ(hotstuff->min_senders, 2u);  // 2f

  // No fixed vote quorum drives these protocols' decides.
  EXPECT_FALSE(certificate_rule("addv1", 4).has_value());
  EXPECT_FALSE(certificate_rule("algorand", 16).has_value());
  EXPECT_FALSE(certificate_rule("asyncba", 4).has_value());
}

TEST(Quiescence, OnlyUndisturbedScenariosQualify) {
  SimConfig cfg = quiet_config("pbft");
  EXPECT_TRUE(is_quiescent(cfg));

  SimConfig attacked = cfg;
  attacked.attack = "partition";
  EXPECT_FALSE(is_quiescent(attacked));

  SimConfig crashed = cfg;
  crashed.faults.crashes.push_back({0, 100.0, 500.0});
  EXPECT_FALSE(is_quiescent(crashed));

  SimConfig failstopped = cfg;
  failstopped.honest = 3;
  EXPECT_FALSE(is_quiescent(failstopped));
}

TEST(Oracles, CleanRunPassesEveryOracle) {
  const SimConfig cfg = quiet_config("pbft");
  const OracleReport report = check_oracles(cfg, run_simulation(cfg));
  EXPECT_TRUE(report.ok) << report.to_string();
  EXPECT_EQ(report.to_string(), "ok");
}

TEST(Oracles, QuiescentTimeoutViolatesLiveness) {
  SimConfig cfg = quiet_config("pbft");
  cfg.max_time_ms = 1.0;  // tighter than any decision
  const OracleReport report = check_oracles(cfg, run_simulation(cfg));
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.violated, Oracle::kLiveness);
  EXPECT_NE(report.diagnosis.find("quiescent"), std::string::npos);
}

TEST(Oracles, DisturbedTimeoutIsNotALivenessViolation) {
  // The liveness oracle only speaks about quiescent scenarios; a crashed
  // node legitimately excuses a timeout.
  SimConfig cfg = quiet_config("pbft");
  cfg.max_time_ms = 1.0;
  cfg.faults.crashes.push_back({0, 0.0, 500.0});
  const OracleReport report = check_oracles(cfg, run_simulation(cfg));
  EXPECT_TRUE(report.ok) << report.to_string();
}

TEST(Oracles, CanaryDecideWithoutQuorumViolatesCertificate) {
  register_fuzz_canary();
  // Campaign-1/scenario-3 of the canary space: a fault-free run where the
  // weakened 2f quorum decides before a full certificate exists.
  const Scenario scenario = generate_scenario(ScenarioSpace::canary(), 1, 3);
  const OracleReport report =
      check_oracles(scenario.config, run_simulation(scenario.config));
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.violated, Oracle::kCertificate);
  EXPECT_NE(report.diagnosis.find("pbft/commit"), std::string::npos)
      << report.diagnosis;
}

TEST(Oracles, HealthyPbftSatisfiesTheCertificateRuleItsCanaryBreaks) {
  // Same environment, sound quorum: the rule must not flag real PBFT.
  register_fuzz_canary();
  SimConfig cfg = generate_scenario(ScenarioSpace::canary(), 1, 3).config;
  cfg.protocol = "pbft";
  const OracleReport report = check_oracles(cfg, run_simulation(cfg));
  EXPECT_TRUE(report.ok) << report.to_string();
}

}  // namespace
}  // namespace bftsim::explore
