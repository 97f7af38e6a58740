// Scenario generation: a pure, order-independent function of
// (space, campaign seed, index) whose every sampled parameter survives the
// double-backed JSON layer exactly.
#include "explore/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/json.hpp"
#include "explore/canary.hpp"
#include "protocols/registry.hpp"

namespace bftsim::explore {
namespace {

TEST(Quantize, ProducesDyadicValuesThatRoundTripThroughJson) {
  EXPECT_DOUBLE_EQ(quantize_eighth_ms(0.3), 0.25);
  EXPECT_DOUBLE_EQ(quantize_eighth_ms(100.0), 100.0);
  EXPECT_DOUBLE_EQ(quantize_eighth_ms(349.7), 349.75);
  for (const double ms : {0.125, 17.375, 4'096.625, 599'999.875}) {
    EXPECT_DOUBLE_EQ(quantize_eighth_ms(ms), ms) << ms << " is a fixed point";
    json::Object o;
    o["v"] = ms;
    const json::Value back = json::parse(json::Value{std::move(o)}.dump());
    EXPECT_EQ(back.as_object().at("v").as_number(), ms);
  }
}

TEST(ScenarioGeneration, IsDeterministicAndOrderIndependent) {
  const ScenarioSpace space = ScenarioSpace::defaults();
  // Forward, backward, and standalone generation of the same index must
  // agree on every byte of the config.
  for (const std::uint64_t index : {0ull, 7ull, 41ull}) {
    const Scenario a = generate_scenario(space, 3, index);
    const Scenario b = generate_scenario(space, 3, index);
    EXPECT_EQ(a.config.to_json().dump(), b.config.to_json().dump());
    EXPECT_EQ(a.id(), b.id());
  }
  std::vector<std::string> forward;
  for (std::uint64_t i = 0; i < 10; ++i) {
    forward.push_back(generate_scenario(space, 5, i).config.to_json().dump());
  }
  for (std::uint64_t i = 10; i-- > 0;) {
    EXPECT_EQ(generate_scenario(space, 5, i).config.to_json().dump(),
              forward[i])
        << "scenario " << i << " depends on generation order";
  }
}

TEST(ScenarioSpace, DefaultsLeaveOutTheCanaryOnceRegistered) {
  const std::vector<std::string> before = ScenarioSpace::defaults().protocols;
  register_fuzz_canary();
  const std::vector<std::string> after = ScenarioSpace::defaults().protocols;
  EXPECT_EQ(after, before);
  EXPECT_EQ(std::count(after.begin(), after.end(), kCanaryProtocol), 0);
}

TEST(ScenarioGeneration, DistinctCoordinatesGiveDistinctRuns) {
  const ScenarioSpace space = ScenarioSpace::defaults();
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 40; ++i) {
    seeds.insert(generate_scenario(space, 1, i).config.seed);
  }
  // Run seeds are 53-bit draws; a collision among 40 would be astronomical.
  EXPECT_EQ(seeds.size(), 40u);
  EXPECT_NE(generate_scenario(space, 1, 0).config.seed,
            generate_scenario(space, 2, 0).config.seed);
}

TEST(ScenarioGeneration, ConfigsValidateAndAlwaysRecordTraces) {
  const ScenarioSpace space = ScenarioSpace::defaults();
  for (std::uint64_t i = 0; i < 60; ++i) {
    const Scenario s = generate_scenario(space, 11, i);
    EXPECT_NO_THROW(s.config.validate()) << s.id();
    EXPECT_TRUE(s.config.record_trace) << s.id();
    // Seeds below 2^53 survive the double-backed JSON layer exactly.
    EXPECT_LT(s.config.seed, 1ull << 53) << s.id();
  }
}

TEST(ScenarioGeneration, SyncProtocolsGetDelaysClampedAtLambda) {
  ScenarioSpace space = ScenarioSpace::defaults();
  space.protocols = {"sync-hotstuff"};
  for (std::uint64_t i = 0; i < 20; ++i) {
    const SimConfig& cfg = generate_scenario(space, 2, i).config;
    EXPECT_DOUBLE_EQ(cfg.delay.max_ms, cfg.lambda_ms) << "scenario " << i;
    EXPECT_TRUE(cfg.attack != "partition")
        << "a partition is asynchrony; sync protocols must never draw it";
  }
}

TEST(ScenarioGeneration, OneShotProtocolsNeverGetMultiDecisionTargets) {
  ScenarioSpace space = ScenarioSpace::defaults();
  space.protocols = {"pbft"};
  for (std::uint64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(generate_scenario(space, 4, i).config.decisions, 1u);
  }
  space.protocols = {"hotstuff-ns"};
  bool saw_multi = false;
  for (std::uint64_t i = 0; i < 20; ++i) {
    saw_multi |= generate_scenario(space, 4, i).config.decisions > 1;
  }
  EXPECT_TRUE(saw_multi) << "pipelined protocols should draw targets > 1";
}

TEST(ScenarioGeneration, CanarySpaceSelectsOnlyTheCanary) {
  register_fuzz_canary();
  const ScenarioSpace space = ScenarioSpace::canary();
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(generate_scenario(space, 1, i).config.protocol, kCanaryProtocol);
  }
}

TEST(ScenarioGeneration, EmptyProtocolListThrows) {
  ScenarioSpace space = ScenarioSpace::defaults();
  space.protocols.clear();
  EXPECT_THROW((void)generate_scenario(space, 1, 0), std::invalid_argument);
}

TEST(ScenarioId, NamesCampaignAndIndex) {
  Scenario s;
  s.campaign_seed = 7;
  s.index = 42;
  EXPECT_EQ(s.id(), "campaign-7/scenario-42");
}

TEST(ScenarioSpaceJson, RoundTrips) {
  ScenarioSpace space = ScenarioSpace::defaults();
  space.node_counts = {4, 7};
  space.attack_rate = 0.25;
  space.max_time_ms = 30'000.0;
  const ScenarioSpace back = ScenarioSpace::from_json(space.to_json(), "$");
  EXPECT_EQ(back.to_json().dump(), space.to_json().dump());
  // The round-tripped space generates identical scenarios.
  EXPECT_EQ(generate_scenario(back, 9, 3).config.to_json().dump(),
            generate_scenario(space, 9, 3).config.to_json().dump());
}

TEST(ScenarioSpaceJson, RejectsBadInputWithPath) {
  const auto expect_error = [](const char* text, const char* needle) {
    try {
      (void)ScenarioSpace::from_json(json::parse(text), "$.space");
      FAIL() << "expected rejection of " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_error(R"({"protocols":[]})", "$.space.protocols");
  expect_error(R"({"node_counts":[2]})", "$.space.node_counts");
  expect_error(R"({"attack_rate":1.5})", "$.space.attack_rate");
  expect_error(R"({"lambdas":[500]})", "$.space");  // unknown key
}

}  // namespace
}  // namespace bftsim::explore
