// Unit tests for the attack scenarios added for the adversary strategy
// search: eclipse, adaptive-partition, delay-schedule, flood and
// pbft-late-equivocation. Each attack is a pure function of its parameter
// vector, so beyond behavior we pin two-run bit-identity and the attacker
// activity counters the search's damage oracles consume.
#include <gtest/gtest.h>

#include <initializer_list>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "attacker/attacks.hpp"
#include "attacker/registry.hpp"
#include "core/json.hpp"
#include "runner/export.hpp"
#include "sim/simulation.hpp"

namespace bftsim {
namespace {

SimConfig base_config(const std::string& protocol, std::uint64_t seed = 1) {
  SimConfig cfg;
  cfg.protocol = protocol;
  cfg.n = 16;
  cfg.lambda_ms = 1000;
  cfg.delay = DelaySpec::normal(250, 50);
  cfg.seed = seed;
  cfg.max_time_ms = 300'000;
  return cfg;
}

json::Value params(
    std::initializer_list<std::pair<const char*, json::Value>> kvs) {
  json::Object o;
  for (const auto& [key, value] : kvs) o[key] = value;
  return json::Value{std::move(o)};
}

TEST(NewAttackRegistryTest, SearchAttacksRegistered) {
  auto& reg = AttackRegistry::instance();
  EXPECT_TRUE(reg.contains("eclipse"));
  EXPECT_TRUE(reg.contains("adaptive-partition"));
  EXPECT_TRUE(reg.contains("delay-schedule"));
  EXPECT_TRUE(reg.contains("flood"));
  EXPECT_TRUE(reg.contains("pbft-late-equivocation"));
}

TEST(EclipseAttackTest, DropModeIsolatesTheVictim) {
  SimConfig cfg = base_config("pbft");
  cfg.attack = "eclipse";
  cfg.attack_params = params({{"victim", 5},
                              {"keep", 0},
                              {"start_ms", 0},
                              {"duration_ms", 20'000},
                              {"mode", "drop"}});
  cfg.max_time_ms = 60'000;  // the victim may never catch up; bound the run
  cfg.record_trace = true;
  const RunResult result = run_simulation(cfg);
  // Nothing reaches or leaves node 5 while the eclipse window is open.
  for (const TraceRecord& rec : result.trace.records()) {
    if (rec.kind != TraceKind::kDeliver || rec.a == rec.b) continue;
    if (rec.a == 5 || rec.b == 5) {
      EXPECT_GE(rec.at, from_ms(20'000))
          << "victim traffic at " << to_ms(rec.at) << "ms";
    }
  }
  EXPECT_GT(result.attacker_dropped, 0u);
  EXPECT_EQ(result.attacker_delayed, 0u);
  // Dropped messages are gone for good: either the victim recovered late
  // or the run missed its all-honest decision target entirely.
  EXPECT_TRUE(!result.terminated || result.latency_ms() > 20'000);
  EXPECT_FALSE(result.decisions.empty());  // the other 15 made progress
  EXPECT_TRUE(result.decisions_consistent());
}

TEST(EclipseAttackTest, DelayModeReleasesHeldTrafficAtWindowEnd) {
  SimConfig cfg = base_config("pbft");
  cfg.attack = "eclipse";
  cfg.attack_params = params({{"victim", 5},
                              {"keep", 0},
                              {"start_ms", 0},
                              {"duration_ms", 10'000},
                              {"mode", "delay"}});
  cfg.record_trace = true;
  const RunResult result = run_simulation(cfg);
  ASSERT_TRUE(result.terminated);
  std::size_t held = 0;
  for (const TraceRecord& rec : result.trace.records()) {
    if (rec.kind != TraceKind::kDeliver || rec.a == rec.b) continue;
    if (rec.a == 5 || rec.b == 5) {
      EXPECT_GE(rec.at, from_ms(10'000));
      ++held;
    }
  }
  EXPECT_GT(held, 0u);  // held messages were eventually delivered
  EXPECT_EQ(result.attacker_dropped, 0u);
  EXPECT_GT(result.attacker_delayed, 0u);
}

TEST(EclipseAttackTest, KeepPreservesChosenLifelines) {
  // keep=3 leaves the victim linked to the three lowest non-victim ids
  // (1, 2, 3 for victim 0): any in-window victim traffic involves only
  // them. Delay mode releases the rest at the window end, so the victim
  // catches up and the run still terminates.
  SimConfig cfg = base_config("pbft");
  cfg.attack = "eclipse";
  cfg.attack_params = params({{"victim", 0},
                              {"keep", 3},
                              {"start_ms", 0},
                              {"duration_ms", 20'000},
                              {"mode", "delay"}});
  cfg.record_trace = true;
  const RunResult result = run_simulation(cfg);
  ASSERT_TRUE(result.terminated);
  std::size_t lifeline = 0;
  for (const TraceRecord& rec : result.trace.records()) {
    if (rec.kind != TraceKind::kDeliver || rec.a == rec.b) continue;
    if (rec.at >= from_ms(20'000)) continue;
    if (rec.a != 0 && rec.b != 0) continue;
    const NodeId peer = rec.a == 0 ? rec.b : rec.a;
    EXPECT_LE(peer, 3u) << "non-lifeline peer " << peer << " at "
                        << to_ms(rec.at) << "ms";
    ++lifeline;
  }
  EXPECT_GT(lifeline, 0u);
}

TEST(AdaptivePartitionAttackTest, RotationChangesTheEquivalenceClasses) {
  // The whole point of the adaptive variant: epochs change the *cut*, not
  // just the group labels. Epoch 0 is the static parity cut; epoch 1 must
  // rejoin some pair epoch 0 separated and split some pair it kept
  // together. (A uniform label shift like (id + epoch) mod subnets passes
  // neither check — the equivalence classes never move.)
  constexpr std::uint32_t kSubnets = 2;
  constexpr NodeId kNodes = 16;
  for (NodeId id = 0; id < kNodes; ++id) {
    EXPECT_EQ(adaptive_partition_group(id, 0, kSubnets), id % kSubnets);
    EXPECT_LT(adaptive_partition_group(id, 1, kSubnets), kSubnets);
  }
  bool rejoined = false;
  bool split = false;
  for (NodeId a = 0; a < kNodes; ++a) {
    for (NodeId b = a + 1; b < kNodes; ++b) {
      const bool apart0 = adaptive_partition_group(a, 0, kSubnets) !=
                          adaptive_partition_group(b, 0, kSubnets);
      const bool apart1 = adaptive_partition_group(a, 1, kSubnets) !=
                          adaptive_partition_group(b, 1, kSubnets);
      if (apart0 && !apart1) rejoined = true;
      if (!apart0 && apart1) split = true;
    }
  }
  EXPECT_TRUE(rejoined);
  EXPECT_TRUE(split);
}

TEST(AdaptivePartitionAttackTest, BlocksCrossGroupTrafficUntilResolve) {
  // Epoch e covers [e·period, (e+1)·period). Drops are recorded at send
  // time, so the trace pins each epoch's cut exactly: every drop before
  // resolve must be cross-group under the cut of its epoch, and nothing is
  // dropped after resolution.
  SimConfig cfg = base_config("pbft");
  cfg.attack = "adaptive-partition";
  cfg.attack_params = params({{"subnets", 2},
                              {"period_ms", 2'000},
                              {"resolve_ms", 15'000},
                              {"mode", "drop"}});
  cfg.record_trace = true;
  const RunResult result = run_simulation(cfg);
  ASSERT_TRUE(result.terminated);
  const Time period = from_ms(2'000);
  bool rejoined_pair_delivered = false;
  for (const TraceRecord& rec : result.trace.records()) {
    if (rec.a == rec.b) continue;
    if (rec.kind == TraceKind::kDrop) {
      EXPECT_LT(rec.at, from_ms(15'000)) << "drop after resolve";
      // At an exact period boundary the epoch-flip timer and same-instant
      // sends race in queue order; skip the ambiguous tick.
      if (rec.at % period == 0) continue;
      const auto epoch = static_cast<std::uint64_t>(rec.at / period);
      EXPECT_NE(adaptive_partition_group(rec.a, epoch, 2),
                adaptive_partition_group(rec.b, epoch, 2))
          << "same-group drop at " << to_ms(rec.at) << "ms";
    } else if (rec.kind == TraceKind::kDeliver && rec.at < from_ms(15'000) &&
               rec.a % 2 != rec.b % 2) {
      // A pair the epoch-0 cut separates communicated before resolve: a
      // later epoch genuinely re-cut the network.
      rejoined_pair_delivered = true;
    }
  }
  EXPECT_TRUE(rejoined_pair_delivered);
  EXPECT_GT(result.attacker_dropped, 0u);
  EXPECT_TRUE(result.decisions_consistent());
}

TEST(DelayScheduleAttackTest, StallRaisesDecisionLatency) {
  const RunResult clean = run_simulation(base_config("pbft"));
  SimConfig cfg = base_config("pbft");
  cfg.attack = "delay-schedule";
  cfg.attack_params = params({{"type", "pbft/pre-prepare"},
                              {"mode", "stall"},
                              {"amount_ms", 2'000},
                              {"duration_ms", 60'000}});
  const RunResult attacked = run_simulation(cfg);
  ASSERT_TRUE(attacked.terminated);
  EXPECT_GT(attacked.latency_ms(), clean.latency_ms() + 1'000);
  EXPECT_GT(attacked.attacker_delayed, 0u);
  EXPECT_EQ(attacked.attacker_dropped, 0u);
  EXPECT_EQ(attacked.attacker_modified, 0u);
  EXPECT_TRUE(attacked.decisions_consistent());
}

TEST(DelayScheduleAttackTest, UnknownTypeIsAConfigError) {
  // A type naming no registered message kind would match nothing and run
  // as a silent no-op; it must fail when the attack is built instead.
  SimConfig cfg = base_config("pbft");
  cfg.attack = "delay-schedule";
  cfg.attack_params = params({{"type", "pbft/comit"}, {"mode", "stall"}});
  try {
    (void)make_attacker(cfg);
    FAIL() << "expected an unknown message type to throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "config error at $.attack_params.type: unknown message "
                 "type \"pbft/comit\"");
  }
}

TEST(AttackModeTest, UnknownModeIsAConfigError) {
  // Each mode is two-way; a typo used to run as the other mode ("stal" as
  // a rush, "dorp" as delay). It must fail when the attack is built, and
  // both spellings of each pair must still build.
  struct Case {
    const char* attack;
    const char* first;
    const char* second;
    const char* typo;
  };
  for (const Case& c : {Case{"partition", "drop", "delay", "dorp"},
                        Case{"eclipse", "drop", "delay", "Drop"},
                        Case{"adaptive-partition", "drop", "delay", ""},
                        Case{"delay-schedule", "stall", "rush", "stal"}}) {
    SimConfig cfg = base_config("pbft");
    cfg.attack = c.attack;
    for (const char* ok : {c.first, c.second}) {
      cfg.attack_params = params({{"type", "pbft/commit"}, {"mode", ok}});
      EXPECT_NO_THROW((void)make_attacker(cfg)) << c.attack << " " << ok;
    }
    cfg.attack_params = params({{"type", "pbft/commit"}, {"mode", c.typo}});
    try {
      (void)make_attacker(cfg);
      ADD_FAILURE() << c.attack << " accepted mode \"" << c.typo << "\"";
    } catch (const std::invalid_argument& e) {
      const std::string expected =
          std::string("config error at $.attack_params.mode: unknown mode \"") +
          c.typo + "\" (expected \"" + c.first + "\" or \"" + c.second + "\")";
      EXPECT_EQ(std::string(e.what()), expected);
    }
  }
}

TEST(DelayScheduleAttackTest, RushNeverPullsBelowTheModelMinimum) {
  // Rushing by far more than the mean delay clamps at the delay spec's
  // min_ms: every rushed delivery still arrives strictly after its send.
  SimConfig cfg = base_config("pbft");
  cfg.attack = "delay-schedule";
  cfg.attack_params = params({{"type", "pbft/prepare"},
                              {"mode", "rush"},
                              {"amount_ms", 10'000},
                              {"duration_ms", 60'000}});
  cfg.record_trace = true;
  const RunResult result = run_simulation(cfg);
  ASSERT_TRUE(result.terminated);
  EXPECT_GT(result.attacker_delayed, 0u);  // re-timed, counted as delayed
  std::map<std::uint64_t, Time> sent_at;
  std::size_t rushed = 0;
  for (const TraceRecord& rec : result.trace.records()) {
    // Prepares only, and no self-sends.
    if (rec.type != PayloadType::kPbftPrepare || rec.a == rec.b) continue;
    if (rec.kind == TraceKind::kSend) sent_at[rec.msg_id] = rec.at;
    if (rec.kind == TraceKind::kDeliver) {
      const auto it = sent_at.find(rec.msg_id);
      ASSERT_NE(it, sent_at.end());
      EXPECT_GE(rec.at, it->second + from_ms(1.0));  // clamped at min_ms
      ++rushed;
    }
  }
  EXPECT_GT(rushed, 0u);
  EXPECT_TRUE(result.decisions_consistent());
}

TEST(FloodAttackTest, DuplicatesAreCountedAndHarmless) {
  const RunResult clean = run_simulation(base_config("pbft"));
  SimConfig cfg = base_config("pbft");
  cfg.attack = "flood";
  cfg.attack_params = params({{"copies", 3},
                              {"spread_ms", 1},
                              {"start_ms", 0},
                              {"duration_ms", 10'000}});
  const RunResult attacked = run_simulation(cfg);
  ASSERT_TRUE(attacked.terminated);
  EXPECT_GT(attacked.attacker_duplicated, 0u);
  EXPECT_GT(attacked.messages_delivered, clean.messages_delivered);
  // Handlers are idempotent: duplicates change nothing about the outcome.
  EXPECT_TRUE(attacked.decisions_consistent());
}

TEST(PbftLateEquivocationTest, CapturesTheLeaderAndInjectsConflicts) {
  SimConfig cfg = base_config("pbft", 2);
  cfg.attack = "pbft-late-equivocation";
  cfg.attack_params = params({{"view", 0}, {"strike_ms", 500}});
  const RunResult result = run_simulation(cfg);
  ASSERT_TRUE(result.terminated);
  ASSERT_EQ(result.corrupted.size(), 1u);
  EXPECT_EQ(result.corrupted[0], 0u);  // round-robin leader of view 0
  EXPECT_GT(result.messages_injected, 0u);
  EXPECT_TRUE(result.decisions_consistent());
}

TEST(NewAttacksDeterminismTest, TwoRunsAreBitIdentical) {
  const struct {
    const char* attack;
    json::Value p;
  } cases[] = {
      {"eclipse", params({{"victim", 0},
                          {"keep", 1},
                          {"start_ms", 0},
                          {"duration_ms", 15'000},
                          {"mode", "delay"}})},
      {"adaptive-partition", params({{"subnets", 3},
                                     {"period_ms", 1'000},
                                     {"resolve_ms", 12'000},
                                     {"mode", "drop"}})},
      {"delay-schedule", params({{"type", "pbft/commit"},
                                 {"mode", "stall"},
                                 {"amount_ms", 1'000},
                                 {"duration_ms", 30'000}})},
      {"flood", params({{"copies", 2},
                        {"spread_ms", 0.5},
                        {"start_ms", 0},
                        {"duration_ms", 8'000}})},
      {"pbft-late-equivocation", params({{"view", 1}, {"strike_ms", 2'000}})},
  };
  for (const auto& c : cases) {
    SimConfig cfg = base_config("pbft", 7);
    cfg.attack = c.attack;
    cfg.attack_params = c.p;
    cfg.record_trace = true;
    const RunResult a = run_simulation(cfg);
    const RunResult b = run_simulation(cfg);
    EXPECT_EQ(a.termination_time, b.termination_time) << c.attack;
    EXPECT_EQ(a.trace_fingerprint, b.trace_fingerprint) << c.attack;
    EXPECT_EQ(a.trace_records, b.trace_records) << c.attack;
  }
}

TEST(AttackerActivityTest, PassiveRunsKeepAllCountersZero) {
  const RunResult result = run_simulation(base_config("pbft"));
  EXPECT_EQ(result.attacker_dropped, 0u);
  EXPECT_EQ(result.attacker_delayed, 0u);
  EXPECT_EQ(result.attacker_modified, 0u);
  EXPECT_EQ(result.attacker_duplicated, 0u);
  // ... and attack-free exports carry no attacker_activity key, keeping
  // them byte-identical to previous releases.
  const json::Value doc = result_to_json(result);
  EXPECT_EQ(doc.as_object().find("attacker_activity"), nullptr);
}

TEST(AttackerActivityTest, CountersAreExportedWhenNonzero) {
  SimConfig cfg = base_config("pbft");
  cfg.attack = "flood";
  cfg.attack_params = params({{"copies", 2},
                              {"spread_ms", 1},
                              {"start_ms", 0},
                              {"duration_ms", 5'000}});
  const RunResult result = run_simulation(cfg);
  const json::Value doc = result_to_json(result);
  const json::Value* atk = doc.as_object().find("attacker_activity");
  ASSERT_NE(atk, nullptr);
  EXPECT_EQ(atk->get_number("duplicated", 0.0),
            static_cast<double>(result.attacker_duplicated));
  EXPECT_GT(result.attacker_duplicated, 0u);
}

}  // namespace
}  // namespace bftsim
