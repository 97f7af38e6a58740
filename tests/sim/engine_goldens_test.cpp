// Determinism regression: replays the recorded golden aggregates
// (tests/data/engine_goldens.json, produced by tools/record_goldens with
// the pre-overhaul engine) against the current engine and requires
// bit-identical deterministic fields. This is the contract that lets the
// hot path be rewritten freely: any change to pop order, RNG consumption
// order, message fan-out order or metrics accounting shows up here.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "baseline/baseline.hpp"
#include "core/config.hpp"
#include "core/json.hpp"
#include "runner/export.hpp"
#include "runner/runner.hpp"
#include "sim/simulation.hpp"

#ifndef BFTSIM_REPO_ROOT
#error "BFTSIM_REPO_ROOT must point at the repository checkout"
#endif

namespace bftsim {
namespace {

const std::string kGoldensPath =
    std::string(BFTSIM_REPO_ROOT) + "/tests/data/engine_goldens.json";

Summary parse_summary(const json::Value& v) {
  const json::Object& o = v.as_object();
  Summary s;
  s.count = static_cast<std::size_t>(o.at("count").as_int());
  s.mean = o.at("mean").as_number();
  s.stddev = o.at("stddev").as_number();
  s.min = o.at("min").as_number();
  s.max = o.at("max").as_number();
  s.median = o.at("median").as_number();
  s.p90 = o.at("p90").as_number();
  s.p99 = o.at("p99").as_number();
  return s;
}

Aggregate parse_aggregate(const json::Value& v) {
  const json::Object& o = v.as_object();
  Aggregate a;
  a.runs = static_cast<std::size_t>(o.at("runs").as_int());
  a.timeouts = static_cast<std::size_t>(o.at("timeouts").as_int());
  a.latency_ms = parse_summary(o.at("latency_ms"));
  a.per_decision_latency_ms = parse_summary(o.at("per_decision_latency_ms"));
  a.messages = parse_summary(o.at("messages"));
  a.per_decision_messages = parse_summary(o.at("per_decision_messages"));
  a.events = parse_summary(o.at("events"));
  a.wall_seconds_total = o.at("wall_seconds_total").as_number();
  return a;
}

// Field-by-field comparison so a regression names the field that moved
// (equivalent() alone would only say "not equal"). Doubles are compared
// exactly: the recorder serializes with round-trip precision and the
// golden contract is bit-identity, not tolerance.
void expect_summary_eq(const Summary& actual, const Summary& expected,
                       const char* which) {
  SCOPED_TRACE(which);
  EXPECT_EQ(actual.count, expected.count);
  EXPECT_EQ(actual.mean, expected.mean);
  EXPECT_EQ(actual.stddev, expected.stddev);
  EXPECT_EQ(actual.min, expected.min);
  EXPECT_EQ(actual.max, expected.max);
  EXPECT_EQ(actual.median, expected.median);
  EXPECT_EQ(actual.p90, expected.p90);
  EXPECT_EQ(actual.p99, expected.p99);
}

void expect_aggregate_eq(const Aggregate& actual, const Aggregate& expected) {
  EXPECT_EQ(actual.runs, expected.runs);
  EXPECT_EQ(actual.timeouts, expected.timeouts);
  expect_summary_eq(actual.latency_ms, expected.latency_ms, "latency_ms");
  expect_summary_eq(actual.per_decision_latency_ms,
                    expected.per_decision_latency_ms, "per_decision_latency_ms");
  expect_summary_eq(actual.messages, expected.messages, "messages");
  expect_summary_eq(actual.per_decision_messages,
                    expected.per_decision_messages, "per_decision_messages");
  expect_summary_eq(actual.events, expected.events, "events");
  EXPECT_TRUE(equivalent(actual, expected));
}

TEST(EngineGoldensTest, AggregatePointsReplayBitIdentical) {
  const json::Value doc = json::parse_file(kGoldensPath);
  const json::Array& points = doc.as_object().at("aggregate_points").as_array();
  ASSERT_GE(points.size(), 20u);
  for (const json::Value& point : points) {
    const json::Object& o = point.as_object();
    SCOPED_TRACE(o.at("name").as_string());
    const SimConfig cfg = SimConfig::from_json(o.at("config"));
    const auto repeats = static_cast<std::size_t>(o.at("repeats").as_int());
    const Aggregate expected = parse_aggregate(o.at("aggregate"));
    expect_aggregate_eq(run_repeated(cfg, repeats), expected);
  }
}

TEST(EngineGoldensTest, SinglePointsReplayBitIdentical) {
  const json::Value doc = json::parse_file(kGoldensPath);
  const json::Array& points = doc.as_object().at("single_points").as_array();
  ASSERT_GE(points.size(), 3u);
  for (const json::Value& point : points) {
    const json::Object& o = point.as_object();
    SCOPED_TRACE(o.at("name").as_string());
    const SimConfig cfg = SimConfig::from_json(o.at("config"));
    const RunResult r = o.at("baseline").as_bool()
                            ? baseline::run_baseline_simulation(cfg)
                            : run_simulation(cfg);
    const json::Object& want = o.at("result").as_object();
    EXPECT_EQ(r.terminated, want.at("terminated").as_bool());
    EXPECT_EQ(static_cast<std::int64_t>(r.termination_time),
              want.at("termination_time").as_int());
    EXPECT_EQ(static_cast<std::int64_t>(r.events_processed),
              want.at("events_processed").as_int());
    EXPECT_EQ(static_cast<std::int64_t>(r.messages_sent),
              want.at("messages_sent").as_int());
    EXPECT_EQ(static_cast<std::int64_t>(r.messages_delivered),
              want.at("messages_delivered").as_int());
    EXPECT_EQ(static_cast<std::int64_t>(r.messages_dropped),
              want.at("messages_dropped").as_int());
    EXPECT_EQ(static_cast<std::int64_t>(r.bytes_sent),
              want.at("bytes_sent").as_int());
    EXPECT_EQ(static_cast<std::int64_t>(r.timers_fired),
              want.at("timers_fired").as_int());
    EXPECT_EQ(static_cast<std::int64_t>(r.decisions.size()),
              want.at("decision_count").as_int());
    EXPECT_EQ(static_cast<std::int64_t>(r.views.size()),
              want.at("view_count").as_int());
  }
}

/// Checks one recorded transport-point result field by field.
void expect_transport_result(const RunResult& r, const json::Object& want) {
  const auto expect_count = [&want](std::uint64_t actual, const char* key) {
    EXPECT_EQ(static_cast<std::int64_t>(actual), want.at(key).as_int()) << key;
  };
  EXPECT_EQ(r.terminated, want.at("terminated").as_bool());
  EXPECT_EQ(static_cast<std::int64_t>(r.termination_time),
            want.at("termination_time").as_int());
  expect_count(r.events_processed, "events_processed");
  expect_count(r.messages_sent, "messages_sent");
  expect_count(r.messages_delivered, "messages_delivered");
  expect_count(r.messages_dropped, "messages_dropped");
  expect_count(r.bytes_sent, "bytes_sent");
  expect_count(r.timers_fired, "timers_fired");
  expect_count(r.decisions.size(), "decision_count");
  expect_count(r.views.size(), "view_count");
  expect_count(r.messages_corrupted, "messages_corrupted");
  expect_count(r.messages_injected, "messages_injected");
  expect_count(r.attacker_dropped, "attacker_dropped");
  expect_count(r.attacker_delayed, "attacker_delayed");
  expect_count(r.attacker_modified, "attacker_modified");
  expect_count(r.attacker_duplicated, "attacker_duplicated");
  expect_count(r.gossip_relayed, "gossip_relayed");
  expect_count(r.gossip_duplicates, "gossip_duplicates");
  expect_count(r.trace_records, "trace_records");
  EXPECT_EQ(fingerprint_to_hex(r.trace_fingerprint),
            want.at("trace_fingerprint").as_string());
}

// Traced single runs that reach every transport stage (attacker verdicts,
// link flaps, corruption, crashes, clock skew, cost model, topology, WAN
// matrix and bandwidth, gossip relay, the packet-level baseline). Windowed
// (per_node) points must match the record at every lane count.
TEST(EngineGoldensTest, TransportPointsReplayBitIdentical) {
  const json::Value doc = json::parse_file(kGoldensPath);
  const json::Array& points = doc.as_object().at("transport_points").as_array();
  ASSERT_GE(points.size(), 10u);
  std::size_t windowed = 0;
  for (const json::Value& point : points) {
    const json::Object& o = point.as_object();
    SCOPED_TRACE(o.at("name").as_string());
    SimConfig cfg = SimConfig::from_json(o.at("config"));
    const json::Object& want = o.at("result").as_object();
    if (o.at("baseline").as_bool()) {
      expect_transport_result(baseline::run_baseline_simulation(cfg), want);
      continue;
    }
    if (!cfg.engine.per_node_rng()) {
      expect_transport_result(run_simulation(cfg), want);
      continue;
    }
    ++windowed;
    for (const std::uint32_t jobs : {1u, 2u, 3u, 8u}) {
      SCOPED_TRACE("intra_jobs=" + std::to_string(jobs));
      cfg.engine.intra_jobs = jobs;
      expect_transport_result(run_simulation(cfg), want);
    }
  }
  EXPECT_GE(windowed, 2u);
}

}  // namespace
}  // namespace bftsim
