// Records golden engine aggregates for the determinism regression suite.
//
// Runs a fixed list of configuration points — two protocols (or engine
// variants) per figure/ablation bench, small n and repeat counts so the
// replay stays test-sized — and writes their aggregates to a JSON file
// (default tests/data/engine_goldens.json). The checked-in goldens were
// produced by the pre-overhaul engine; tests/sim/engine_goldens_test.cpp
// replays every point against the current engine and requires equivalent()
// aggregates, which is what keeps hot-path rewrites bit-identical.
//
// Regenerate (only when an intentional behavior change is being made):
//   cmake --build build -j --target record_goldens
//   ./build/tools/record_goldens tests/data/engine_goldens.json
// Add or re-record one section, leaving the others byte-for-byte as they
// are (a full re-record rewrites the wall-clock fields of every section):
//   ./build/tools/record_goldens --section transport_points
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "baseline/baseline.hpp"
#include "core/json.hpp"
#include "runner/export.hpp"
#include "runner/runner.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace bftsim;

struct AggregatePoint {
  std::string name;
  SimConfig cfg;
  std::size_t repeats = 3;
};

json::Value partition_params(double resolve_ms, int subnets) {
  json::Object params;
  params["resolve_ms"] = resolve_ms;
  params["mode"] = "drop";
  if (subnets > 0) params["subnets"] = static_cast<std::int64_t>(subnets);
  return json::Value{std::move(params)};
}

/// One spot-check pair per bench (fig2-fig9, ablations, beyond-paper),
/// mirroring the exact configurations those benches run, at test-sized
/// repeat counts.
std::vector<AggregatePoint> aggregate_points() {
  std::vector<AggregatePoint> points;
  const auto add = [&points](std::string name, SimConfig cfg,
                             std::size_t repeats = 3) {
    points.push_back(AggregatePoint{std::move(name), std::move(cfg), repeats});
  };

  {  // fig2: PBFT scalability (message-level engine rows).
    SimConfig cfg;
    cfg.protocol = "pbft";
    cfg.n = 16;
    cfg.lambda_ms = 1000;
    cfg.delay = DelaySpec::normal(250, 50);
    cfg.decisions = 1;
    add("fig2/pbft/n=16", cfg);
    cfg.n = 32;
    add("fig2/pbft/n=32", cfg);
  }
  {  // fig3: protocol comparison across network environments.
    add("fig3/hotstuff-ns/N(500,100)",
        experiment_config("hotstuff-ns", 16, 1000, DelaySpec::normal(500, 100)));
    add("fig3/asyncba/N(1000,300)",
        experiment_config("asyncba", 16, 1000, DelaySpec::normal(1000, 300)));
  }
  {  // fig4: overestimated lambda.
    add("fig4/pbft/lambda=2000",
        experiment_config("pbft", 16, 2000, DelaySpec::normal(250, 50)));
    add("fig4/librabft/lambda=1500",
        experiment_config("librabft", 16, 1500, DelaySpec::normal(250, 50)));
  }
  {  // fig5: underestimated lambda.
    add("fig5/hotstuff-ns/lambda=150",
        experiment_config("hotstuff-ns", 16, 150, DelaySpec::normal(250, 50)));
    add("fig5/pbft/lambda=250",
        experiment_config("pbft", 16, 250, DelaySpec::normal(250, 50)));
  }
  {  // fig6: network partition, two subnets, resolves at 33 s.
    for (const char* protocol : {"algorand", "pbft"}) {
      SimConfig cfg =
          experiment_config(protocol, 16, 1000, DelaySpec::normal(250, 50));
      cfg.decisions = 1;
      cfg.attack = "partition";
      cfg.attack_params = partition_params(33'000, 2);
      cfg.max_time_ms = 600'000;
      add(std::string("fig6/") + protocol + "/partition", cfg);
    }
  }
  {  // fig7: fail-stop resilience.
    SimConfig cfg =
        experiment_config("hotstuff-ns", 16, 1000, DelaySpec::normal(1000, 300));
    cfg.honest = 14;
    cfg.max_time_ms = 600'000;
    add("fig7/hotstuff-ns/f=2", cfg);
    cfg = experiment_config("addv2", 16, 1000, DelaySpec::normal(1000, 300));
    cfg.honest = 13;
    cfg.max_time_ms = 600'000;
    add("fig7/addv2/f=3", cfg);
  }
  {  // fig8: ADD+ variants under attacks.
    SimConfig cfg = experiment_config("addv1", 16, 1000, DelaySpec::normal(250, 50));
    cfg.attack = "add-static";
    cfg.max_time_ms = 600'000;
    add("fig8/addv1/add-static", cfg);
    cfg = experiment_config("addv3", 16, 1000, DelaySpec::normal(250, 50));
    cfg.attack = "add-adaptive";
    cfg.max_time_ms = 600'000;
    add("fig8/addv3/add-adaptive", cfg);
  }
  {  // ablation_pacemaker: crashed leaders and a healed partition.
    SimConfig cfg =
        experiment_config("librabft", 16, 1000, DelaySpec::normal(1000, 300));
    cfg.honest = 14;
    add("ablation_pacemaker/librabft/f=2", cfg);
    cfg = experiment_config("tendermint", 16, 1000, DelaySpec::normal(250, 50));
    cfg.decisions = 1;
    cfg.attack = "partition";
    cfg.attack_params = partition_params(33'000, 0);
    add("ablation_pacemaker/tendermint/healed-partition", cfg);
  }
  {  // ablation_costmodel: verification-cost sweep points.
    SimConfig cfg = experiment_config("pbft", 16, 1000, DelaySpec::normal(250, 50));
    cfg.decisions = 10;
    cfg.cost.verify_ms = 2.0;
    cfg.cost.sign_ms = 1.0;
    add("ablation_costmodel/pbft/verify=2", cfg);
    cfg = experiment_config("tendermint", 16, 1000, DelaySpec::normal(250, 50));
    cfg.decisions = 10;
    cfg.cost.verify_ms = 5.0;
    cfg.cost.sign_ms = 2.5;
    add("ablation_costmodel/tendermint/verify=5", cfg);
  }
  {  // beyond_paper: extension protocols.
    add("beyond/sync-hotstuff/N(250,50)",
        experiment_config("sync-hotstuff", 16, 1000, DelaySpec::normal(250, 50)));
    add("beyond/tendermint/N(1000,300)",
        experiment_config("tendermint", 16, 1000, DelaySpec::normal(1000, 300)));
  }
  {  // fault layer: one point per fault kind plus a combined schedule and a
     // watchdog budget. Small n, 2 repeats — these pin the fault RNG stream
     // (fork order, window expansion, corruption coin) in addition to the
     // engine hot path.
    SimConfig cfg = experiment_config("pbft", 8, 1000, DelaySpec::normal(250, 50));
    cfg.max_time_ms = 600'000;
    cfg.faults.crashes.push_back({2, 300.0, 2000.0});
    add("faults/pbft/crash-recover", cfg, 2);

    cfg = experiment_config("hotstuff-ns", 8, 1000, DelaySpec::normal(250, 50));
    cfg.max_time_ms = 600'000;
    cfg.faults.link_flaps.push_back({0, 1, 200.0, 1500.0});
    cfg.faults.link_flaps.push_back({2, 3, 900.0, 1200.0});
    add("faults/hotstuff-ns/link-flap", cfg, 2);

    cfg = experiment_config("tendermint", 8, 1000, DelaySpec::normal(250, 50));
    cfg.max_time_ms = 600'000;
    cfg.faults.corruption = {0.05, 0.0, 0.0};
    add("faults/tendermint/corruption", cfg, 2);

    cfg = experiment_config("librabft", 8, 1000, DelaySpec::normal(250, 50));
    cfg.max_time_ms = 600'000;
    cfg.faults.clock = {25.0, 0.02};
    add("faults/librabft/clock-skew", cfg, 2);

    cfg = experiment_config("algorand", 8, 1000, DelaySpec::normal(250, 50));
    cfg.max_time_ms = 600'000;
    cfg.faults.random_crashes = {1, 0.0, 5000.0, 500.0, 1500.0};
    cfg.faults.random_link_flaps = {2, 0.0, 5000.0, 200.0, 1000.0};
    cfg.faults.corruption = {0.02, 0.0, 0.0};
    add("faults/algorand/combined", cfg, 2);

    cfg = experiment_config("pbft", 8, 1000, DelaySpec::normal(250, 50));
    cfg.max_events = 500;  // watchdog: run stops on the event budget
    cfg.faults.crashes.push_back({1, 100.0, 1000.0});
    add("faults/pbft/event-budget", cfg, 2);
  }
  return points;
}

/// WAN transport backend points (net/wan/; see docs/NETWORKING.md): one
/// aggregate pair per backend piece — RTT matrix, bandwidth queues, gossip
/// dissemination, the three combined — plus a windowed-parallel matrix run.
/// These pin the WAN delay arithmetic, the FIFO next-free-time scalars, the
/// overlay construction and the duplicate-suppression order; the CI
/// wan-matrix job replays them under ASan/UBSan.
std::vector<AggregatePoint> wan_points() {
  std::vector<AggregatePoint> points;
  const auto net = [](const char* json_text) {
    return WanSpec::from_json(json::parse(json_text));
  };

  SimConfig cfg = experiment_config("pbft", 16, 1000, DelaySpec::normal(50, 10));
  cfg.decisions = 1;
  cfg.net = net(R"({"rtt": {"matrix": "geo8"}})");
  points.push_back(AggregatePoint{"wan/pbft/geo8-matrix", cfg, 3});

  cfg = experiment_config("hotstuff-ns", 16, 1000, DelaySpec::normal(50, 10));
  cfg.decisions = 5;
  cfg.net = net(R"({"uplink_mbps": 20, "downlink_mbps": 20})");
  points.push_back(AggregatePoint{"wan/hotstuff-ns/bandwidth", cfg, 3});

  cfg = experiment_config("pbft", 16, 1000, DelaySpec::normal(50, 10));
  cfg.decisions = 1;
  cfg.net = net(R"({"backend": "gossip", "fanout": 3})");
  points.push_back(AggregatePoint{"wan/pbft/gossip-fanout3", cfg, 3});

  cfg = experiment_config("tendermint", 16, 1000, DelaySpec::normal(50, 10));
  cfg.decisions = 1;
  cfg.net = net(
      R"({"backend": "gossip", "fanout": 4,
          "uplink_mbps": 100, "downlink_mbps": 100,
          "rtt": {"matrix": "geo8",
                  "regions": ["us-east", "eu-west", "ap-northeast"]}})");
  points.push_back(AggregatePoint{"wan/tendermint/gossip-bw-matrix", cfg, 3});

  // Matrix-only stays legal on the windowed-parallel driver: this point
  // runs two lanes with the WAN infimum folded into the lookahead.
  cfg = experiment_config("librabft", 16, 1000, DelaySpec::normal(50, 10));
  cfg.decisions = 2;
  cfg.net = net(R"({"rtt": {"matrix": "geo8"}})");
  cfg.engine.intra_jobs = 2;
  points.push_back(AggregatePoint{"wan/librabft/geo8-windowed", cfg, 2});

  return points;
}

/// Client workload points (src/workload/; see docs/WORKLOADS.md): one
/// aggregate pair per generator mode — open-loop Poisson, open-loop fixed
/// with a batching timeout, closed-loop (serial fallback), and an open-loop
/// windowed-parallel run. These pin the "wl" RNG fork, the per-node arrival
/// streams, the batch digests and the request-latency percentile math; the
/// CI workload-matrix job replays them under ASan/UBSan.
std::vector<AggregatePoint> workload_points() {
  std::vector<AggregatePoint> points;

  // decisions=10: pbft proposes sequence k+1 only after k decides, and the
  // seq-1 proposal at t=0 predates every open-loop arrival — later
  // sequences are what carry batches.
  SimConfig cfg =
      experiment_config("pbft", 16, 1000, DelaySpec::normal(250, 50));
  cfg.decisions = 10;
  cfg.workload.rate_rps = 200.0;
  cfg.workload.max_batch = 16;
  points.push_back(AggregatePoint{"workload/pbft/open-poisson", cfg, 2});

  cfg = experiment_config("hotstuff-ns", 16, 1000, DelaySpec::normal(250, 50));
  cfg.workload.rate_rps = 100.0;
  cfg.workload.arrival = WorkloadSpec::Arrival::kFixed;
  cfg.workload.max_batch = 8;
  cfg.workload.max_wait_ms = 50.0;
  points.push_back(
      AggregatePoint{"workload/hotstuff-ns/open-fixed-wait", cfg, 2});

  cfg = experiment_config("tendermint", 16, 1000, DelaySpec::normal(250, 50));
  cfg.workload.mode = WorkloadSpec::Mode::kClosed;
  cfg.workload.clients = 1000;
  cfg.workload.window = 2;
  cfg.workload.think_ms = 100.0;
  points.push_back(AggregatePoint{"workload/tendermint/closed-loop", cfg, 2});

  // Open-loop workloads stay legal on the windowed-parallel driver; this
  // point pins the merge-barrier decide order feeding the latency vector.
  cfg = experiment_config("librabft", 16, 1000, DelaySpec::normal(250, 50));
  cfg.workload.rate_rps = 150.0;
  cfg.engine.intra_jobs = 2;
  points.push_back(AggregatePoint{"workload/librabft/open-windowed", cfg, 2});

  return points;
}

struct SinglePoint {
  std::string name;
  SimConfig cfg;
  bool baseline = false;  ///< run the packet-level engine instead
};

/// Single-run points: the fig9 view-trace panels (record_views on) and one
/// packet-level baseline row from fig2 (the baseline engine shares the
/// controller dispatch path, so it must stay bit-identical too).
std::vector<SinglePoint> single_points() {
  std::vector<SinglePoint> points;

  SimConfig cfg = experiment_config("hotstuff-ns", 16, 150, DelaySpec::normal(250, 50));
  cfg.seed = 4;
  cfg.record_views = true;
  cfg.max_time_ms = 600'000;
  points.push_back(SinglePoint{"fig9/paper", cfg, false});

  cfg = experiment_config("hotstuff-ns", 16, 1000, DelaySpec::normal(1000, 300));
  cfg.seed = 4;
  cfg.honest = 12;
  cfg.record_views = true;
  cfg.max_time_ms = 600'000;
  points.push_back(SinglePoint{"fig9/stress", cfg, false});

  cfg = SimConfig{};
  cfg.protocol = "pbft";
  cfg.n = 8;
  cfg.lambda_ms = 1000;
  cfg.delay = DelaySpec::normal(250, 50);
  cfg.decisions = 1;
  cfg.seed = 1;
  points.push_back(SinglePoint{"fig2/baseline/pbft/n=8", cfg, true});

  return points;
}

/// WAN single-run points: a gossip run recorded with its dissemination
/// counters, pinning relay fan-out and duplicate suppression exactly.
std::vector<SinglePoint> wan_single_points() {
  std::vector<SinglePoint> points;
  SimConfig cfg = experiment_config("pbft", 16, 1000, DelaySpec::normal(50, 10));
  cfg.decisions = 1;
  cfg.seed = 5;
  cfg.net = WanSpec::from_json(
      json::parse(R"({"backend": "gossip", "fanout": 3})"));
  points.push_back(SinglePoint{"wan/pbft/gossip-counters", cfg, false});
  return points;
}

/// Workload single-run points: one open-loop run recorded with its full
/// request-level record (conservation counters and latency percentiles),
/// pinning batch formation and decide-order latency accounting exactly.
std::vector<SinglePoint> workload_single_points() {
  std::vector<SinglePoint> points;
  SimConfig cfg =
      experiment_config("pbft", 16, 1000, DelaySpec::normal(250, 50));
  cfg.seed = 7;
  cfg.decisions = 10;
  cfg.workload.rate_rps = 300.0;
  cfg.workload.max_batch = 32;
  points.push_back(SinglePoint{"workload/pbft/open-counters", cfg, false});
  return points;
}

/// Transport-pipeline points: one traced single run per send, deliver and
/// timer stage — attacker drop/delay/modify/duplicate verdicts, link flaps,
/// corruption, crashes, clock skew, the cost model, topology, the WAN
/// matrix and bandwidth queues (on the fast path and behind the attacker),
/// gossip relay, and the packet-level baseline. The per_node points run
/// the windowed engine and are replayed at several lane counts. Each run
/// is pinned by its counters and its trace fingerprint, so any change to
/// the order or content of a send, drop or delivery shows up.
std::vector<SinglePoint> transport_points() {
  std::vector<SinglePoint> points;
  const auto traced = [&points](std::string name, SimConfig cfg,
                                bool baseline = false) {
    cfg.record_trace = true;
    if (cfg.max_time_ms < 600'000) cfg.max_time_ms = 600'000;
    points.push_back(SinglePoint{std::move(name), std::move(cfg), baseline});
  };
  const auto params = [](const char* json_text) {
    return json::parse(json_text);
  };
  const auto net = [](const char* json_text) {
    return WanSpec::from_json(json::parse(json_text));
  };
  const DelaySpec delay = DelaySpec::normal(250, 50);

  SimConfig cfg = experiment_config("librabft", 16, 1000, delay);
  cfg.decisions = 3;
  cfg.attack = "eclipse";
  cfg.attack_params =
      params(R"({"victim": 3, "mode": "drop", "duration_ms": 4000})");
  traced("transport/librabft/eclipse-drop", cfg);

  cfg = experiment_config("hotstuff-ns", 16, 1000, delay);
  cfg.decisions = 3;
  cfg.attack = "eclipse";
  cfg.attack_params =
      params(R"({"victim": 5, "keep": 2, "mode": "delay",
                 "duration_ms": 4000})");
  traced("transport/hotstuff-ns/eclipse-delay", cfg);

  cfg = experiment_config("pbft", 16, 1000, delay);
  cfg.decisions = 2;
  cfg.attack = "flood";
  cfg.attack_params = params(R"({"copies": 2, "spread_ms": 5})");
  traced("transport/pbft/flood", cfg);

  cfg = experiment_config("tendermint", 16, 1000, delay);
  cfg.decisions = 2;
  cfg.attack = "adaptive-partition";
  cfg.attack_params = params(R"({"resolve_ms": 6000})");
  traced("transport/tendermint/adaptive-partition", cfg);

  cfg = experiment_config("pbft", 16, 1000, delay);
  cfg.decisions = 2;
  cfg.attack = "pbft-equivocation";
  traced("transport/pbft/equivocation", cfg);

  cfg = experiment_config("librabft", 8, 1000, delay);
  cfg.decisions = 3;
  cfg.faults.link_flaps.push_back({0, 1, 200.0, 1500.0});
  cfg.faults.link_flaps.push_back({2, 5, 900.0, 1200.0});
  cfg.faults.corruption = {0.05, 0.0, 0.0};
  cfg.faults.crashes.push_back({3, 400.0, 2500.0});
  cfg.faults.clock = {25.0, 0.02};
  traced("transport/librabft/flaps-corruption-crash-skew", cfg);

  cfg = experiment_config("pbft", 16, 1000, delay);
  cfg.decisions = 3;
  cfg.cost.verify_ms = 2.0;
  cfg.cost.sign_ms = 1.0;
  cfg.topology = params(
      R"({"regions": 4, "cross_factor": 1.5, "cross_extra_ms": 40})");
  traced("transport/pbft/cost-topology", cfg);

  cfg = experiment_config("hotstuff-ns", 16, 1000, DelaySpec::normal(50, 10));
  cfg.decisions = 3;
  cfg.cost.sign_ms = 1.0;
  cfg.net = net(R"({"uplink_mbps": 20, "downlink_mbps": 20,
                    "rtt": {"matrix": "geo8"}})");
  traced("transport/hotstuff-ns/wan-matrix-bandwidth", cfg);

  // Bandwidth queues behind a re-timing attacker, with a signing cost so
  // the copy leaves the CPU after the send instant.
  cfg = experiment_config("pbft", 16, 1000, DelaySpec::normal(50, 10));
  cfg.decisions = 2;
  cfg.cost.sign_ms = 1.0;
  cfg.net = net(R"({"uplink_mbps": 20, "downlink_mbps": 20})");
  cfg.attack = "eclipse";
  cfg.attack_params =
      params(R"({"victim": 2, "mode": "delay", "duration_ms": 3000})");
  traced("transport/pbft/bandwidth-eclipse-delay", cfg);

  cfg = experiment_config("pbft", 16, 1000, DelaySpec::normal(50, 10));
  cfg.decisions = 2;
  cfg.net = net(R"({"backend": "gossip", "fanout": 3})");
  cfg.faults.crashes.push_back({4, 50.0, 400.0});
  cfg.faults.corruption = {0.03, 0.0, 0.0};
  traced("transport/pbft/gossip-crash-corruption", cfg);

  cfg = SimConfig{};
  cfg.protocol = "pbft";
  cfg.n = 8;
  cfg.lambda_ms = 1000;
  cfg.delay = delay;
  cfg.decisions = 1;
  cfg.seed = 2;
  traced("transport/baseline/pbft/n=8", cfg, true);

  // Windowed engine (per-node RNG): recorded on one lane, replayed at
  // intra_jobs {1, 2, 3, 8}.
  cfg = experiment_config("pbft", 16, 1000, delay);
  cfg.decisions = 3;
  cfg.engine.rng = EngineConfig::RngMode::kPerNode;
  cfg.faults.crashes.push_back({2, 300.0, 2000.0});
  cfg.faults.link_flaps.push_back({0, 1, 200.0, 1500.0});
  cfg.faults.corruption = {0.04, 0.0, 0.0};
  cfg.faults.clock = {10.0, 0.01};
  cfg.cost.verify_ms = 1.0;
  cfg.cost.sign_ms = 0.5;
  cfg.topology = params(
      R"({"regions": 4, "cross_factor": 1.5, "cross_extra_ms": 40})");
  traced("transport/pbft/per-node-faults-cost-topology", cfg);

  cfg = experiment_config("librabft", 16, 1000, delay);
  cfg.engine.rng = EngineConfig::RngMode::kPerNode;
  cfg.workload.rate_rps = 150.0;
  cfg.workload.max_batch = 16;
  traced("transport/librabft/per-node-open-workload", cfg);

  return points;
}

json::Value single_result_to_json(const RunResult& r) {
  json::Object o;
  o["terminated"] = r.terminated;
  o["termination_time"] = static_cast<std::int64_t>(r.termination_time);
  o["events_processed"] = static_cast<std::int64_t>(r.events_processed);
  o["messages_sent"] = static_cast<std::int64_t>(r.messages_sent);
  o["messages_delivered"] = static_cast<std::int64_t>(r.messages_delivered);
  o["messages_dropped"] = static_cast<std::int64_t>(r.messages_dropped);
  o["bytes_sent"] = static_cast<std::int64_t>(r.bytes_sent);
  o["timers_fired"] = static_cast<std::int64_t>(r.timers_fired);
  o["decision_count"] = static_cast<std::int64_t>(r.decisions.size());
  o["view_count"] = static_cast<std::int64_t>(r.views.size());
  return json::Value{std::move(o)};
}

/// The single-point fields plus every transport counter and the trace
/// fingerprint (hex: a 64-bit value does not survive a JSON double).
json::Value transport_result_to_json(const RunResult& r) {
  json::Value result = single_result_to_json(r);
  json::Object& o = result.as_object();
  o["messages_corrupted"] = static_cast<std::int64_t>(r.messages_corrupted);
  o["messages_injected"] = static_cast<std::int64_t>(r.messages_injected);
  o["attacker_dropped"] = static_cast<std::int64_t>(r.attacker_dropped);
  o["attacker_delayed"] = static_cast<std::int64_t>(r.attacker_delayed);
  o["attacker_modified"] = static_cast<std::int64_t>(r.attacker_modified);
  o["attacker_duplicated"] = static_cast<std::int64_t>(r.attacker_duplicated);
  o["gossip_relayed"] = static_cast<std::int64_t>(r.gossip_relayed);
  o["gossip_duplicates"] = static_cast<std::int64_t>(r.gossip_duplicates);
  o["trace_fingerprint"] = fingerprint_to_hex(r.trace_fingerprint);
  o["trace_records"] = static_cast<std::int64_t>(r.trace_records);
  return result;
}

json::Value wan_single_result_to_json(const RunResult& r) {
  json::Value result = single_result_to_json(r);
  result.as_object()["gossip_relayed"] =
      static_cast<std::int64_t>(r.gossip_relayed);
  result.as_object()["gossip_duplicates"] =
      static_cast<std::int64_t>(r.gossip_duplicates);
  return result;
}

json::Value workload_single_result_to_json(const RunResult& r) {
  json::Value result = single_result_to_json(r);
  result.as_object()["workload"] = workload_to_json(r.workload);
  return result;
}

json::Array record_aggregates(const std::vector<AggregatePoint>& points) {
  json::Array out;
  for (const AggregatePoint& point : points) {
    std::printf("recording %-45s ...", point.name.c_str());
    std::fflush(stdout);
    const Aggregate agg = run_repeated(point.cfg, point.repeats);
    json::Object o;
    o["name"] = point.name;
    o["repeats"] = static_cast<std::int64_t>(point.repeats);
    o["config"] = point.cfg.to_json();
    o["aggregate"] = aggregate_to_json(agg);
    out.push_back(json::Value{std::move(o)});
    std::printf(" done (%zu runs, %.0f events mean)\n", agg.runs, agg.events.mean);
  }
  return out;
}

/// `with_engine_flag` writes the "baseline" key (sections that may hold
/// packet-level points).
json::Array record_singles(const std::vector<SinglePoint>& points,
                           json::Value (*to_json)(const RunResult&),
                           bool with_engine_flag) {
  json::Array out;
  for (const SinglePoint& point : points) {
    std::printf("recording %-45s ...", point.name.c_str());
    std::fflush(stdout);
    const RunResult r = point.baseline
                            ? baseline::run_baseline_simulation(point.cfg)
                            : run_simulation(point.cfg);
    json::Object o;
    o["name"] = point.name;
    if (with_engine_flag) o["baseline"] = point.baseline;
    o["config"] = point.cfg.to_json();
    o["result"] = to_json(r);
    out.push_back(json::Value{std::move(o)});
    std::printf(" done (%llu events)\n",
                static_cast<unsigned long long>(r.events_processed));
  }
  return out;
}

struct Section {
  const char* name;
  json::Array (*record)();
};

/// Every golden section, in file order.
constexpr Section kSections[] = {
    {"aggregate_points", [] { return record_aggregates(aggregate_points()); }},
    {"single_points",
     [] {
       return record_singles(single_points(), single_result_to_json, true);
     }},
    {"wan_points", [] { return record_aggregates(wan_points()); }},
    {"wan_single_points",
     [] {
       return record_singles(wan_single_points(), wan_single_result_to_json,
                             false);
     }},
    {"workload_points", [] { return record_aggregates(workload_points()); }},
    {"workload_single_points",
     [] {
       return record_singles(workload_single_points(),
                             workload_single_result_to_json, false);
     }},
    {"transport_points",
     [] {
       return record_singles(transport_points(), transport_result_to_json,
                             true);
     }},
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "tests/data/engine_goldens.json";
  std::vector<std::string> only;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--section" && i + 1 < argc) {
      only.emplace_back(argv[++i]);
    } else {
      out_path = arg;
    }
  }

  // --section re-records only the named sections into the existing file;
  // the other sections are written back unchanged.
  json::Value top = only.empty() ? json::Value{json::Object{}}
                                 : json::parse_file(out_path);
  if (only.empty()) top.as_object()["generated_by"] = "tools/record_goldens";
  for (const std::string& name : only) {
    const bool known = std::any_of(
        std::begin(kSections), std::end(kSections),
        [&name](const Section& s) { return name == s.name; });
    if (!known) {
      std::fprintf(stderr, "record_goldens: unknown section %s\n",
                   name.c_str());
      return 2;
    }
  }
  for (const Section& section : kSections) {
    if (!only.empty() &&
        std::find(only.begin(), only.end(), section.name) == only.end()) {
      continue;
    }
    top.as_object()[section.name] = json::Value{section.record()};
  }
  write_json_file(out_path, top);
  std::printf("goldens written to %s\n", out_path.c_str());
  return 0;
}
