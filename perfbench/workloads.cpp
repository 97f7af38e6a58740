#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "core/json.hpp"
#include "runner/runner.hpp"

namespace perfbench {
namespace {

using bftsim::DelaySpec;
using bftsim::SimConfig;

/// Every simulated run uses N(250, 50) ms delays and lambda = 1000 ms
/// unless a cell exists to vary them (Fig. 3's four environments, Fig. 7).
SimConfig base_config(const std::string& protocol, std::uint32_t n,
                      std::uint32_t decisions) {
  SimConfig cfg;
  cfg.protocol = protocol;
  cfg.n = n;
  cfg.decisions = decisions;
  cfg.lambda_ms = 1000.0;
  cfg.delay = DelaySpec::normal(250.0, 50.0);
  return cfg;
}

SimConfig from_json_text(const std::string& text) {
  return SimConfig::from_json(bftsim::json::parse(text));
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint32_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::uint32_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::uint32_t bench_threads() { return std::min(2u, usable_cpus()); }

std::vector<SimConfig> single_run_configs(const std::string& workload,
                                          std::uint64_t seed, bool tiny) {
  SimConfig cfg;
  std::uint64_t salt = 0;
  if (workload == "pbft-n1024") {
    // Quadratic all-to-all traffic: about 3.9M events with on the order of
    // n^2 envelopes in flight, while each handler only counts votes. The
    // cost sits in the deep event heap and broadcast fan-out, so a queue
    // or transport change shows here and a certificate change should not.
    cfg = base_config("pbft", tiny ? 64 : 1024, 2);
    salt = 1;
  } else if (workload == "hotstuff-n4096") {
    // Linear traffic keeps the heap shallow (about 0.5M events), but every
    // proposal carries a QC with about 2.7k signers that each of the 4096
    // nodes checks: the cost is on_message certificate work and node
    // state, so a certificate change shows here and a queue change should
    // not.
    cfg = base_config("hotstuff-ns", tiny ? 64 : 4096, tiny ? 5 : 40);
    salt = 2;
  } else if (workload == "pbft-n2048-lanes2") {
    // The only workload on the windowed-parallel engine (sim/windowed.cpp):
    // lanes, window barriers and outbox merges, on bench_threads() lanes.
    // The engine's outcome does not depend on the lane count.
    cfg = base_config("pbft", tiny ? 128 : 2048, 1);
    cfg.engine.rng = bftsim::EngineConfig::RngMode::kPerNode;
    cfg.engine.intra_jobs = std::min(bench_threads(), bftsim::EngineConfig::kMaxIntraJobs);
    salt = 3;
  } else {
    throw std::invalid_argument("not a single-run workload: " + workload);
  }
  // Several seeds per invocation, because a run's cost and memory depend on
  // its seed: on pbft-n2048-lanes2, one run's peak RSS is about 285-345 MB
  // for most seeds and 385-470 MB for roughly one in four. Cycling through
  // six makes the measured figures properties of the configuration rather
  // than of one seed.
  std::vector<SimConfig> cfgs(tiny ? 2 : 6, cfg);
  for (std::size_t k = 0; k < cfgs.size(); ++k) {
    cfgs[k].seed = derive_seed(derive_seed(seed, salt), k);
  }
  return cfgs;
}

// paper-sweep: thousands of tiny (n = 16) runs, where per-run setup, the
// runner and the attacker / fault / WAN / workload hooks dominate instead
// of the queue depth and handler cost that the big single runs stress.
std::vector<SweepCell> paper_sweep_cells() {
  std::vector<SweepCell> cells;
  const std::vector<std::string> paper_protocols{
      "addv1", "addv2", "addv3", "algorand",
      "asyncba", "pbft", "hotstuff-ns", "librabft"};
  const auto measured = [](const std::string& protocol, const DelaySpec& delay) {
    return bftsim::experiment_config(protocol, 16, 1000.0, delay);
  };

  // Fig. 3: every paper protocol in four network environments.
  for (const std::string& p : paper_protocols) {
    for (const DelaySpec& d :
         {DelaySpec::normal(250, 50), DelaySpec::normal(500, 100),
          DelaySpec::normal(1000, 300), DelaySpec::normal(1000, 1000)}) {
      cells.push_back({"fig3/" + p + "/" + d.describe(), "paper", measured(p, d)});
    }
  }
  // Fig. 7: three of sixteen nodes fail-stopped, N(1000, 300). With four
  // or five, hotstuff-ns and librabft back off so far that some runs do
  // not decide within an hour of simulated time (the slow-down Fig. 7
  // shows), and a run that does not decide is a failed run here.
  for (const std::string& p : paper_protocols) {
    SimConfig cfg = measured(p, DelaySpec::normal(1000, 300));
    cfg.honest = 13;
    cells.push_back({"fig7/" + p + "/failstop3", "paper", cfg});
  }
  // Fig. 6: a two-subnet partition that resolves at 33 s.
  for (const std::string p : {"algorand", "asyncba", "pbft", "hotstuff-ns", "librabft"}) {
    SimConfig cfg = measured(p, DelaySpec::normal(250, 50));
    cfg.decisions = 1;
    cfg.attack = "partition";
    cfg.attack_params = bftsim::json::parse(
        R"({"resolve_ms": 33000, "mode": "drop", "subnets": 2})");
    cells.push_back({"fig6/" + std::string(p) + "/partition", "attack", cfg});
  }
  // Fig. 8: the ADD+ variants under the static and rushing-adaptive
  // attackers. Both attacks choose their variant from cfg.protocol.
  for (const std::string p : {"addv1", "addv2", "addv3"}) {
    for (const std::string attack : {"add-static", "add-adaptive"}) {
      SimConfig cfg = measured(p, DelaySpec::normal(250, 50));
      cfg.attack = attack;
      cells.push_back({"fig8/" + std::string(p) + "/" + attack, "attack", cfg, true});
    }
  }
  // Beyond the paper: crash/recover and link-flap faults.
  for (const std::string p : {"pbft", "hotstuff-ns"}) {
    SimConfig cfg = from_json_text(R"({
      "n": 16, "lambda_ms": 1000, "delay": {"kind": "normal", "a": 250, "b": 50},
      "faults": {
        "random_crashes": {"count": 3, "start_ms": 0, "end_ms": 5000,
                           "min_duration_ms": 500, "max_duration_ms": 2000},
        "random_link_flaps": {"count": 4, "start_ms": 0, "end_ms": 5000,
                              "min_duration_ms": 200, "max_duration_ms": 1500}}})");
    cfg.protocol = p;
    cfg.decisions = p == std::string("pbft") ? 3 : 10;
    cells.push_back({"fault/" + std::string(p) + "/crash-flap", "fault", cfg});
  }
  // Beyond the paper: an eight-region WAN with gossip dissemination.
  cells.push_back({"wan/pbft/geo8-gossip", "wan", from_json_text(R"({
      "protocol": "pbft", "n": 16, "lambda_ms": 1000, "decisions": 3,
      "delay": {"kind": "normal", "a": 250, "b": 50},
      "net": {"backend": "gossip", "fanout": 3, "rtt": {"matrix": "geo8"},
              "uplink_mbps": 200, "downlink_mbps": 200}})")});
  // Beyond the paper: open-loop and closed-loop client workloads.
  cells.push_back({"workload/pbft/open-poisson", "workload", from_json_text(R"({
      "protocol": "pbft", "n": 16, "lambda_ms": 1000, "decisions": 10,
      "delay": {"kind": "normal", "a": 250, "b": 50},
      "workload": {"mode": "open", "arrival": "poisson", "rate_rps": 300,
                   "max_batch": 16}})")});
  cells.push_back({"workload/hotstuff-ns/closed", "workload", from_json_text(R"({
      "protocol": "hotstuff-ns", "n": 16, "lambda_ms": 1000, "decisions": 10,
      "delay": {"kind": "normal", "a": 250, "b": 50},
      "workload": {"mode": "closed", "clients": 500, "window": 2,
                   "think_ms": 100, "max_batch": 32}})")});
  return cells;
}

std::size_t sweep_seeds_per_cell(bool tiny) { return tiny ? 2 : 50; }

std::vector<SweepRun> paper_sweep_runs(const std::vector<SweepCell>& cells,
                                       std::uint64_t seed, bool tiny) {
  const std::size_t seeds = sweep_seeds_per_cell(tiny);
  std::vector<SweepRun> runs;
  runs.reserve(cells.size() * seeds);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const std::uint64_t cell_seed = derive_seed(seed, 1000 + c);
    for (std::size_t i = 0; i < seeds; ++i) {
      SweepRun run{c, cells[c].cfg};
      run.cfg.seed = derive_seed(cell_seed, i);
      runs.push_back(std::move(run));
    }
  }
  return runs;
}

}  // namespace perfbench
