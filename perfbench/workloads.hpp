// The benchmark's workloads: which simulator configurations it runs, and
// how every configuration seed is derived from the one workload seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"

namespace perfbench {

/// Workload names, in BENCHMARK.json order.
inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "pbft-n1024", "hotstuff-n4096", "pbft-n2048-lanes2", "paper-sweep"};
  return names;
}

/// Mixes `salt` into `seed` (splitmix64 finaliser), so distinct workloads
/// and sweep cells draw unrelated simulator seeds from one workload seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// The CPUs this process may run on (what `nproc` prints).
[[nodiscard]] std::uint32_t usable_cpus();

/// Threads a workload runs on at once: windowed lanes on
/// pbft-n2048-lanes2, sweep workers on paper-sweep. Two, or one on a
/// single CPU: fewer than a small shared host's CPUs, so that the
/// benchmark's own threads do not queue for cores behind each other and
/// behind the rest of the system.
[[nodiscard]] std::uint32_t bench_threads();

/// The configurations of a single-run workload: one configuration under
/// several derived seeds, which the benchmark cycles through. `tiny`
/// shrinks it for the self-test. Throws std::invalid_argument on an
/// unknown name.
[[nodiscard]] std::vector<bftsim::SimConfig> single_run_configs(
    const std::string& workload, std::uint64_t seed, bool tiny);

/// One cell of paper-sweep: a configuration run with `seeds` derived seeds.
struct SweepCell {
  std::string label;     ///< e.g. "fig3/pbft/N(250,50)"
  std::string category;  ///< paper | attack | fault | wan | workload
  bftsim::SimConfig cfg;
  /// The run's behaviour depends on cfg.protocol's spelling (the ADD+
  /// attacks pick their variant by protocol name), so the run cannot be
  /// traced under the decorator's "traced:" name.
  bool name_dependent = false;
};

[[nodiscard]] std::vector<SweepCell> paper_sweep_cells();

/// Seeds per paper-sweep cell.
[[nodiscard]] std::size_t sweep_seeds_per_cell(bool tiny);

/// The concrete runs of paper-sweep: cell-major, seed-minor.
struct SweepRun {
  std::size_t cell = 0;
  bftsim::SimConfig cfg;  ///< seed already derived
};

[[nodiscard]] std::vector<SweepRun> paper_sweep_runs(
    const std::vector<SweepCell>& cells, std::uint64_t seed, bool tiny);

}  // namespace perfbench
