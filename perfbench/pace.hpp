// The host's current pace, gauged with fixed reference work that runs no
// bftsim code. On a shared host a core's speed drifts by tens of percent
// over minutes (other tenants on the same cores and caches, turbo
// frequency), and CPU time drifts with it. A timing scaled by the
// reference's own time, measured just before it, cancels that drift,
// while a change to the simulator still moves it in full: the reference
// does not run the simulator's code.
#pragma once

namespace perfbench {

/// CPU seconds one pass of each part of the reference work took on the
/// benchmark's defining host (a 4-vCPU Xeon VM, at rest). Scaled timings
/// read as seconds at that pace.
inline constexpr double kHoldNominalS = 0.0045;
inline constexpr double kGatherNominalS = 0.010;

/// Times the reference work on the calling thread and returns the factor
/// that scales a CPU time measured now to the nominal pace: the geometric
/// mean over the two parts of nominal / measured (each the median of five
/// back-to-back passes).
[[nodiscard]] double pace_factor();

/// CPU seconds the calling thread has used.
[[nodiscard]] double thread_cpu_s();

/// CPU seconds the whole process has used, over all its threads.
[[nodiscard]] double process_cpu_s();

}  // namespace perfbench
