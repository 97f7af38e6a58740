// Layer replays: time one public library call in a loop, on inputs shaped
// by what the traced run of the workload observed (its peak queue depth,
// its n and quorum, its delay distribution).
#pragma once

#include <cstdint>

#include "core/config.hpp"

namespace perfbench {

/// EventQueue push+pop pairs at a steady depth of `depth` events whose
/// timestamps advance by draws from `delay`; ns per pair (median of 3).
[[nodiscard]] double queue_ns_per_op(std::uint64_t depth,
                                     const bftsim::DelaySpec& delay);

/// DelaySampler::sample on `delay`; ns per draw (median of 3).
[[nodiscard]] double delay_sample_ns(const bftsim::DelaySpec& delay);

/// QuorumCert::valid / QuorumCert::digest with `quorum` sorted signers;
/// ns per call (median of 3).
struct QcTimes {
  double valid_ns = 0.0;
  double digest_ns = 0.0;
};
[[nodiscard]] QcTimes qc_times(std::uint32_t quorum);

}  // namespace perfbench
