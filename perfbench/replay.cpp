#include "replay.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <vector>

#include "core/event_queue.hpp"
#include "core/rng.hpp"
#include "crypto/certificate.hpp"
#include "net/delay_model.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Keeps `value` (and whatever it points to) observable, so the compiler
/// cannot hoist a pure call out of the timing loop or drop it.
template <typename T>
inline void keep(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

template <typename Fn>
double median_of_3_ns(std::uint64_t ops, Fn&& body) {
  std::array<double, 3> ns{};
  for (double& out : ns) {
    const auto t0 = Clock::now();
    body();
    out = std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
          static_cast<double>(ops);
  }
  std::sort(ns.begin(), ns.end());
  return ns[1];
}

}  // namespace

double queue_ns_per_op(std::uint64_t depth, const bftsim::DelaySpec& delay) {
  depth = std::max<std::uint64_t>(depth, 1);
  const bftsim::DelaySampler sampler(delay);
  bftsim::Rng rng(0x71756575);  // "queue"
  bftsim::EventQueue queue;
  queue.reserve(depth);
  for (std::uint64_t i = 0; i < depth; ++i) {
    queue.push(sampler.sample(rng),
               bftsim::MessageDelivery{static_cast<std::uint32_t>(i), 0});
  }
  // Each op pops the earliest event and schedules its successor one delay
  // later, as a delivery that triggers a send does.
  const std::uint64_t ops = 1u << 19;
  return median_of_3_ns(ops, [&] {
    for (std::uint64_t i = 0; i < ops; ++i) {
      bftsim::Event ev = queue.pop();
      queue.push(ev.at + sampler.sample(rng), std::move(ev.body));
    }
    keep(queue);
  });
}

double delay_sample_ns(const bftsim::DelaySpec& delay) {
  const bftsim::DelaySampler sampler(delay);
  bftsim::Rng rng(0x64656c61);  // "dela"
  const std::uint64_t ops = 1u << 22;
  return median_of_3_ns(ops, [&] {
    bftsim::Time sum = 0;
    for (std::uint64_t i = 0; i < ops; ++i) sum += sampler.sample(rng);
    keep(sum);
  });
}

QcTimes qc_times(std::uint32_t quorum) {
  bftsim::QuorumCert qc;
  qc.view = 7;
  qc.block = 0x626c6f636bULL;
  qc.signers.resize(quorum);
  for (std::uint32_t i = 0; i < quorum; ++i) qc.signers[i] = i;
  // About 2^24 signer visits per timed batch, whatever the quorum.
  const std::uint64_t ops = std::max<std::uint64_t>(64, (1u << 24) / (quorum + 1));
  QcTimes t;
  t.valid_ns = median_of_3_ns(ops, [&] {
    for (std::uint64_t i = 0; i < ops; ++i) {
      keep(qc);
      const bool ok = qc.valid(quorum);
      keep(ok);
    }
  });
  t.digest_ns = median_of_3_ns(ops, [&] {
    for (std::uint64_t i = 0; i < ops; ++i) {
      keep(qc);
      const std::uint64_t d = qc.digest();
      keep(d);
    }
  });
  return t;
}

}  // namespace perfbench
