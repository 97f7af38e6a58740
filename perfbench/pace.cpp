#include "pace.hpp"

#include <time.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {
namespace {

double cpu_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = state += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Reference work, part one: the hold model of a discrete-event queue (pop
/// the earliest key, push it back later by a random step) on a binary heap
/// of 2^20 keys, 8 MB, with a short hash chain per event standing in for a
/// handler. It branches and touches memory the way an event loop does.
/// Every pass starts from the same heap and random stream, so every pass
/// does the same work.
class HoldModel {
 public:
  HoldModel() : start_(std::size_t{1} << 20) {
    std::uint64_t rng = kSeed;
    for (std::uint64_t& k : start_) k = splitmix(rng) >> 24;
    std::make_heap(start_.begin(), start_.end(), std::greater<>());
    heap_ = start_;
  }

  std::uint64_t pass() {
    heap_ = start_;
    rng_ = kSeed;
    std::uint64_t sink = 0;
    for (int i = 0; i < 40000; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      std::uint64_t h = heap_.back();
      for (int r = 0; r < 16; ++r) h = splitmix(h);
      sink ^= h;
      heap_.back() += 1 + (splitmix(rng_) >> 44);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
    return sink;
  }

 private:
  static constexpr std::uint64_t kSeed = 0x5eed;
  std::vector<std::uint64_t> start_;
  std::vector<std::uint64_t> heap_;
  std::uint64_t rng_ = kSeed;
};

/// Reference work, part two: random read-modify-writes over 128 MB, which
/// miss every private cache the way the big workloads' per-node state and
/// in-flight messages do.
class Gather {
 public:
  Gather() : cells_(std::size_t{1} << 25) {}

  std::uint64_t pass() {
    std::uint64_t sink = 0;
    const std::size_t mask = cells_.size() - 1;
    for (int i = 0; i < 1000000; ++i) sink += cells_[splitmix(rng_) & mask]++;
    return sink;
  }

 private:
  std::uint64_t rng_ = 0x9a7e;
  std::vector<std::uint32_t> cells_;
};

/// Median CPU seconds of five back-to-back passes of `work`.
template <typename Work>
double median_pass_s(Work& work) {
  std::array<double, 5> s{};
  for (double& out : s) {
    const double t0 = thread_cpu_s();
    const std::uint64_t sink = work.pass();
    out = thread_cpu_s() - t0;
    // Keeps the pass's result observable, so the work cannot be dropped.
    asm volatile("" : : "r"(sink) : "memory");
  }
  std::sort(s.begin(), s.end());
  return s[s.size() / 2];
}

}  // namespace

double thread_cpu_s() { return cpu_s(CLOCK_THREAD_CPUTIME_ID); }

double process_cpu_s() { return cpu_s(CLOCK_PROCESS_CPUTIME_ID); }

double pace_factor() {
  static HoldModel hold;
  static Gather gather;
  return std::sqrt(kHoldNominalS / median_pass_s(hold) *
                   (kGatherNominalS / median_pass_s(gather)));
}

}  // namespace perfbench
