// Outside-in layer tracing: a decorator protocol registered through the
// public ProtocolRegistry. "traced:<name>" builds the real <name> node and
// wraps it, handing it a forwarding Context, so the time a node spends in
// its own handler code can be told apart from the time it spends inside
// the simulator (send/broadcast fan-out, timers, workload hooks) without
// any instrumentation inside the program.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace perfbench {

/// Per-node accumulators. Each node owns one, so windowed-parallel lanes
/// (which execute disjoint node sets) never share a counter.
struct NodeCounters {
  std::uint64_t start_ns = 0;      ///< on_start, inclusive
  std::uint64_t msg_calls = 0;
  std::uint64_t msg_incl_ns = 0;   ///< on_message, inclusive
  std::uint64_t msg_self_ns = 0;   ///< on_message minus its Context calls
  std::uint64_t timer_calls = 0;
  std::uint64_t timer_incl_ns = 0;
  std::uint64_t timer_self_ns = 0;
  std::uint64_t send_calls = 0;    ///< send + broadcast calls
  std::uint64_t send_copies = 0;   ///< network copies those calls asked for
  std::uint64_t send_ns = 0;
  std::uint64_t set_timer_calls = 0;
  std::uint64_t set_timer_ns = 0;
  std::uint64_t ctx_ns = 0;        ///< every timed Context call

  void add(const NodeCounters& o) noexcept;
  [[nodiscard]] std::uint64_t handler_ns() const noexcept {
    return start_ns + msg_incl_ns + timer_incl_ns;
  }
};

/// Totals over every traced node destroyed since the last reset(), plus
/// handler time per windowed lane (node i runs on lane i % lanes, the
/// partition docs/PARALLELISM.md describes).
struct TraceTotals {
  NodeCounters sum;
  std::vector<std::uint64_t> lane_handler_ns;
};

/// Collects node counters when traced nodes are destroyed (at Controller
/// teardown). Thread-safe, so concurrent sweep runs may share it.
class TraceCollector {
 public:
  void reset(std::uint32_t lanes);
  void absorb(bftsim::NodeId id, const NodeCounters& c);
  [[nodiscard]] TraceTotals take();

 private:
  std::mutex mu_;
  TraceTotals totals_;  // guarded by mu_
};

[[nodiscard]] TraceCollector& collector();

/// Registers "traced:<name>" for every protocol registered so far. Call
/// once, before any run starts: the registry is not safe to extend while
/// runs read it.
void register_traced_protocols();

[[nodiscard]] std::string traced_name(const std::string& protocol);

}  // namespace perfbench
