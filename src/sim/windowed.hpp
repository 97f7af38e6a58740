// Deterministic windowed-parallel execution of a single run.
//
// The serial controller processes one global event queue. This driver
// partitions the nodes across `engine.intra_jobs` lanes (node id mod lane
// count), gives each lane its own event heap, arena and envelope store, and
// executes bounded time windows [W0, W1) concurrently — a conservative
// parallel discrete-event scheme in the Chandy–Misra tradition, with the
// lookahead derived from the network model's minimum delay:
//
//   every cross-node message generated at time g is delivered at or after
//   g + lookahead, and W1 - W0 <= lookahead, so an event generated during
//   a window for *another* lane always lands at or after W1 — the next
//   barrier publishes it before any lane advances past W1. Within a lane,
//   execution is plain sequential DES over a set of events that is fully
//   known at the window start.
//
// Determinism across lane counts: every scheduled artifact carries an
// explicit ordering key ((origin node + 1) << 40 | per-origin counter)
// instead of the serial queue's global insertion sequence. A node's own
// event subsequence — and therefore its state trajectory, its RNG draws
// and the keys it assigns — depends only on that node's inbound events,
// which are identical for every partitioning. Run products (trace records,
// decisions, view records) are buffered per lane and merged at each
// barrier in (time, key) order, so RunResult is bit-identical for every
// intra_jobs value, 1 included.
//
// The one semantic divergence from the serial engine is gated behind this
// mode: network-delay sampling and fault-corruption coins draw from
// per-sending-node RNG forks instead of one shared stream (a shared stream
// would make draw order depend on the interleaving). Windowed runs
// therefore have their own goldens; `engine.intra_jobs = 1` with
// `engine.rng = "per_node"` is the serial baseline those goldens pin.
// The engine runs the shared transport pipeline (sim/transport.hpp)
// through its LanePort. Stages with no lane-invariant form are excluded:
// attacks and closed-loop workloads fall back to the serial engine with an
// engine-serial-fallback warning (Controller::run); gossip relay,
// bandwidth queues and the run timeline are rejected by SimConfig::validate;
// subclass delivery hooks are rejected by Controller::run. See
// docs/PARALLELISM.md for the full argument.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "core/arena.hpp"
#include "core/config.hpp"
#include "core/dary_heap.hpp"
#include "core/event.hpp"
#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "core/trace.hpp"
#include "core/types.hpp"
#include "net/envelope.hpp"
#include "net/message.hpp"
#include "obs/profile.hpp"
#include "sim/controller.hpp"
#include "sim/result.hpp"

namespace bftsim {

/// The largest safe window width for `cfg`, in Time units: the infimum of
/// the network-delay distribution (after clamping and the topology's
/// cross-region transformation), minus the maximum configured clock skew
/// as a conservative safety margin. Zero means no parallel window exists
/// (e.g. a constant-0 delay model) and the driver self-degrades to one
/// lane. Free function so the window math is unit-testable in isolation.
[[nodiscard]] Time compute_lookahead(const SimConfig& cfg) noexcept;

/// The lane count a windowed run actually uses: intra_jobs clamped to the
/// node count, forced to 1 when no safe lookahead exists.
[[nodiscard]] std::uint32_t effective_lanes(const SimConfig& cfg) noexcept;

/// Drives one windowed-parallel run over a Controller's state. Constructed
/// by Controller::run() when the engine config selects per-node RNG mode;
/// lives until the controller is destroyed (its lane stores anchor payload
/// references).
class WindowedEngine {
 public:
  explicit WindowedEngine(Controller& c);
  WindowedEngine(const WindowedEngine&) = delete;
  WindowedEngine& operator=(const WindowedEngine&) = delete;
  ~WindowedEngine();

  /// Runs the simulation to termination; call at most once.
  [[nodiscard]] RunResult run();

 private:
  /// The lane-side port onto the transport pipeline (see windowed.cpp).
  struct LanePort;

  // Ordering keys: (origin + 1) << 40 | per-origin counter. Origin slot 0
  // is reserved (nothing queues under it today; global artifacts would
  // sort first at ties). The counter doubles as the message/timer id
  // space, so ids stay unique and per-origin monotone.
  static constexpr unsigned kOriginShift = 40;
  static constexpr std::uint64_t kCtrMask = (std::uint64_t{1} << kOriginShift) - 1;
  // Envelope handles pack the owning lane into the high bits; a lane's
  // slab indexes stay below 1 << 24 by EnvelopeStore's capacity cap.
  static constexpr unsigned kLaneShift = 24;
  static constexpr std::uint32_t kEnvMask = (1u << kLaneShift) - 1;

  /// A run product buffered during a window and merged at the barrier in
  /// (at, key) order. Keys repeat only within one dispatch of one node, so
  /// a stable sort reproduces the in-dispatch emission order.
  struct TraceProduct {
    Time at = 0;
    std::uint64_t key = 0;
    TraceRecord rec;
  };
  struct DecisionProduct {
    Time at = 0;
    std::uint64_t key = 0;
    NodeId node = kNoNode;
    std::uint64_t height = 0;
    Value value = 0;
  };
  struct ViewProduct {
    Time at = 0;
    std::uint64_t key = 0;
    NodeId node = kNoNode;
    View view = 0;
  };

  /// Everything one lane touches while a window executes. Shared state a
  /// lane may read concurrently (fault flags, config, published envelopes)
  /// is frozen between barriers; everything it writes lives here or in
  /// per-node slots owned by the lane (RNGs, counters, cpu_free, ledgers).
  struct Lane {
    DaryHeap<Event, 4, EventEarlier> heap;
    EnvelopeStore store;
    Time now = 0;
    std::uint64_t cur_key = 0;       ///< key of the event being dispatched
    std::uint64_t window_events = 0;  ///< events processed this window
    Metrics delta;                    ///< counter deltas, absorbed at barrier
    std::vector<TraceProduct> trace;
    std::vector<DecisionProduct> decisions;
    std::vector<ViewProduct> views;
    /// Cross-lane envelopes this lane fully released; the barrier returns
    /// them to their owner's free list.
    std::vector<std::uint32_t> retired;
    /// Cost-model: deliveries whose verify cost this lane already charged.
    std::unordered_set<std::uint64_t> cpu_charged;
    /// Cross-lane sends buffered until the barrier, indexed by dest lane.
    std::vector<std::vector<Event>> outbox;
    obs::ProfileBreakdown profile;  ///< merged into the run's at the end
  };

  [[nodiscard]] std::uint32_t lane_index(NodeId node) const noexcept {
    return node % lanes_n_;
  }
  [[nodiscard]] std::uint64_t draw_key(NodeId origin) noexcept {
    return ((static_cast<std::uint64_t>(origin) + 1) << kOriginShift) |
           wctr_[origin]++;
  }
  void dispatch(LanePort& port, Event& ev);
  void run_window(std::uint32_t lane_id, Time w1, std::uint64_t event_cap);
  /// Applies fault transitions scheduled exactly at `w0`; returns false
  /// when the event budget was exhausted mid-application.
  [[nodiscard]] bool apply_faults_at(Time w0);
  /// Drains outboxes/retire lists and merges window products into the
  /// controller's metrics/sink; returns false when the event budget is
  /// exhausted. Sets stopped_/termination on the completing decision.
  [[nodiscard]] bool merge_window();
  /// Moves every lane's buffered products into one (at, key)-ordered list.
  template <class Product>
  [[nodiscard]] std::vector<Product> drain(std::vector<Product> Lane::*buffer);

  Controller& c_;
  std::uint32_t lanes_n_ = 1;
  Time lookahead_ = 0;
  std::vector<std::unique_ptr<Lane>> lanes_;
  /// The nodes' contexts under this engine (the serial ones stay unused).
  std::vector<Controller::NodeCtx<LanePort>> ctxs_;
  std::vector<Rng> net_rngs_;                   ///< per sending node
  std::vector<std::uint64_t> wctr_;             ///< per-origin key counters
  /// Per-node timer ledgers indexed by the timer key's counter bits
  /// (idle/pending/cancelled, same lazy-deletion scheme as EventQueue).
  std::vector<std::vector<std::uint8_t>> tstate_;
  std::size_t fault_cursor_ = 0;     ///< next unapplied fault-timeline index
  std::size_t fault_count_ = 0;      ///< timeline entries within the horizon
  std::uint64_t honest_total_ = 0;   ///< live honest nodes (fixed: no attacker)
  std::uint64_t nodes_done_ = 0;     ///< honest nodes at the decision target
  std::unique_ptr<ThreadPool> pool_;  ///< non-null only when lanes_n_ > 1
  bool ran_ = false;
};

}  // namespace bftsim
