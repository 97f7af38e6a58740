// The controller (§III-A1): owns the event queue, the simulation clock, the
// consensus module (the n node instances), the network module and the
// attacker module; dispatches events; collects metrics; and decides when
// the run terminates.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "attacker/attacker.hpp"
#include "core/arena.hpp"
#include "core/config.hpp"
#include "core/event_queue.hpp"
#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "core/trace.hpp"
#include "crypto/signature.hpp"
#include "crypto/vrf.hpp"
#include "net/delay_model.hpp"
#include "net/envelope.hpp"
#include "net/topology.hpp"
#include "net/wan/wan_model.hpp"
#include "obs/profile.hpp"
#include "obs/timeline.hpp"
#include "obs/trace_sink.hpp"
#include "protocols/node.hpp"
#include "sim/result.hpp"

namespace bftsim {

class FaultInjector;
class WindowedEngine;
class WorkloadManager;

/// Drives one simulation run. Construct with a validated SimConfig, call
/// run() once. The packet-level baseline simulator subclasses this and
/// overrides the network-delivery hook (see src/baseline/).
class Controller {
 public:
  explicit Controller(SimConfig cfg);
  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;
  virtual ~Controller();

  /// Runs the simulation to termination / horizon; call at most once.
  RunResult run();

  [[nodiscard]] const SimConfig& config() const noexcept { return cfg_; }

 protected:
  /// Network-delivery hook: schedules the delivery event for a message that
  /// passed the attacker with final `delay`. The default implementation
  /// models message-level delivery (one event). The baseline simulator
  /// overrides this with per-packet, per-hop event cascades. A subclass
  /// that overrides it must set custom_delivery_hook_ = true in its
  /// constructor: that routes every transmission through the hook as a
  /// materialized Message instead of the envelope fast path (and excludes
  /// the subclass from windowed-parallel execution).
  virtual void schedule_network_delivery(Message msg, Time delay);

  /// Set by subclasses that override schedule_network_delivery (see above).
  bool custom_delivery_hook_ = false;

  /// Schedules delivery of a fully-formed message at absolute time `at`
  /// (clamped to now). For subclasses that bypass delay sampling entirely
  /// (e.g. the trace-replay validator).
  void schedule_message_at(Message msg, Time at);

  /// Hook for subclass-defined system events (e.g. baseline packet hops).
  virtual void on_system_event(std::uint64_t /*tag*/) {}

  /// Schedules a system event (owner kSystem) at absolute time `at`.
  void schedule_system_event(Time at, std::uint64_t tag);

  [[nodiscard]] Time now() const noexcept { return now_; }
  [[nodiscard]] Metrics& metrics() noexcept { return metrics_; }
  [[nodiscard]] EventQueue& queue() noexcept { return queue_; }
  [[nodiscard]] Rng& net_rng() noexcept { return net_rng_; }

  /// Final-delivery step shared with subclasses: counts, traces and hands
  /// the message to its destination node (if live and honest).
  void deliver_now(const Message& msg);

 private:
  template <class Port>
  class NodeCtx;
  class AtkCtx;
  struct Outgoing;
  struct SerialPort;

  // --- transport pipeline (sim/transport.hpp) --------------------------------
  // One staged path for every engine; `Port` is the engine's queue, clock,
  // id counters and RNG streams (Controller::SerialPort for this engine).
  template <class Port>
  void send(Port port, NodeId src, NodeId dst, PayloadPtr payload);
  template <class Port>
  void broadcast(Port port, NodeId src, PayloadPtr payload, bool include_self);
  /// The per-copy transmit stage: one copy of `out` crossing the link
  /// `from` -> `dst`. Inlined into every fan-out loop.
  template <class Port>
  [[gnu::always_inline]] inline void transmit(Port& port, Outgoing& out,
                                              NodeId from, NodeId dst);
  /// A copy past the corruption and bandwidth stages.
  struct Wired {
    PayloadPtr corrupted;  ///< the fault layer's wrapper, or null
    Time at;               ///< arrival time at the destination
  };
  /// The transmit stages behind the attacker, before the envelope:
  /// corruption, then bandwidth on the link `from` -> `dst`. The copy
  /// enters the uplink at `entry` and needs `prop` more to arrive.
  template <class Port>
  [[gnu::always_inline]] inline Wired wire(Port& port, const Outgoing& out,
                                           const PayloadPtr& payload,
                                           NodeId from, NodeId dst,
                                           Time entry, Time prop);
  template <class Port>
  void deliver_self(Port& port, NodeId id, PayloadPtr payload);
  template <class Port>
  void deliver(Port& port, const Message& msg);
  template <class Port>
  TimerId set_timer(Port port, TimerOwner owner, NodeId node, Time delay,
                    std::uint64_t tag);
  template <class Port>
  void fire_timer(Port& port, const TimerFire& fire);
  /// The attacker stage (serial engine), then wire() for the copy it lets
  /// through, ending in schedule_network_delivery.
  void intercept(const Outgoing& out, Message msg, Time delay);
  /// The gossip deliver stage: duplicate suppression and relay fan-out.
  /// Returns whether the copy continues to the deliver stage.
  bool gossip_accept(const Message& msg, std::uint64_t gid);
  void inject_message(Message msg, Time delay);

  /// Charges `cost` of CPU time to `node` at `now` (computation-cost
  /// model). Returns when the node's CPU becomes free again.
  Time charge_cpu(NodeId node, Time cost, Time now);

  // --- reporting --------------------------------------------------------------
  bool corrupt(NodeId node);
  void check_termination();

  // --- run loop ---------------------------------------------------------------
  void dispatch(Event& ev);
  /// Assembles the RunResult from the run's final state; shared by the
  /// serial loop and the windowed-parallel driver.
  RunResult make_result(TerminationReason reason);
  /// Snapshots engine state into the timeline (timeline_ must be set).
  void sample_timeline(bool final_sample);
  [[nodiscard]] bool is_live(NodeId id) const noexcept;
  [[nodiscard]] bool is_honest(NodeId id) const noexcept;
  /// AtkCtx erased to its base (it is complete only in controller.cpp).
  [[nodiscard]] AttackerContext& attacker_ctx() noexcept;
  [[nodiscard]] bool is_corrupt(NodeId id) const noexcept {
    return id < corrupt_flags_.size() && corrupt_flags_[id] != 0;
  }

  SimConfig cfg_;
  /// Run-scoped arena backing payload allocations. Declared before every
  /// member that can hold a PayloadPtr (queue_, nodes_, attacker_, faults_,
  /// metrics sinks) so that it is destroyed after all of them — arena-backed
  /// payloads must outlive their last shared_ptr.
  Arena arena_;
  /// Windowed-parallel runs give each lane its own arena (Arena is
  /// single-threaded by design). Owned here rather than by the engine so
  /// the destruction-order guarantee above extends to lane-allocated
  /// payloads; empty for serial runs.
  std::vector<std::unique_ptr<Arena>> lane_arenas_;
  /// In-flight transmission state; delivery events carry 8-byte handles
  /// into this store (see net/envelope.hpp). Declared after the arenas
  /// (payload pointers release before any arena dies) and before the queue.
  EnvelopeStore env_store_;
  std::uint32_t f_ = 0;       ///< protocol fault threshold (= attacker budget)
  Time lambda_ = 0;           ///< cfg.lambda_ms in Time units
  Time horizon_ = 0;          ///< cfg.max_time_ms in Time units

  EventQueue queue_;
  Time now_ = 0;
  bool stopped_ = false;
  Time termination_time_ = kNoTime;

  Rng run_rng_;   ///< master stream (seeds everything else)
  Rng net_rng_;   ///< network delay sampling
  Rng atk_rng_;   ///< attacker randomness
  Vrf vrf_;
  Signer signer_;
  DelaySampler delay_sampler_;
  TopologySpec topology_;

  std::vector<std::unique_ptr<Node>> nodes_;  ///< nullptr => fail-stopped
  /// Parallel to nodes_. Stored flat (struct-of-arrays style) rather than
  /// as n separate heap allocations: NodeCtx is small and trivially
  /// relocatable, and at n=4096 the flat layout saves 4096 mallocs and
  /// keeps the contexts on a handful of cache lines. NodeCtx is an
  /// incomplete type here; the ctor/dtor instantiating the vector's
  /// members live in controller.cpp.
  std::vector<NodeCtx<SerialPort>> ctxs_;
  std::vector<Rng> node_rngs_;
  std::unique_ptr<Attacker> attacker_;
  std::unique_ptr<AtkCtx> atk_ctx_;
  /// Cached attacker_->is_passive(): with a passive attacker (and the
  /// default delivery hook) sends take the envelope fast path and never
  /// materialize a MessageInFlight.
  bool attacker_passive_ = false;
  /// Every copy passes the attacker stage: an active attacker or a
  /// subclass delivery hook. Fixed when run() starts.
  bool attack_stage_ = false;
  /// Fault-injection state; nullptr unless cfg.faults is enabled, so the
  /// fault hooks cost one null check on fault-free runs.
  std::unique_ptr<FaultInjector> faults_;

  /// WAN transport backend; nullptr unless cfg.net is enabled, so the
  /// classic network path costs one null check per send.
  std::unique_ptr<WanModel> wan_;
  /// Client workload generator; nullptr unless cfg.workload is enabled, so
  /// workload-free proposals cost one null check in next_proposal.
  std::unique_ptr<WorkloadManager> workload_;
  /// Per-node sets of gossip ids already accepted (duplicate suppression);
  /// sized only under the gossip backend.
  std::vector<std::unordered_set<std::uint64_t>> gossip_seen_;
  std::uint64_t next_gossip_id_ = 1;

  // Computation-cost model state: per-node CPU availability and the set of
  // deliveries whose verification cost has already been paid.
  Time verify_cost_ = 0;
  Time sign_cost_ = 0;
  bool cost_model_on_ = false;
  std::vector<Time> cpu_free_;
  std::unordered_set<std::uint64_t> cpu_charged_;

  std::vector<NodeId> failstopped_;
  std::vector<std::uint8_t> corrupt_flags_;  ///< indexed by NodeId; hot-path check
  std::vector<NodeId> corrupted_order_;
  std::vector<std::uint32_t> decided_count_;

  Metrics metrics_;
  Trace trace_;
  /// Trace destination; nullptr unless tracing is on (record_trace or a
  /// streaming obs sink), so every emission site costs one null check —
  /// exactly what the `record_trace` flag used to cost.
  std::unique_ptr<obs::TraceSink> trace_sink_;
  /// Timeline collector; nullptr unless obs.timeline_tick_ms > 0. Sampled
  /// inline from the run loop — never schedules events or consumes RNG.
  std::unique_ptr<obs::Timeline> timeline_;
  std::vector<View> current_view_;  ///< per-node view, timeline runs only
  obs::ProfileBreakdown profile_;   ///< populated only under BFTSIM_PROFILING
  std::uint64_t next_msg_id_ = 1;
  std::uint64_t next_timer_id_ = 1;
  bool ran_ = false;
  /// Non-fatal configuration deviations surfaced on the RunResult (e.g.
  /// the serial fallback for attack-carrying windowed configs).
  std::vector<RunWarning> warnings_;

  /// Windowed-parallel driver (sim/windowed.cpp); non-null only while a
  /// windowed run executes. Declared last so it is destroyed first — its
  /// lane queues and envelope stores hold payload pointers that must
  /// release before lane_arenas_/arena_ die. The engine needs the same
  /// deep access to the run state as the member functions above.
  friend class WindowedEngine;
  std::unique_ptr<WindowedEngine> win_;
};

}  // namespace bftsim
