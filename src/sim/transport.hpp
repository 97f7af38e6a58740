// The transport pipeline: the network module of §III-A1, written once for
// every engine. One copy of a payload on its way to one destination
// passes the transmit stage
//
//   metrics -> Send trace -> delay draw (+ topology or WAN base)
//     -> link-down drop -> attacker (serial engine; an active attacker or
//        a subclass delivery hook)
//     -> corruption -> bandwidth (serial engine only)     [wire()]
//     -> envelope (solo, or the shared fan-out envelope) -> schedule
//
// A copy the attacker lets through is a materialized Message: it takes
// the same wire() and leaves through schedule_network_delivery, which
// builds its solo envelope (and which subclasses may override).
//
// a popped delivery passes the deliver stage (crash drop, cost-model
// deferral, Deliver trace, handler), and a popped timer passes the
// timer-fire stage. Each stage is a Controller member template over a
// Port, the engine's handle on the clock, id counters, RNG streams,
// metrics, trace and queue:
//
//   Controller::SerialPort      the one global queue (sim/controller.cpp)
//   WindowedEngine::LanePort    one lane of the windowed engine
//                               (sim/windowed.cpp)
//
// The port is a compile-time parameter, so a copy costs no virtual call,
// and the stages only the serial engine runs (attacker, gossip,
// bandwidth) are `if constexpr (Port::kSerial)` branches. A port provides:
//
//   kSerial, c                            serial or lane; the Controller
//   now()                                 the executing clock
//   next_id(origin), next_timer_id(node)  message and timer ids (windowed:
//                                         the origin's ordering keys)
//   metrics(), trace(rec), profile()      run products
//   net_rng(src), corrupt_coin(src), arena()
//   make_env(...), add_pending(env), schedule(at, key, env, dst)
//   redeliver(msg, at)                    cost-model deferral
//   cpu_charged()                         deliveries whose cost is paid
//   push_timer(at, fire), consume_cancellation(fire), cancel_timer(id)
//   report_decision(node, v), record_view(node, v), ctx(node)
//
// Internal to src/sim/: included by controller.cpp and windowed.cpp.
#pragma once

#include <algorithm>
#include <utility>

#include "faults/fault_injector.hpp"
#include "sim/controller.hpp"
#include "workload/workload_manager.hpp"

namespace bftsim {

/// The trace record of a materialized message.
[[nodiscard]] inline TraceRecord message_record(TraceKind kind, Time at,
                                                const Message& msg) {
  return TraceRecord{kind, at, msg.src, msg.dst, msg.payload->type_id(),
                     msg.payload->digest(), msg.id, 0, 0};
}

/// Wraps one copy's payload in a fault-corrupted envelope.
template <class Port>
[[nodiscard]] PayloadPtr corrupt_payload(Port& port, PayloadPtr payload) {
  port.metrics().on_corrupt();
  return std::allocate_shared<CorruptedPayload>(
      ArenaAllocator<CorruptedPayload>(&port.arena()), std::move(payload));
}

/// One payload on its way out: what every copy shares, hoisted out of the
/// per-copy stage, plus the lazily created shared fan-out envelope.
struct Controller::Outgoing {
  static constexpr std::uint32_t kNoEnvelope = 0xffffffffu;

  Outgoing(const PayloadPtr& p, NodeId source, Time cpu_extra, bool traced)
      : payload(p),
        src(source),
        extra(cpu_extra),
        wire(p->wire_size()),
        type(p->type_id()),
        digest(traced ? p->digest() : 0) {}

  [[nodiscard]] TraceRecord record(TraceKind kind, Time at, NodeId dst,
                                   std::uint64_t id) const {
    return TraceRecord{kind, at, src, dst, type, digest, id, 0, 0};
  }

  const PayloadPtr& payload;
  NodeId src;  ///< protocol-visible source (a gossip copy keeps its origin)
  Time extra;  ///< sender CPU time spent before the copy reaches the wire
  std::size_t wire;
  PayloadType type;
  std::uint64_t digest;  ///< read only when tracing
  bool shared = false;   ///< copies share one fan-out envelope
  std::uint64_t gossip_id = 0;
  std::uint32_t env = kNoEnvelope;
};

/// A node's Context under one engine. It holds the engine's port for the
/// node, so the engine is chosen once per run, not per call.
template <class Port>
class Controller::NodeCtx final : public Context {
 public:
  NodeCtx(Port port, NodeId id) : port_(port), id_(id) {}

  NodeId id() const noexcept override { return id_; }
  std::uint32_t n() const noexcept override { return c().cfg_.n; }
  std::uint32_t f() const noexcept override { return c().f_; }
  Time lambda() const noexcept override { return c().lambda_; }
  Time now() const noexcept override { return port_.now(); }

  void send(NodeId dst, PayloadPtr payload) override {
    c().send(port_, id_, dst, std::move(payload));
  }
  void broadcast(PayloadPtr payload, bool include_self) override {
    c().broadcast(port_, id_, std::move(payload), include_self);
  }
  TimerId set_timer(Time delay, std::uint64_t tag) override {
    return c().set_timer(port_, TimerOwner::kNode, id_, delay, tag);
  }
  void cancel_timer(TimerId id) override { port_.cancel_timer(id); }

  ProposalBatch next_proposal(std::uint64_t slot, Value fresh) override {
    // on_propose touches only this node's arrival stream (client
    // affinity), so the call is lane-safe under the windowed engine.
    if (c().workload_ == nullptr) return ProposalBatch{fresh, 0, 0};
    return c().workload_->on_propose(id_, slot, fresh, now());
  }
  void report_decision(Value value) override {
    port_.report_decision(id_, value);
  }
  void record_view(View view) override { port_.record_view(id_, view); }

  Rng& rng() noexcept override { return c().node_rngs_[id_]; }
  const Vrf& vrf() const noexcept override { return c().vrf_; }
  const Signer& signer() const noexcept override { return c().signer_; }
  Arena& arena() noexcept override { return port_.arena(); }

 private:
  [[nodiscard]] Controller& c() const noexcept { return port_.c; }

  Port port_;
  NodeId id_;
};

// ---------------------------------------------------------------------------
// Send side
// ---------------------------------------------------------------------------

template <class Port>
void Controller::send(Port port, NodeId src, NodeId dst, PayloadPtr payload) {
  // One signature per send call: the message leaves once the CPU is done.
  const Time extra = charge_cpu(src, sign_cost_, port.now()) - port.now();
  if (dst == src) {
    deliver_self(port, src, std::move(payload));
    return;
  }
  Outgoing out(payload, src, extra, trace_sink_ != nullptr);
  transmit(port, out, src, dst);
}

template <class Port>
void Controller::broadcast(Port port, NodeId src, PayloadPtr payload,
                           bool include_self) {
  // One signature covers the whole fan-out.
  const Time extra = charge_cpu(src, sign_cost_, port.now()) - port.now();
  Outgoing out(payload, src, extra, trace_sink_ != nullptr);
  if constexpr (Port::kSerial) {
    if (wan_ != nullptr && wan_->gossip()) {
      // Gossip origin: only the overlay peers get a copy; relays follow
      // on arrival (gossip_accept).
      out.gossip_id = next_gossip_id_++;
      gossip_seen_[src].insert(out.gossip_id);  // never re-deliver it here
      for (const NodeId peer : wan_->peers_of(src)) {
        transmit(port, out, src, peer);
      }
      if (include_self) deliver_self(port, src, std::move(payload));
      return;
    }
  }
  out.shared = true;
  for (NodeId dst = 0; dst < cfg_.n; ++dst) {
    if (dst != src) transmit(port, out, src, dst);
  }
  if (include_self) deliver_self(port, src, std::move(payload));
}

template <class Port>
void Controller::transmit(Port& port, Outgoing& out, NodeId from,
                          NodeId dst) {
  const Time now = port.now();
  const std::uint64_t id = port.next_id(out.src);
  Metrics& metrics = port.metrics();
  metrics.on_send();
  metrics.on_bytes(out.wire);
  if (trace_sink_ != nullptr) {
    port.trace(out.record(TraceKind::kSend, now, dst, id));
  }

  // Delays and bandwidth are charged to the link the copy crosses (`from`
  // differs from out.src only for a gossip relay).
  Time prop;
  {
    BFTSIM_PROFILE_SCOPE(port.profile(), obs::ProfileComponent::kDelaySample);
    const Time draw = delay_sampler_.sample(port.net_rng(from));
    // The WAN matrix adds a pure per-region-pair base on top of the same
    // single draw the classic path makes, so disabled-backend runs keep
    // the delay stream bit-aligned with the goldens.
    prop = wan_ != nullptr ? draw + wan_->base_delay(from, dst)
                           : topology_.adjust(draw, from, dst);
  }
  // Link flaps sit below the attacker: the delay is drawn first (keeping
  // the stream aligned with fault-free runs) and a down link drops the
  // copy before the attacker ever sees it.
  if (faults_ != nullptr && faults_->any_link_down() &&
      faults_->link_down(from, dst)) {
    metrics.on_drop();
    if (trace_sink_ != nullptr) {
      port.trace(out.record(TraceKind::kDrop, now, dst, id));
    }
    return;
  }
  if constexpr (Port::kSerial) {
    if (attack_stage_) {
      intercept(out, Message{out.src, dst, now, id, out.payload},
                out.extra + prop);
      return;
    }
  }

  Wired wired = wire(port, out, out.payload, from, dst, now + out.extra, prop);
  std::uint32_t env;
  if (wired.corrupted) {
    // A corrupted copy diverges from the shared body: it gets its own solo
    // envelope carrying the wrapped payload.
    env = port.make_env(std::move(wired.corrupted), now, id, out.src, false,
                        1);
  } else if (!out.shared) {
    env = port.make_env(out.payload, now, id, out.src, false, 1);
  } else {
    if (out.env == Outgoing::kNoEnvelope) {
      // Fan-out ids are consecutive in the src-skipping loop, so the first
      // copy's id (the envelope's base_id) follows from this copy's place.
      const std::uint64_t base_id = id - (dst < out.src ? dst : dst - 1u);
      out.env = port.make_env(out.payload, now, base_id, out.src, true, 0);
    }
    port.add_pending(out.env);
    env = out.env;
  }
  if constexpr (Port::kSerial) {
    if (out.gossip_id != 0) env_store_.get(env).gossip_id = out.gossip_id;
  }
  port.schedule(wired.at, id, env, dst);
}

template <class Port>
Controller::Wired Controller::wire(Port& port, const Outgoing& out,
                                   const PayloadPtr& payload, NodeId from,
                                   NodeId dst, Time entry, Time prop) {
  const Time now = port.now();
  Wired wired{nullptr, now + std::max<Time>(entry - now + prop, 0)};
  if (faults_ != nullptr && port.corrupt_coin(from)) {
    wired.corrupted = corrupt_payload(port, payload);
  }
  if constexpr (Port::kSerial) {
    if (wan_ != nullptr && wan_->bandwidth_enabled()) {
      wired.at = wan_->delivery_time(from, dst, out.wire, entry, prop);
    }
  }
  return wired;
}

template <class Port>
void Controller::deliver_self(Port& port, NodeId id, PayloadPtr payload) {
  // A node's message to itself does not traverse the network or the
  // attacker and is not counted as a transmitted message; it is scheduled
  // (rather than dispatched inline) so handlers never re-enter.
  const std::uint64_t key = port.next_id(id);
  const std::uint32_t env =
      port.make_env(std::move(payload), port.now(), key, id, false, 1);
  port.schedule(port.now(), key, env, id);
}

template <class Port>
TimerId Controller::set_timer(Port port, TimerOwner owner, NodeId node,
                              Time delay, std::uint64_t tag) {
  // Clock skew/drift distorts the node's view of how long `delay` is.
  if (faults_ != nullptr && owner == TimerOwner::kNode) {
    delay = faults_->adjust_timer_delay(node, delay);
  }
  const TimerId id = port.next_timer_id(node);
  port.push_timer(port.now() + std::max<Time>(delay, 0),
                  TimerFire{owner, node, id, tag});
  return id;
}

// ---------------------------------------------------------------------------
// Receive side
// ---------------------------------------------------------------------------

template <class Port>
void Controller::deliver(Port& port, const Message& msg) {
  Metrics& metrics = port.metrics();
  if (!is_live(msg.dst)) {
    metrics.on_drop();
    return;
  }
  // A crashed node drops everything that arrives during its outage window
  // (it will resync via the protocol's own catch-up paths after recovery).
  if (faults_ != nullptr && faults_->is_crashed(msg.dst)) {
    metrics.on_drop();
    if (cost_model_on_) port.cpu_charged().erase(msg.id);
    if (trace_sink_ != nullptr && msg.payload != nullptr) {
      port.trace(message_record(TraceKind::kDrop, port.now(), msg));
    }
    return;
  }
  // Computation-cost model: verifying a network message occupies the
  // receiver's CPU, and a CPU still busy (verifying or signing) defers the
  // processing of new arrivals — messages queue behind each other, which
  // is what makes throughput saturate. Self-deliveries are internal and
  // free; a deferred message is processed on its second arrival.
  if (cost_model_on_ && msg.src != msg.dst &&
      port.cpu_charged().erase(msg.id) == 0) {
    const Time free_at = charge_cpu(msg.dst, verify_cost_, port.now());
    if (free_at > port.now()) {
      port.cpu_charged().insert(msg.id);
      port.redeliver(msg, free_at);
      return;
    }
  }
  if (msg.src != msg.dst) metrics.on_deliver();  // self-delivery is free
  if (trace_sink_ != nullptr && msg.payload != nullptr) {
    port.trace(message_record(TraceKind::kDeliver, port.now(), msg));
  }
  if (is_corrupt(msg.dst)) return;  // attacker swallows its nodes' input
  BFTSIM_PROFILE_SCOPE(port.profile(), obs::ProfileComponent::kOnMessage);
  nodes_[msg.dst]->on_message(msg, port.ctx(msg.dst));
}

template <class Port>
void Controller::fire_timer(Port& port, const TimerFire& fire) {
  if (port.consume_cancellation(fire)) return;
  // A crashed node's timers are suspended, not lost: the fire is deferred
  // to the recovery instant (the recovery transition is ordered first at
  // that instant, so the node is already back up). Dropping them instead
  // could leave a recovered node with no pending timers — a deadlock.
  if (faults_ != nullptr && fire.owner == TimerOwner::kNode &&
      faults_->is_crashed(fire.node)) {
    port.push_timer(faults_->recovery_time(fire.node), fire);
    return;
  }
  port.metrics().on_timer();
  const TimerEvent te{fire.timer, fire.tag, port.now()};
  switch (fire.owner) {
    case TimerOwner::kNode:
      if (is_live(fire.node) && !is_corrupt(fire.node)) {
        BFTSIM_PROFILE_SCOPE(port.profile(), obs::ProfileComponent::kOnTimer);
        nodes_[fire.node]->on_timer(te, port.ctx(fire.node));
      }
      break;
    case TimerOwner::kAttacker: {
      BFTSIM_PROFILE_SCOPE(port.profile(),
                           obs::ProfileComponent::kAttackerHook);
      attacker_->on_timer(te, attacker_ctx());
      break;
    }
    case TimerOwner::kSystem:
      on_system_event(fire.tag);
      break;
    case TimerOwner::kFault: {
      BFTSIM_PROFILE_SCOPE(port.profile(), obs::ProfileComponent::kFaultHook);
      faults_->apply(fire.tag);
      break;
    }
  }
}

}  // namespace bftsim
