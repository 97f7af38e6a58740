// The simulation controller's event loop (§III-A1): the serial engine's
// port onto the transport pipeline (sim/transport.hpp), the attacker and
// gossip stages only this engine runs, the optional per-node CPU cost
// model, and run-termination bookkeeping.
#include "sim/controller.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "attacker/attacks.hpp"
#include "core/log.hpp"
#include "protocols/registry.hpp"
#include "sim/transport.hpp"
#include "sim/windowed.hpp"

namespace bftsim {

// ---------------------------------------------------------------------------
// Contexts
// ---------------------------------------------------------------------------

/// The serial engine's port: one clock, one global queue, the shared
/// delay stream and global id counters.
struct Controller::SerialPort {
  static constexpr bool kSerial = true;

  [[nodiscard]] Time now() const noexcept { return c.now_; }
  std::uint64_t next_id(NodeId /*origin*/) noexcept { return c.next_msg_id_++; }
  TimerId next_timer_id(NodeId /*node*/) noexcept { return c.next_timer_id_++; }
  Metrics& metrics() noexcept { return c.metrics_; }
  void trace(const TraceRecord& rec) { c.trace_sink_->on_record(rec); }
  obs::ProfileBreakdown& profile() noexcept { return c.profile_; }
  Rng& net_rng(NodeId /*src*/) noexcept { return c.net_rng_; }
  bool corrupt_coin(NodeId /*src*/) { return c.faults_->maybe_corrupt(c.now_); }
  Arena& arena() noexcept { return c.arena_; }

  [[gnu::always_inline]] std::uint32_t make_env(
      PayloadPtr payload, Time send_time, std::uint64_t base_id, NodeId src,
      bool broadcast, std::int32_t remaining) {
    return c.env_store_.create(std::move(payload), send_time, base_id, src,
                               broadcast, remaining);
  }
  void add_pending(std::uint32_t env) noexcept {
    c.env_store_.add_pending(env, 1);
  }
  void schedule(Time at, std::uint64_t /*key*/, std::uint32_t env,
                NodeId dst) {
    c.queue_.push(at, MessageDelivery{env, dst});
  }
  void redeliver(const Message& msg, Time at) {
    c.schedule_message_at(msg, at);
  }
  std::unordered_set<std::uint64_t>& cpu_charged() noexcept {
    return c.cpu_charged_;
  }

  void push_timer(Time at, const TimerFire& fire) { c.queue_.push(at, fire); }
  bool consume_cancellation(const TimerFire& fire) {
    return c.queue_.consume_cancellation(fire.timer);
  }
  void cancel_timer(TimerId id) { c.queue_.cancel_timer(id); }

  void report_decision(NodeId node, Value value) {
    const std::uint64_t height = c.decided_count_[node]++;
    if (c.workload_ != nullptr) c.workload_->on_decide(value, c.now_);
    c.metrics_.on_decision(Decision{node, c.now_, height, value});
    if (c.trace_sink_ != nullptr) {
      trace(TraceRecord{TraceKind::kDecide, c.now_, node, kNoNode, {}, 0, 0,
                        height, value});
    }
    BFTSIM_LOG(kDebug, "node " << node << " decided height " << height
                               << " value " << value << " at "
                               << to_ms(c.now_) << "ms");
    c.check_termination();
  }
  void record_view(NodeId node, View view) {
    if (c.cfg_.record_views) c.metrics_.on_view(ViewRecord{node, c.now_, view});
    if (c.trace_sink_ != nullptr) {
      trace(TraceRecord{TraceKind::kViewChange, c.now_, node, kNoNode, {}, 0,
                        0, view, 0});
    }
    if (!c.current_view_.empty()) c.current_view_[node] = view;
  }
  Context& ctx(NodeId node) noexcept { return c.ctxs_[node]; }

  Controller& c;
};

class Controller::AtkCtx final : public AttackerContext {
 public:
  explicit AtkCtx(Controller& c) : c_(c) {}

  std::uint32_t n() const noexcept override { return c_.cfg_.n; }
  std::uint32_t f() const noexcept override { return c_.f_; }
  Time now() const noexcept override { return c_.now_; }

  void inject(Message msg, Time delay) override {
    c_.inject_message(std::move(msg), delay);
  }

  void inject_duplicate(Message msg, Time delay) override {
    c_.metrics_.on_attacker_duplicate();
    c_.inject_message(std::move(msg), delay);
  }

  bool corrupt(NodeId node) override { return c_.corrupt(node); }

  bool is_corrupt(NodeId node) const noexcept override {
    return c_.is_corrupt(node);
  }

  std::uint32_t corrupted_count() const noexcept override {
    return static_cast<std::uint32_t>(c_.corrupted_order_.size());
  }

  Signature sign_as(NodeId node, std::uint64_t digest) override {
    if (!c_.is_corrupt(node)) {
      return Signature{node, digest, 0};  // unforgeable: invalid tag
    }
    return c_.signer_.sign(node, digest);
  }

  TimerId set_timer(Time delay, std::uint64_t tag) override {
    return c_.set_timer(SerialPort{c_}, TimerOwner::kAttacker, kNoNode, delay,
                        tag);
  }

  Rng& rng() noexcept override { return c_.atk_rng_; }

 private:
  Controller& c_;
};

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

Controller::Controller(SimConfig cfg)
    : cfg_(std::move(cfg)),
      run_rng_(0),
      net_rng_(0),
      atk_rng_(0),
      vrf_(0),
      signer_(0),
      delay_sampler_(cfg_.delay) {
  cfg_.validate();
  const ProtocolInfo& info = ProtocolRegistry::instance().get(cfg_.protocol);

  f_ = info.fault_threshold(cfg_.n);
  lambda_ = from_ms(cfg_.lambda_ms);
  horizon_ = from_ms(cfg_.max_time_ms);

  run_rng_.reseed(cfg_.seed);
  net_rng_ = run_rng_.fork(0x6e6574);            // "net"
  atk_rng_ = run_rng_.fork(0x61746b);            // "atk"
  const std::uint64_t crypto_seed = run_rng_.next_u64();
  vrf_ = Vrf{crypto_seed};
  signer_ = Signer{crypto_seed ^ 0x736967ULL};

  // Choose which nodes are fail-stopped: a random subset of size n - live.
  const std::uint32_t live = cfg_.live_nodes();
  std::vector<NodeId> ids(cfg_.n);
  for (NodeId i = 0; i < cfg_.n; ++i) ids[i] = i;
  Rng pick = run_rng_.fork(0x6673);  // "fs"
  for (std::uint32_t i = 0; i + 1 < cfg_.n; ++i) {  // Fisher-Yates
    const auto j = i + static_cast<std::uint32_t>(pick.next_below(cfg_.n - i));
    std::swap(ids[i], ids[j]);
  }
  std::unordered_set<NodeId> dead;
  for (std::uint32_t i = live; i < cfg_.n; ++i) {
    dead.insert(ids[i]);
    failstopped_.push_back(ids[i]);
  }
  std::sort(failstopped_.begin(), failstopped_.end());

  nodes_.resize(cfg_.n);
  ctxs_.reserve(cfg_.n);
  node_rngs_.reserve(cfg_.n);
  Rng node_seed = run_rng_.fork(0x6e6f6465);  // "node"
  for (NodeId i = 0; i < cfg_.n; ++i) {
    node_rngs_.push_back(node_seed.fork(i));
    ctxs_.emplace_back(SerialPort{*this}, i);
    if (!dead.contains(i)) nodes_[i] = info.create(i, cfg_);
  }
  decided_count_.assign(cfg_.n, 0);

  if (cfg_.topology.is_object()) {
    topology_ = TopologySpec::from_json(cfg_.topology);
  }
  verify_cost_ = from_ms(cfg_.cost.verify_ms);
  sign_cost_ = from_ms(cfg_.cost.sign_ms);
  cost_model_on_ = cfg_.cost.enabled();
  cpu_free_.assign(cfg_.n, 0);
  corrupt_flags_.assign(cfg_.n, 0);

  // Size the event queue for the steady-state backlog: every node can have
  // a broadcast in flight (n-1 deliveries each) plus timers; the heap's
  // backing vector then recycles its slots for the rest of the run. The n²
  // estimate is capped — at n=4096 it would pin ~1 GB of heap before the
  // first event; beyond the cap the vector grows geometrically on demand,
  // which changes nothing observable (heap order is capacity-independent).
  constexpr std::size_t kMaxQueueReserve = std::size_t{1} << 18;
  queue_.reserve(
      std::min(static_cast<std::size_t>(cfg_.n) * cfg_.n, kMaxQueueReserve) +
      256);
  if (cost_model_on_) cpu_charged_.reserve(256);

  attacker_ = make_attacker(cfg_);
  attacker_passive_ = attacker_->is_passive();
  atk_ctx_ = std::make_unique<AtkCtx>(*this);

  // Trace sink: selecting a streaming sink implies tracing (a jsonl/binary
  // sink with nothing flowing through it would be a silent no-op). With the
  // defaults (record_trace off, memory sink) there is no sink at all and
  // every emission site is one null check.
  if (cfg_.record_trace || cfg_.obs.streaming()) {
    trace_sink_ = obs::make_trace_sink(cfg_.obs, trace_);
  }
  if (cfg_.obs.timeline_enabled()) {
    timeline_ = std::make_unique<obs::Timeline>(
        std::max<Time>(from_ms(cfg_.obs.timeline_tick_ms), 1),
        cfg_.obs.timeline_views);
    current_view_.assign(cfg_.n, 0);
  }

  // Fault layer. The fault RNG is forked off run_rng_ last, and only when
  // faults are enabled, so every other stream (net, atk, crypto, fs, node)
  // is untouched and fault-free runs stay bit-identical to the goldens.
  if (cfg_.faults.enabled()) {
    faults_ = std::make_unique<FaultInjector>(cfg_.faults, cfg_.n,
                                              run_rng_.fork(0x666c74));  // "flt"
    const auto& timeline = faults_->events();
    for (std::size_t i = 0; i < timeline.size(); ++i) {
      if (timeline[i].at > horizon_) continue;
      queue_.push(timeline[i].at,
                  TimerFire{TimerOwner::kFault, kNoNode, next_timer_id_++, i});
    }
  }

  // WAN transport backend. Like the fault RNG, the overlay RNG is forked
  // off run_rng_ only when the backend is selected, so classic runs keep
  // every other stream aligned with the recorded goldens.
  if (cfg_.net.enabled()) {
    wan_ = std::make_unique<WanModel>(cfg_.net, cfg_.n,
                                      run_rng_.fork(0x77616e));  // "wan"
    if (wan_->gossip()) gossip_seen_.resize(cfg_.n);
  }

  // Client workload generator. Like the fault and WAN RNGs, the workload
  // RNG is forked off run_rng_ only when a workload is selected, so
  // workload-free runs keep every stream aligned with the recorded goldens.
  if (cfg_.workload.enabled()) {
    workload_ = std::make_unique<WorkloadManager>(
        cfg_.workload, cfg_.n, run_rng_.fork(0x776c));  // "wl"
  }
}

Controller::~Controller() = default;

// ---------------------------------------------------------------------------
// Serial-only transport stages
// ---------------------------------------------------------------------------

void Controller::intercept(const Outgoing& out, Message msg, Time delay) {
  MessageInFlight in_flight{std::move(msg), delay};
  // Snapshot the pre-attack state so the attacker's edits are countable by
  // comparison — no per-action instrumentation inside attack() needed.
  // Payloads are immutable (shared_ptr<const Payload>), so replacement and
  // rerouting are the only modification channels an attacker has.
  const Payload* original_payload = in_flight.msg.payload.get();
  const NodeId original_src = in_flight.msg.src;
  const NodeId original_dst = in_flight.msg.dst;
  const Disposition verdict = [&] {
    BFTSIM_PROFILE_SCOPE(profile_, obs::ProfileComponent::kAttackerHook);
    return attacker_->attack(in_flight, *atk_ctx_);
  }();
  if (verdict == Disposition::kDrop) {
    metrics_.on_drop();
    metrics_.on_attacker_drop();
    if (trace_sink_ != nullptr) {
      trace_sink_->on_record(
          message_record(TraceKind::kDrop, now_, in_flight.msg));
    }
    return;
  }
  if (in_flight.delay != delay) metrics_.on_attacker_delay();
  if (in_flight.msg.payload.get() != original_payload ||
      in_flight.msg.src != original_src || in_flight.msg.dst != original_dst) {
    metrics_.on_attacker_modify();
  }
  // The attacker's delay covers signing and propagation. The copy enters
  // the uplink once signed, as on the fast path, and takes the link the
  // attacker (possibly) rerouted it to.
  SerialPort port{*this};
  Message& m = in_flight.msg;
  Wired wired = wire(port, out, m.payload, m.src, m.dst, now_ + out.extra,
                     std::max<Time>(in_flight.delay, 0) - out.extra);
  if (wired.corrupted) m.payload = std::move(wired.corrupted);
  schedule_network_delivery(std::move(m), wired.at - now_);
}

// A broadcast under the gossip backend is disseminated epidemically: the
// origin sends to its fanout overlay peers (Controller::broadcast); every
// node relays the first copy it accepts to its own peers and drops later
// copies (counted as gossip duplicates). The overlay's ring edge keeps the
// digraph strongly connected, so every live node is reached. Gossip is
// serial-engine-only and incompatible with attack scenarios
// (SimConfig::validate), so its copies always take the envelope path.
bool Controller::gossip_accept(const Message& msg, std::uint64_t gid) {
  // Fail-stopped / crashed destinations drop the copy in the deliver stage
  // without marking it seen, so a copy arriving after a crash recovery can
  // still be the accepted one.
  if (!is_live(msg.dst) ||
      (faults_ != nullptr && faults_->is_crashed(msg.dst))) {
    return true;
  }
  if (!gossip_seen_[msg.dst].insert(gid).second) {
    metrics_.on_drop();
    metrics_.on_gossip_duplicate();
    if (trace_sink_ != nullptr && msg.payload != nullptr) {
      trace_sink_->on_record(message_record(TraceKind::kDrop, now_, msg));
    }
    return false;
  }
  // First accepted copy: relay before local processing, so the CPU cost
  // model (which can defer on_message) never slows dissemination down.
  // Relaying forwards the bytes as received — including a fault-corrupted
  // wrapper — and skips the origin, which has the payload by definition.
  // The copies keep the origin as their protocol-visible source, so Send
  // and Deliver records pair up by message id like direct ones.
  if (msg.payload != nullptr) {
    SerialPort port{*this};
    Outgoing out(msg.payload, msg.src, 0, trace_sink_ != nullptr);
    out.gossip_id = gid;
    for (const NodeId peer : wan_->peers_of(msg.dst)) {
      if (peer == msg.src) continue;
      metrics_.on_gossip_relay();
      transmit(port, out, msg.dst, peer);
    }
  }
  return true;
}

void Controller::schedule_network_delivery(Message msg, Time delay) {
  schedule_message_at(std::move(msg), now_ + delay);
}

void Controller::schedule_message_at(Message msg, Time at) {
  const std::uint32_t env = env_store_.create(
      std::move(msg.payload), msg.send_time, msg.id, msg.src, false, 1);
  queue_.push(std::max(at, now_), MessageDelivery{env, msg.dst});
}

void Controller::inject_message(Message msg, Time delay) {
  msg.id = next_msg_id_++;
  msg.send_time = now_;
  metrics_.on_inject();
  if (trace_sink_ != nullptr && msg.payload != nullptr) {
    trace_sink_->on_record(message_record(TraceKind::kSend, now_, msg));
  }
  schedule_message_at(std::move(msg), now_ + delay);
}

void Controller::deliver_now(const Message& msg) {
  SerialPort port{*this};
  deliver(port, msg);
}

Time Controller::charge_cpu(NodeId node, Time cost, Time now) {
  if (cost <= 0) return std::max(cpu_free_[node], now);
  cpu_free_[node] = std::max(cpu_free_[node], now) + cost;
  return cpu_free_[node];
}

void Controller::schedule_system_event(Time at, std::uint64_t tag) {
  queue_.push(std::max(at, now_),
              TimerFire{TimerOwner::kSystem, kNoNode, next_timer_id_++, tag});
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

bool Controller::corrupt(NodeId node) {
  if (node >= cfg_.n) return false;
  if (is_corrupt(node)) return false;
  if (corrupted_order_.size() + failstopped_.size() >= f_) return false;
  corrupt_flags_[node] = 1;
  corrupted_order_.push_back(node);
  if (trace_sink_) {
    trace_sink_->on_record(
        TraceRecord{TraceKind::kCorrupt, now_, node, kNoNode, {}, 0, 0, 0, 0});
  }
  BFTSIM_LOG(kInfo, "attacker corrupted node " << node << " at " << to_ms(now_) << "ms");
  check_termination();
  return true;
}

void Controller::check_termination() {
  if (stopped_) return;
  for (NodeId i = 0; i < cfg_.n; ++i) {
    if (!is_honest(i)) continue;
    if (decided_count_[i] < cfg_.decisions) return;
  }
  stopped_ = true;
  termination_time_ = now_;
}

bool Controller::is_live(NodeId id) const noexcept {
  return id < cfg_.n && nodes_[id] != nullptr;
}

AttackerContext& Controller::attacker_ctx() noexcept { return *atk_ctx_; }

bool Controller::is_honest(NodeId id) const noexcept {
  return is_live(id) && !is_corrupt(id);
}

// ---------------------------------------------------------------------------
// Run loop
// ---------------------------------------------------------------------------

void Controller::dispatch(Event& ev) {
  SerialPort port{*this};
  if (const auto* delivery = std::get_if<MessageDelivery>(&ev.body)) {
    const std::uint64_t gid = env_store_.get(delivery->env).gossip_id;
    const Message msg = env_store_.materialize(delivery->env, delivery->dst);
    if (gid == 0 || gossip_accept(msg, gid)) deliver(port, msg);
    env_store_.release(delivery->env);
    return;
  }
  fire_timer(port, std::get<TimerFire>(ev.body));
}

RunResult Controller::run() {
  if (ran_) throw std::logic_error("Controller::run() called twice");
  ran_ = true;
  attack_stage_ = !attacker_passive_ || custom_delivery_hook_;

  if (custom_delivery_hook_ && wan_ != nullptr) {
    throw std::invalid_argument(
        "config error at $.net: the WAN backend requires the default "
        "delivery path (controllers overriding schedule_network_delivery "
        "model the wire themselves)");
  }

  if (cfg_.engine.per_node_rng()) {
    if (custom_delivery_hook_) {
      throw std::invalid_argument(
          "engine: windowed-parallel execution requires the default delivery "
          "path (controllers overriding schedule_network_delivery are "
          "serial-only)");
    }
    // Closed-loop workloads resubmit requests at decision times, which only
    // the serial engine observes in order; open-loop workloads are per-node
    // streams and stay windowed-parallel safe.
    const bool workload_serial =
        workload_ != nullptr && workload_->serial_only();
    if (attacker_passive_ && !workload_serial) {
      win_ = std::make_unique<WindowedEngine>(*this);
      return win_->run();
    }
    // Graceful degradation: a global attacker's observation order (and a
    // closed-loop workload's resubmission order) is not lane-independent,
    // so such a run cannot execute on the windowed driver. Instead of
    // refusing the config (which would kill whole sweeps that set a global
    // engine.intra_jobs), deterministically fall back to the serial engine
    // for this run and record the decision.
    warnings_.push_back(RunWarning{
        "engine-serial-fallback",
        attacker_passive_
            ? "closed-loop workload is serial-only: engine.intra_jobs=" +
                  std::to_string(cfg_.engine.intra_jobs) +
                  " ignored, run executed on the serial engine"
            : "attack \"" + cfg_.attack +
                  "\" is serial-only: engine.intra_jobs=" +
                  std::to_string(cfg_.engine.intra_jobs) +
                  " ignored, run executed on the serial engine"});
  }

  attacker_->on_start(*atk_ctx_);
  for (NodeId i = 0; i < cfg_.n; ++i) {
    if (is_live(i)) nodes_[i]->on_start(ctxs_[i]);
  }
  check_termination();  // degenerate configs (decisions == 0 is rejected)

  TerminationReason reason = TerminationReason::kQueueDrained;
  while (!stopped_ && !queue_.empty()) {
    Event ev = [&] {
      BFTSIM_PROFILE_SCOPE(profile_, obs::ProfileComponent::kEventPop);
      return queue_.pop();
    }();
    if (ev.at > horizon_) {
      now_ = horizon_;
      reason = TerminationReason::kHorizon;
      break;
    }
    now_ = ev.at;
    // Timeline sampling: reads engine counters only (no events, no RNG), so
    // a sampled run stays bit-identical to an unsampled one.
    if (timeline_ != nullptr && now_ >= timeline_->next_sample_at()) {
      sample_timeline(/*final_sample=*/false);
    }
    metrics_.on_event();
    if (metrics_.events_processed() > cfg_.max_events) {
      reason = TerminationReason::kEventBudget;
      break;
    }
    dispatch(ev);
  }
  if (stopped_) reason = TerminationReason::kDecided;
  return make_result(reason);
}

RunResult Controller::make_result(TerminationReason reason) {
  RunResult result;
  result.terminated = stopped_;
  result.termination_time = termination_time_;
  result.termination_reason = reason;
  result.decisions_target = cfg_.decisions;
  result.messages_sent = metrics_.messages_sent();
  result.bytes_sent = metrics_.bytes_sent();
  result.messages_delivered = metrics_.messages_delivered();
  result.messages_dropped = metrics_.messages_dropped();
  result.messages_injected = metrics_.messages_injected();
  result.messages_corrupted = metrics_.messages_corrupted();
  result.events_processed = metrics_.events_processed();
  result.timers_fired = metrics_.timers_fired();
  result.attacker_dropped = metrics_.attacker_dropped();
  result.attacker_delayed = metrics_.attacker_delayed();
  result.attacker_modified = metrics_.attacker_modified();
  result.attacker_duplicated = metrics_.attacker_duplicated();
  result.gossip_relayed = metrics_.gossip_relayed();
  result.gossip_duplicates = metrics_.gossip_duplicates();
  result.warnings = warnings_;
  result.decisions = metrics_.decisions();
  result.views = metrics_.views();
  result.failstopped = failstopped_;
  result.corrupted = corrupted_order_;
  for (NodeId i = 0; i < cfg_.n; ++i) {
    if (is_honest(i)) result.honest.push_back(i);
  }
  result.trace = std::move(trace_);
  if (workload_ != nullptr) {
    // Books close at the termination time, or at the horizon for every
    // non-decided outcome — a config constant, so the measured span is
    // identical whichever engine executed the run.
    result.workload =
        workload_->finalize(stopped_ ? termination_time_ : horizon_);
  }
  if (trace_sink_ != nullptr) {
    trace_sink_->flush();  // throws when a streaming sink's storage failed
    result.trace_fingerprint = trace_sink_->fingerprint();
    result.trace_records = trace_sink_->count();
  }
  if (timeline_ != nullptr) {
    sample_timeline(/*final_sample=*/true);
    result.timeline = timeline_->samples();
    result.timeline_tick = timeline_->tick();
  }
  result.profile = profile_;
  return result;
}

void Controller::sample_timeline(bool final_sample) {
  obs::TimelineSample s;
  s.at = now_;
  s.events_processed = metrics_.events_processed();
  s.queue_depth = queue_.size();
  s.in_flight_messages = queue_.message_count();
  s.timers_pending = queue_.pending_timer_count();
  s.messages_sent = metrics_.messages_sent();
  s.messages_delivered = metrics_.messages_delivered();
  if (!current_view_.empty()) {
    s.min_view = *std::min_element(current_view_.begin(), current_view_.end());
    s.max_view = *std::max_element(current_view_.begin(), current_view_.end());
    if (timeline_->record_views()) s.node_views = current_view_;
  }
  if (final_sample) {
    timeline_->add_final(std::move(s));
  } else {
    timeline_->add(std::move(s));
  }
}

}  // namespace bftsim
