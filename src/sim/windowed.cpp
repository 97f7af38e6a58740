// Windowed-parallel run driver. See windowed.hpp for the scheme and the
// determinism argument. Sends, deliveries and timer fires run the shared
// transport pipeline (sim/transport.hpp) through LanePort, which makes
// three systematic substitutions against the serial port: the global clock
// -> the lane clock, the global message/timer id counters -> per-origin
// ordering keys, and direct metric / trace / decision emission -> per-lane
// buffers merged at window barriers.
#include "sim/windowed.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/log.hpp"
#include "sim/transport.hpp"

namespace bftsim {

namespace {

// Timer-ledger states, per (node, key counter): the same lazy-deletion
// scheme as EventQueue's ledger, but per node so lanes never share it.
constexpr std::uint8_t kIdle = 0;
constexpr std::uint8_t kPending = 1;
constexpr std::uint8_t kCancelled = 2;

}  // namespace

Time compute_lookahead(const SimConfig& cfg) noexcept {
  const DelaySpec& d = cfg.delay;
  // Infimum of the sampled delay before clamping: constant and uniform have
  // a hard lower edge at `a`; normal and exponential can sample arbitrarily
  // low and rely entirely on the min_ms clamp.
  double lo_ms = 0.0;
  switch (d.kind) {
    case DelaySpec::Kind::kConstant:
    case DelaySpec::Kind::kUniform:
      lo_ms = d.a;
      break;
    case DelaySpec::Kind::kNormal:
    case DelaySpec::Kind::kExponential:
      lo_ms = 0.0;
      break;
  }
  if (lo_ms < d.min_ms) lo_ms = d.min_ms;
  if (d.max_ms > 0.0 && lo_ms > d.max_ms) lo_ms = d.max_ms;
  Time lo = from_ms(lo_ms);

  // The topology transformation applies per destination pair; with
  // cross_factor < 1 a cross-region delay can undercut the flat bound, so
  // take the minimum over both forms.
  if (cfg.topology.is_object()) {
    const TopologySpec topo = TopologySpec::from_json(cfg.topology);
    if (topo.enabled()) {
      const double scaled =
          static_cast<double>(lo) * topo.cross_factor + topo.cross_extra_ms * 1000.0;
      lo = std::min(lo, static_cast<Time>(scaled));
    }
  }

  // The WAN backend's RTT matrix adds a pure per-region-pair propagation
  // base on top of every sampled draw, so the infimum grows by the smallest
  // one-way entry. Bandwidth serialization only ever adds further delay, so
  // ignoring it keeps the result a valid lower bound (and gossip/bandwidth
  // runs are serial-only anyway — see SimConfig::validate).
  if (cfg.net.has_matrix()) lo += from_ms(cfg.net.min_one_way_ms());

  // Conservative safety margin for configured clock imperfection: skewed
  // timers are node-local and never cross lanes, but shrinking the window
  // by the worst-case skew keeps the bound defensible even if a future
  // fault kind lets skew leak into message timing.
  if (cfg.faults.clock.enabled()) {
    const double skewed = static_cast<double>(lo) -
                          cfg.faults.clock.max_skew_ms * 1000.0 -
                          static_cast<double>(lo) * cfg.faults.clock.max_drift;
    lo = static_cast<Time>(skewed);
  }
  return std::max<Time>(lo, 0);
}

std::uint32_t effective_lanes(const SimConfig& cfg) noexcept {
  if (compute_lookahead(cfg) <= 0) return 1;  // no safe window: self-degrade
  const std::uint32_t lanes =
      std::min(cfg.engine.intra_jobs, EngineConfig::kMaxIntraJobs);
  return std::max(1u, std::min(lanes, cfg.n));
}

// ---------------------------------------------------------------------------
// The lane port
// ---------------------------------------------------------------------------

/// The windowed engine's port onto the transport pipeline, bound to the
/// lane that owns the acting node. Everything it writes lives in that lane
/// or in per-node slots the lane owns.
struct WindowedEngine::LanePort {
  static constexpr bool kSerial = false;

  LanePort(WindowedEngine& engine, std::uint32_t lane) noexcept
      : w(engine), c(engine.c_), ln(*engine.lanes_[lane]), lane_id(lane) {}

  [[nodiscard]] Time now() const noexcept { return ln.now; }
  std::uint64_t next_id(NodeId origin) noexcept { return w.draw_key(origin); }
  TimerId next_timer_id(NodeId node) noexcept { return w.draw_key(node); }
  Metrics& metrics() noexcept { return ln.delta; }
  void trace(TraceRecord rec) {
    ln.trace.push_back({ln.now, ln.cur_key, std::move(rec)});
  }
  obs::ProfileBreakdown& profile() noexcept { return ln.profile; }
  Rng& net_rng(NodeId src) noexcept { return w.net_rngs_[src]; }
  bool corrupt_coin(NodeId src) {
    return c.faults_->maybe_corrupt_from(ln.now, src);
  }
  Arena& arena() noexcept { return *c.lane_arenas_[lane_id]; }

  /// Envelope handles pack the owning lane into their high bits.
  [[gnu::always_inline]] std::uint32_t make_env(
      PayloadPtr payload, Time send_time, std::uint64_t base_id, NodeId src,
      bool broadcast, std::int32_t remaining) {
    return (lane_id << kLaneShift) |
           ln.store.create(std::move(payload), send_time, base_id, src,
                           broadcast, remaining);
  }
  void add_pending(std::uint32_t env) noexcept {
    ln.store.add_pending(env & kEnvMask, 1);
  }
  /// Same-lane deliveries go straight into the heap; cross-lane ones wait
  /// in the outbox until the barrier publishes them.
  void schedule(Time at, std::uint64_t key, std::uint32_t env, NodeId dst) {
    Event ev{at, key, MessageDelivery{env, dst}};
    const std::uint32_t dst_lane = w.lane_index(dst);
    if (dst_lane == lane_id) {
      ln.heap.push(std::move(ev));
    } else {
      ln.outbox[dst_lane].push_back(std::move(ev));
    }
  }
  void redeliver(const Message& msg, Time at) {
    // The re-interned envelope keeps the original message identity; the
    // fresh key is drawn from the destination's counter, whose state is
    // lane-count-invariant.
    const std::uint32_t env =
        make_env(msg.payload, msg.send_time, msg.id, msg.src, false, 1);
    ln.heap.push(Event{at, w.draw_key(msg.dst), MessageDelivery{env, msg.dst}});
  }
  std::unordered_set<std::uint64_t>& cpu_charged() noexcept {
    return ln.cpu_charged;
  }

  void push_timer(Time at, const TimerFire& fire) {
    auto& ledger = w.tstate_[fire.node];
    const std::uint64_t ctr = fire.timer & kCtrMask;
    if (ctr >= ledger.size()) ledger.resize(ctr + 1, kIdle);
    ledger[ctr] = kPending;
    ln.heap.push(Event{at, fire.timer, fire});
  }
  bool consume_cancellation(const TimerFire& fire) {
    auto& ledger = w.tstate_[fire.node];
    const std::uint64_t ctr = fire.timer & kCtrMask;
    if (ctr >= ledger.size()) return false;
    const bool cancelled = ledger[ctr] == kCancelled;
    ledger[ctr] = kIdle;
    return cancelled;
  }
  void cancel_timer(TimerId id) {
    // The key encodes its origin; nodes only cancel their own timers.
    const std::uint64_t origin = id >> kOriginShift;
    if (origin == 0 || origin - 1 >= c.cfg_.n) return;
    auto& ledger = w.tstate_[origin - 1];
    const std::uint64_t ctr = id & kCtrMask;
    if (ctr < ledger.size() && ledger[ctr] == kPending) {
      ledger[ctr] = kCancelled;
    }
  }

  void report_decision(NodeId node, Value value) {
    const std::uint64_t height = c.decided_count_[node]++;
    ln.decisions.push_back({ln.now, ln.cur_key, node, height, value});
    if (c.trace_sink_ != nullptr) {
      trace(TraceRecord{TraceKind::kDecide, ln.now, node, kNoNode, {}, 0, 0,
                        height, value});
    }
  }
  void record_view(NodeId node, View view) {
    if (c.cfg_.record_views) {
      ln.views.push_back({ln.now, ln.cur_key, node, view});
    }
    if (c.trace_sink_ != nullptr) {
      trace(TraceRecord{TraceKind::kViewChange, ln.now, node, kNoNode, {}, 0,
                        0, view, 0});
    }
  }
  Context& ctx(NodeId node) noexcept { return w.ctxs_[node]; }

  WindowedEngine& w;
  Controller& c;
  Lane& ln;
  std::uint32_t lane_id;
};

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

WindowedEngine::WindowedEngine(Controller& c) : c_(c) {
  const SimConfig& cfg = c_.cfg_;
  lanes_n_ = effective_lanes(cfg);
  lookahead_ = compute_lookahead(cfg);

  // The gated semantic change: one delay/corruption stream per sending
  // node, forked off the shared streams in node order (so the layout is a
  // function of the seed alone, never of the lane count).
  net_rngs_.reserve(cfg.n);
  for (NodeId i = 0; i < cfg.n; ++i) net_rngs_.push_back(c_.net_rng_.fork(i));
  if (c_.faults_ != nullptr) c_.faults_->fork_corruption_streams(cfg.n);

  wctr_.assign(cfg.n, 0);
  tstate_.resize(cfg.n);

  const std::size_t per_lane_reserve =
      std::min(static_cast<std::size_t>(cfg.n) * cfg.n,
               std::size_t{1} << 18) / lanes_n_ + 256;
  c_.lane_arenas_.reserve(lanes_n_);
  lanes_.reserve(lanes_n_);
  for (std::uint32_t l = 0; l < lanes_n_; ++l) {
    c_.lane_arenas_.push_back(std::make_unique<Arena>());
    auto lane = std::make_unique<Lane>();
    lane->heap.reserve(per_lane_reserve);
    lane->outbox.resize(lanes_n_);
    lanes_.push_back(std::move(lane));
  }
  ctxs_.reserve(cfg.n);
  for (NodeId i = 0; i < cfg.n; ++i) {
    ctxs_.emplace_back(LanePort(*this, lane_index(i)), i);
  }

  if (c_.faults_ != nullptr) {
    // The timeline is sorted by time; the prefix within the horizon is the
    // exact set the serial engine schedules as kFault timers.
    const auto& timeline = c_.faults_->events();
    while (fault_count_ < timeline.size() &&
           timeline[fault_count_].at <= c_.horizon_) {
      ++fault_count_;
    }
  }
  for (NodeId i = 0; i < cfg.n; ++i) {
    if (c_.is_live(i)) ++honest_total_;
  }
  if (lanes_n_ > 1) pool_ = std::make_unique<ThreadPool>(lanes_n_);
}

WindowedEngine::~WindowedEngine() = default;

// ---------------------------------------------------------------------------
// Window execution (per lane, concurrent)
// ---------------------------------------------------------------------------

void WindowedEngine::dispatch(LanePort& port, Event& ev) {
  port.ln.cur_key = ev.seq;
  if (const auto* delivery = std::get_if<MessageDelivery>(&ev.body)) {
    const std::uint32_t owner = delivery->env >> kLaneShift;
    EnvelopeStore& store = lanes_[owner]->store;
    const std::uint32_t index = delivery->env & kEnvMask;
    c_.deliver(port, store.materialize(index, delivery->dst));
    if (owner == port.lane_id) {
      store.release(index);
    } else if (store.release_remote(index)) {
      port.ln.retired.push_back(delivery->env);
    }
    return;
  }
  c_.fire_timer(port, std::get<TimerFire>(ev.body));
}

void WindowedEngine::run_window(std::uint32_t lane_id, Time w1,
                                std::uint64_t event_cap) {
  LanePort port(*this, lane_id);
  Lane& ln = port.ln;
  ln.window_events = 0;
  while (!ln.heap.empty() && ln.heap.top().at < w1 &&
         ln.window_events < event_cap) {
    Event ev = ln.heap.pop();
    ln.now = ev.at;
    ++ln.window_events;
    ln.delta.on_event();
    dispatch(port, ev);
  }
}

// ---------------------------------------------------------------------------
// Barriers
// ---------------------------------------------------------------------------

bool WindowedEngine::apply_faults_at(Time w0) {
  if (c_.faults_ == nullptr) return true;
  const auto& timeline = c_.faults_->events();
  while (fault_cursor_ < fault_count_ && timeline[fault_cursor_].at == w0) {
    // Mirrors the serial engine's dispatch of a kFault timer: one event,
    // one timer firing, then the transition.
    c_.metrics_.on_event();
    if (c_.metrics_.events_processed() > c_.cfg_.max_events) return false;
    c_.metrics_.on_timer();
    c_.faults_->apply(fault_cursor_);
    ++fault_cursor_;
  }
  return true;
}

template <class Product>
std::vector<Product> WindowedEngine::drain(std::vector<Product> Lane::*buffer) {
  std::vector<Product> merged;
  for (auto& lp : lanes_) {
    std::vector<Product>& products = (*lp).*buffer;
    merged.insert(merged.end(), std::make_move_iterator(products.begin()),
                  std::make_move_iterator(products.end()));
    products.clear();
  }
  // Equal (at, key) pairs only occur within one lane's buffer (a key names
  // one dispatch of one node), so the stable sort reproduces emission
  // order and is lane-count-invariant.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Product& a, const Product& b) {
                     if (a.at != b.at) return a.at < b.at;
                     return a.key < b.key;
                   });
  return merged;
}

bool WindowedEngine::merge_window() {
  // 1. Hand fully-released cross-lane envelopes back to their owners.
  for (auto& lp : lanes_) {
    for (const std::uint32_t handle : lp->retired) {
      lanes_[handle >> kLaneShift]->store.recycle(handle & kEnvMask);
    }
    lp->retired.clear();
  }
  // 2. Publish cross-lane sends. Heap order is (at, key) with unique keys,
  // so insertion timing cannot affect pop order.
  for (auto& lp : lanes_) {
    for (std::uint32_t dst_lane = 0; dst_lane < lanes_n_; ++dst_lane) {
      for (Event& ev : lp->outbox[dst_lane]) {
        lanes_[dst_lane]->heap.push(std::move(ev));
      }
      lp->outbox[dst_lane].clear();
    }
  }
  // 3. Fold counter deltas into the run metrics.
  for (auto& lp : lanes_) {
    c_.metrics_.absorb(lp->delta);
    lp->delta = Metrics{};
  }
  // 4. Merge ordered products.
  if (c_.trace_sink_ != nullptr) {
    for (const TraceProduct& p : drain(&Lane::trace)) {
      c_.trace_sink_->on_record(p.rec);
    }
  }
  for (const DecisionProduct& d : drain(&Lane::decisions)) {
    // The workload decide hook runs at the barrier in merged order — the
    // same (at, key) order the serial engine produces — so request-level
    // latencies are lane-count-invariant like every other product.
    if (c_.workload_ != nullptr) c_.workload_->on_decide(d.value, d.at);
    c_.metrics_.on_decision(Decision{d.node, d.at, d.height, d.value});
    BFTSIM_LOG(kDebug, "node " << d.node << " decided height " << d.height
                               << " value " << d.value << " at "
                               << to_ms(d.at) << "ms");
    if (d.height + 1 == c_.cfg_.decisions && c_.is_honest(d.node)) {
      ++nodes_done_;
      if (nodes_done_ == honest_total_ && !c_.stopped_) {
        c_.stopped_ = true;
        c_.termination_time_ = d.at;
      }
    }
  }
  for (const ViewProduct& v : drain(&Lane::views)) {
    c_.metrics_.on_view(ViewRecord{v.node, v.at, v.view});
  }
  return c_.metrics_.events_processed() <= c_.cfg_.max_events;
}

// ---------------------------------------------------------------------------
// Run loop
// ---------------------------------------------------------------------------

RunResult WindowedEngine::run() {
  if (ran_) throw std::logic_error("WindowedEngine::run() called twice");
  ran_ = true;

  // Serial start phase: on_start callbacks in node order, exactly like the
  // serial engine. Products carry the node's base key so the merge keeps
  // node order; sends route through the same mailboxes as window sends.
  c_.attacker_->on_start(c_.attacker_ctx());
  for (NodeId i = 0; i < c_.cfg_.n; ++i) {
    if (!c_.is_live(i)) continue;
    lanes_[lane_index(i)]->cur_key = std::uint64_t{i + 1} << kOriginShift;
    c_.nodes_[i]->on_start(ctxs_[i]);
  }
  bool within_budget = merge_window();

  TerminationReason reason = TerminationReason::kQueueDrained;
  if (!within_budget) reason = TerminationReason::kEventBudget;
  while (within_budget && !c_.stopped_) {
    // W0: the earliest pending instant across every lane and the fault
    // timeline — the same instant the serial engine would pop next.
    Time w0 = 0;
    bool any = false;
    for (const auto& lp : lanes_) {
      if (lp->heap.empty()) continue;
      const Time t = lp->heap.top().at;
      if (!any || t < w0) {
        w0 = t;
        any = true;
      }
    }
    if (c_.faults_ != nullptr && fault_cursor_ < fault_count_) {
      const Time t = c_.faults_->events()[fault_cursor_].at;
      if (!any || t < w0) {
        w0 = t;
        any = true;
      }
    }
    if (!any) break;  // kQueueDrained
    if (w0 > c_.horizon_) {
      c_.now_ = c_.horizon_;
      reason = TerminationReason::kHorizon;
      break;
    }
    c_.now_ = w0;
    if (!apply_faults_at(w0)) {
      reason = TerminationReason::kEventBudget;
      break;
    }

    // W1: never wider than the lookahead (cross-lane safety), cut at the
    // next fault transition (fault state is frozen inside a window) and at
    // the horizon. The formula never reads lane state, so the window
    // sequence is identical for every lane count — the determinism anchor.
    Time w1 = w0 + std::max<Time>(lookahead_, 1);
    if (c_.faults_ != nullptr && fault_cursor_ < fault_count_) {
      w1 = std::min(w1, c_.faults_->events()[fault_cursor_].at);
    }
    w1 = std::min(w1, c_.horizon_ + 1);

    // Per-lane runaway valve: a single lane may overshoot the remaining
    // budget by at most one window before the barrier converts the
    // overshoot into kEventBudget.
    std::uint64_t cap =
        c_.cfg_.max_events + 1 - c_.metrics_.events_processed();
    // Zero-lookahead runs (always a single lane) deliver same-instant
    // messages into the window being executed, so a protocol that keeps
    // talking after its last decision never drains the instant — and the
    // termination check only runs at barriers. The serial engine stops
    // mid-instant at its inline check; with no parallelism at stake, match
    // that cadence by forcing a barrier every few thousand events. The
    // quota is a constant, so the event sequence stays deterministic.
    if (lookahead_ <= 0) cap = std::min<std::uint64_t>(cap, 4096);
    if (lanes_n_ == 1) {
      run_window(0, w1, cap);
    } else {
      parallel_for(*pool_, lanes_n_,
                   [this, w1, cap](std::size_t l) {
                     run_window(static_cast<std::uint32_t>(l), w1, cap);
                   });
    }
    within_budget = merge_window();
    if (!within_budget) reason = TerminationReason::kEventBudget;
  }
  if (c_.stopped_) reason = TerminationReason::kDecided;
  for (const auto& lp : lanes_) c_.profile_.merge(lp->profile);
  return c_.make_result(reason);
}

}  // namespace bftsim
