#include "traced.hpp"

#include <chrono>
#include <memory>
#include <utility>

#include "protocols/node.hpp"
#include "protocols/registry.hpp"

namespace perfbench {
namespace {

using bftsim::Context;
using bftsim::NodeId;

[[nodiscard]] std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Forwards every Context call to the controller's context for the node,
/// timing the calls that do simulator work. Identity, parameters and run
/// services (rng, arena, vrf, signer) forward untimed: they are field
/// reads, cheaper than a clock read.
class ForwardingContext final : public Context {
 public:
  explicit ForwardingContext(NodeCounters& c) : c_(c) {}

  void bind(Context& inner) noexcept { inner_ = &inner; }

  NodeId id() const noexcept override { return inner_->id(); }
  std::uint32_t n() const noexcept override { return inner_->n(); }
  std::uint32_t f() const noexcept override { return inner_->f(); }
  bftsim::Time lambda() const noexcept override { return inner_->lambda(); }
  bftsim::Time now() const noexcept override { return inner_->now(); }

  void send(NodeId dst, bftsim::PayloadPtr payload) override {
    const std::uint64_t t0 = now_ns();
    inner_->send(dst, std::move(payload));
    const std::uint64_t dt = now_ns() - t0;
    c_.send_ns += dt;
    c_.ctx_ns += dt;
    ++c_.send_calls;
    ++c_.send_copies;
  }
  void broadcast(bftsim::PayloadPtr payload, bool include_self) override {
    const std::uint64_t t0 = now_ns();
    inner_->broadcast(std::move(payload), include_self);
    const std::uint64_t dt = now_ns() - t0;
    c_.send_ns += dt;
    c_.ctx_ns += dt;
    ++c_.send_calls;
    c_.send_copies += inner_->n() - 1;
  }
  bftsim::TimerId set_timer(bftsim::Time delay, std::uint64_t tag) override {
    const std::uint64_t t0 = now_ns();
    const bftsim::TimerId id = inner_->set_timer(delay, tag);
    const std::uint64_t dt = now_ns() - t0;
    c_.set_timer_ns += dt;
    c_.ctx_ns += dt;
    ++c_.set_timer_calls;
    return id;
  }
  void cancel_timer(bftsim::TimerId id) override {
    const std::uint64_t t0 = now_ns();
    inner_->cancel_timer(id);
    c_.ctx_ns += now_ns() - t0;
  }
  bftsim::ProposalBatch next_proposal(std::uint64_t slot,
                                      bftsim::Value fresh) override {
    const std::uint64_t t0 = now_ns();
    bftsim::ProposalBatch batch = inner_->next_proposal(slot, fresh);
    c_.ctx_ns += now_ns() - t0;
    return batch;
  }
  void report_decision(bftsim::Value value) override {
    const std::uint64_t t0 = now_ns();
    inner_->report_decision(value);
    c_.ctx_ns += now_ns() - t0;
  }
  void record_view(bftsim::View view) override {
    const std::uint64_t t0 = now_ns();
    inner_->record_view(view);
    c_.ctx_ns += now_ns() - t0;
  }

  bftsim::Rng& rng() noexcept override { return inner_->rng(); }
  const bftsim::Vrf& vrf() const noexcept override { return inner_->vrf(); }
  const bftsim::Signer& signer() const noexcept override {
    return inner_->signer();
  }
  bftsim::Arena& arena() noexcept override { return inner_->arena(); }

 private:
  NodeCounters& c_;
  Context* inner_ = nullptr;
};

class TracedNode final : public bftsim::Node {
 public:
  TracedNode(NodeId id, std::unique_ptr<bftsim::Node> inner)
      : id_(id), inner_(std::move(inner)) {}
  ~TracedNode() override { collector().absorb(id_, counters_); }

  void on_start(Context& ctx) override {
    fwd_.bind(ctx);
    const std::uint64_t t0 = now_ns();
    inner_->on_start(fwd_);
    counters_.start_ns += now_ns() - t0;
  }
  void on_message(const bftsim::Message& msg, Context& ctx) override {
    fwd_.bind(ctx);
    const std::uint64_t ctx_before = counters_.ctx_ns;
    const std::uint64_t t0 = now_ns();
    inner_->on_message(msg, fwd_);
    const std::uint64_t dt = now_ns() - t0;
    counters_.msg_incl_ns += dt;
    counters_.msg_self_ns += dt - (counters_.ctx_ns - ctx_before);
    ++counters_.msg_calls;
  }
  void on_timer(const bftsim::TimerEvent& ev, Context& ctx) override {
    fwd_.bind(ctx);
    const std::uint64_t ctx_before = counters_.ctx_ns;
    const std::uint64_t t0 = now_ns();
    inner_->on_timer(ev, fwd_);
    const std::uint64_t dt = now_ns() - t0;
    counters_.timer_incl_ns += dt;
    counters_.timer_self_ns += dt - (counters_.ctx_ns - ctx_before);
    ++counters_.timer_calls;
  }

 private:
  NodeId id_;
  std::unique_ptr<bftsim::Node> inner_;
  NodeCounters counters_;
  ForwardingContext fwd_{counters_};
};

constexpr const char* kPrefix = "traced:";

}  // namespace

void NodeCounters::add(const NodeCounters& o) noexcept {
  start_ns += o.start_ns;
  msg_calls += o.msg_calls;
  msg_incl_ns += o.msg_incl_ns;
  msg_self_ns += o.msg_self_ns;
  timer_calls += o.timer_calls;
  timer_incl_ns += o.timer_incl_ns;
  timer_self_ns += o.timer_self_ns;
  send_calls += o.send_calls;
  send_copies += o.send_copies;
  send_ns += o.send_ns;
  set_timer_calls += o.set_timer_calls;
  set_timer_ns += o.set_timer_ns;
  ctx_ns += o.ctx_ns;
}

void TraceCollector::reset(std::uint32_t lanes) {
  const std::lock_guard<std::mutex> lock(mu_);
  totals_ = TraceTotals{};
  totals_.lane_handler_ns.assign(lanes == 0 ? 1 : lanes, 0);
}

void TraceCollector::absorb(NodeId id, const NodeCounters& c) {
  const std::lock_guard<std::mutex> lock(mu_);
  totals_.sum.add(c);
  if (!totals_.lane_handler_ns.empty()) {
    totals_.lane_handler_ns[id % totals_.lane_handler_ns.size()] += c.handler_ns();
  }
}

TraceTotals TraceCollector::take() {
  const std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(totals_, TraceTotals{});
}

TraceCollector& collector() {
  static TraceCollector instance;
  return instance;
}

std::string traced_name(const std::string& protocol) { return kPrefix + protocol; }

void register_traced_protocols() {
  bftsim::ProtocolRegistry& registry = bftsim::ProtocolRegistry::instance();
  for (const std::string& name : registry.names()) {
    if (name.rfind(kPrefix, 0) == 0 || registry.contains(traced_name(name))) {
      continue;
    }
    bftsim::ProtocolInfo info = registry.get(name);  // copy: add() may reallocate
    auto create = info.create;
    info.name = traced_name(name);
    info.create = [create](NodeId id, const bftsim::SimConfig& cfg) {
      return std::unique_ptr<bftsim::Node>(
          std::make_unique<TracedNode>(id, create(id, cfg)));
    };
    registry.add(std::move(info));
  }
}

}  // namespace perfbench
