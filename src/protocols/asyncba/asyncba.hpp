// Bracha's asynchronous Byzantine agreement (Information & Computation '87).
//
// Binary consensus for f < n/3 in a fully asynchronous network. Every
// value exchanged is disseminated via Bracha's reliable broadcast
// (init / echo / ready with amplification), which prevents equivocation;
// rounds consist of three steps (value, lock, decide) and the decide step
// falls back to a local coin, yielding probabilistic termination (the FLP
// result rules out deterministic termination).
//
// The protocol ignores λ entirely — there are no timers — which is why its
// performance is unaffected by timeout configuration in Figs. 4 and 5.
//
// Workload note: asyncba decides single bits, not proposer-minted values,
// so it never calls Context::next_proposal — a configured client workload
// runs its arrival streams but every decision counts as an empty decision
// (requests stay pending; see docs/WORKLOADS.md).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <tuple>

#include "core/config.hpp"
#include "net/message.hpp"
#include "protocols/common/quorum.hpp"
#include "protocols/node.hpp"

namespace bftsim::asyncba {

/// Identifies one reliable-broadcast instance: (round, step, originator).
using RbcKey = std::tuple<std::uint64_t, std::uint8_t, NodeId>;

struct BrachaInit final : Payload {
  static constexpr PayloadType kType = PayloadType::kBrachaInit;
  std::uint64_t round = 0;
  std::uint8_t step = 1;
  Value value = 0;

  BrachaInit(std::uint64_t r, std::uint8_t s, Value v)
      : Payload(kType), round(r), step(s), value(v) {}
  std::uint64_t digest() const noexcept override {
    return hash_words({0x494eULL, round, step, value});
  }
  std::size_t wire_size() const noexcept override { return 80; }
};

struct BrachaEcho final : Payload {
  static constexpr PayloadType kType = PayloadType::kBrachaEcho;
  std::uint64_t round = 0;
  std::uint8_t step = 1;
  NodeId origin = kNoNode;
  Value value = 0;

  BrachaEcho(std::uint64_t r, std::uint8_t s, NodeId o, Value v)
      : Payload(kType), round(r), step(s), origin(o), value(v) {}
  std::uint64_t digest() const noexcept override {
    return hash_words({0x4543ULL, round, step, origin, value});
  }
  std::size_t wire_size() const noexcept override { return 88; }
};

struct BrachaReady final : Payload {
  static constexpr PayloadType kType = PayloadType::kBrachaReady;
  std::uint64_t round = 0;
  std::uint8_t step = 1;
  NodeId origin = kNoNode;
  Value value = 0;

  BrachaReady(std::uint64_t r, std::uint8_t s, NodeId o, Value v)
      : Payload(kType), round(r), step(s), origin(o), value(v) {}
  std::uint64_t digest() const noexcept override {
    return hash_words({0x5244ULL, round, step, origin, value});
  }
  std::size_t wire_size() const noexcept override { return 88; }
};

class AsyncBaNode final : public Node {
 public:
  /// Inputs are configured via SimConfig::protocol_params "input":
  /// "ones" (default), "zeros", "split" (id parity), "random".
  AsyncBaNode(NodeId id, const SimConfig& cfg);

  /// Retransmission interval as a multiple of λ. The asynchronous model
  /// assumes reliable eventual delivery; over a lossy/partitioned link the
  /// standard engineering answer is periodic retransmission of the current
  /// protocol state, which is what keeps async BA live through the Fig. 6
  /// partition (λ serves only as a convenient engineering time scale —
  /// protocol logic never depends on it).
  static constexpr int kRetransmitFactor = 4;

  void on_start(Context& ctx) override;
  void on_message(const Message& msg, Context& ctx) override;
  void on_timer(const TimerEvent& ev, Context& ctx) override;

 private:
  [[nodiscard]] std::uint32_t echo_quorum(Context& ctx) const noexcept {
    return (ctx.n() + ctx.f()) / 2 + 1;
  }

  void rbc_broadcast(Context& ctx);  ///< RBCs `value_` for (round_, step_)
  void retransmit(Context& ctx);
  void try_accept(const RbcKey& key, Value value, Context& ctx);
  void try_process(Context& ctx);
  void process_step(const std::map<NodeId, Value>& accepted, Context& ctx);

  NodeId id_;
  Value input_ = 1;
  Value value_ = 1;           ///< current working value (kBottom = ⊥)
  std::uint64_t round_ = 1;
  std::uint8_t step_ = 1;
  bool decided_ = false;

  QuorumTracker<std::pair<RbcKey, Value>> echoes_;
  QuorumTracker<std::pair<RbcKey, Value>> readies_;
  OnceSet<RbcKey> echo_sent_;
  OnceSet<RbcKey> ready_sent_;
  std::map<RbcKey, Value> echoed_;   ///< what we echoed, for retransmission
  std::map<RbcKey, Value> readied_;  ///< what we readied, for retransmission
  OnceSet<RbcKey> accepted_once_;
  std::map<std::pair<std::uint64_t, std::uint8_t>, std::map<NodeId, Value>> accepted_;
  OnceSet<std::pair<std::uint64_t, std::uint8_t>> processed_;
};

[[nodiscard]] std::unique_ptr<Node> make_asyncba_node(NodeId id, const SimConfig& cfg);

}  // namespace bftsim::asyncba
