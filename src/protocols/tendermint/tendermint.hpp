// Tendermint (Buchman, Kwon, Milosevic — "The latest gossip on BFT
// consensus", 2018; the paper's refs [24]/[26]).
//
// Partially-synchronous SMR with f < n/3, organized per height into rounds
// of three steps (propose / prevote / precommit) with rotating proposers.
// Liveness comes from *linearly* growing round timeouts (initial + r·Δ) —
// a third pacemaker design point between HotStuff+NS's message-free
// exponential back-off and LibraBFT's timeout certificates. Safety comes
// from the locking rules: a validator that precommits v locks on it and
// only prevotes something else when the proposal carries a valid-round
// proof that a newer 2f+1 prevote quorum exists (validValue/validRound).
//
// This protocol is an extension beyond the paper's eight (registered as
// "tendermint"), included because the paper cites Tendermint twice and it
// slots naturally into the comparative experiments.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>

#include "core/config.hpp"
#include "net/message.hpp"
#include "protocols/common/quorum.hpp"
#include "protocols/node.hpp"

namespace bftsim::tendermint {

/// Round identifier within a height; nil votes carry kBottom as value.
struct TmProposal final : Payload {
  static constexpr PayloadType kType = PayloadType::kTendermintProposal;
  std::uint64_t height = 0;
  std::uint64_t round = 0;
  Value value = 0;
  std::int64_t valid_round = -1;  ///< -1 = fresh proposal
  std::uint32_t body_bytes = 0;  ///< batched client requests (0 w/o workload)
  Signature sig;

  TmProposal(std::uint64_t h, std::uint64_t r, Value v, std::int64_t vr,
             Signature s, std::uint32_t body = 0)
      : Payload(kType), height(h), round(r), value(v), valid_round(vr),
        body_bytes(body), sig(s) {}
  std::uint64_t digest() const noexcept override {
    return hash_words({0x5450ULL, height, round, value,
                       static_cast<std::uint64_t>(valid_round)});
  }
  std::size_t wire_size() const noexcept override { return 256 + body_bytes; }
};

struct TmPrevote final : Payload {
  static constexpr PayloadType kType = PayloadType::kTendermintPrevote;
  std::uint64_t height = 0;
  std::uint64_t round = 0;
  Value value = kBottom;  ///< kBottom = nil
  Signature sig;

  TmPrevote(std::uint64_t h, std::uint64_t r, Value v, Signature s)
      : Payload(kType), height(h), round(r), value(v), sig(s) {}
  std::uint64_t digest() const noexcept override {
    return hash_words({0x5456ULL, height, round, value});
  }
  std::size_t wire_size() const noexcept override { return 96; }
};

struct TmPrecommit final : Payload {
  static constexpr PayloadType kType = PayloadType::kTendermintPrecommit;
  std::uint64_t height = 0;
  std::uint64_t round = 0;
  Value value = kBottom;  ///< kBottom = nil
  Signature sig;

  TmPrecommit(std::uint64_t h, std::uint64_t r, Value v, Signature s)
      : Payload(kType), height(h), round(r), value(v), sig(s) {}
  std::uint64_t digest() const noexcept override {
    return hash_words({0x5443ULL, height, round, value});
  }
  std::size_t wire_size() const noexcept override { return 96; }
};

class TendermintNode final : public Node {
 public:
  TendermintNode(NodeId id, const SimConfig& cfg);

  void on_start(Context& ctx) override;
  void on_message(const Message& msg, Context& ctx) override;
  void on_timer(const TimerEvent& ev, Context& ctx) override;

  /// Initial step timeout as a multiple of λ; grows by λ/2 per round.
  static constexpr int kInitialFactor = 2;

 private:
  enum class Step : std::uint8_t { kPropose, kPrevote, kPrecommit };

  [[nodiscard]] NodeId proposer_of(std::uint64_t height, std::uint64_t round,
                                   Context& ctx) const noexcept {
    return static_cast<NodeId>((height + round) % ctx.n());
  }
  [[nodiscard]] std::uint32_t quorum(Context& ctx) const noexcept {
    return 2 * ctx.f() + 1;
  }
  [[nodiscard]] Time timeout_of(std::uint64_t round, Context& ctx) const noexcept {
    return kInitialFactor * ctx.lambda() +
           static_cast<Time>(round) * ctx.lambda() / 2;
  }
  [[nodiscard]] std::uint64_t tag_of(std::uint64_t round, Step step) const noexcept {
    return round * 4 + static_cast<std::uint64_t>(step);
  }

  void start_round(std::uint64_t round, Context& ctx);
  void broadcast_prevote(Value value, Context& ctx);
  void broadcast_precommit(Value value, Context& ctx);
  void handle_proposal(const Message& msg, Context& ctx);
  void handle_prevote(const Message& msg, Context& ctx);
  void handle_precommit(const Message& msg, Context& ctx);
  void try_prevote(Context& ctx);
  void maybe_precommit(std::uint64_t round, Value value, Context& ctx);
  void maybe_decide(std::uint64_t round, Value value, Context& ctx);
  void advance_height(Value decided, Context& ctx);

  NodeId id_;
  std::uint64_t height_ = 0;
  std::uint64_t round_ = 0;
  Step step_ = Step::kPropose;

  // Locking state (per height).
  Value locked_value_ = kBottom;
  std::int64_t locked_round_ = -1;
  Value valid_value_ = kBottom;
  std::int64_t valid_round_ = -1;

  /// Proposals received, keyed by round (first valid proposal wins).
  std::map<std::uint64_t, std::pair<Value, std::int64_t>> proposals_;
  QuorumTracker<std::pair<std::uint64_t, Value>> prevotes_;
  QuorumTracker<std::pair<std::uint64_t, Value>> precommits_;
  QuorumTracker<std::uint64_t> any_precommits_;  ///< distinct voters per round
  OnceSet<std::uint64_t> prevoted_;
  OnceSet<std::uint64_t> precommitted_;
  bool decided_this_height_ = false;
};

[[nodiscard]] std::unique_ptr<Node> make_tendermint_node(NodeId id,
                                                         const SimConfig& cfg);

}  // namespace bftsim::tendermint
