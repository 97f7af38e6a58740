// Algorand Agreement (Chen, Gorbunov, Micali, Vlachos — ePrint 2018/377).
//
// A synchronous, partition-resilient Byzantine agreement. Execution is
// organized in periods; within a period, nodes (1) broadcast value
// proposals carrying VRF credentials (the minimum credential is the
// period's leader), (2) soft-vote the leader's value after waiting 2λ,
// (3) cert-vote upon a soft-vote quorum — a cert-vote quorum decides —
// and (4) next-vote after 4λ to move the system into the next period.
// All period transitions are certificate-driven (2f+1 next-votes), never
// timer-driven, which is what makes the protocol partition-resilient:
// after a partition heals, the first next-vote quorum to assemble pulls
// every node into the same period (Fig. 6). Periodic retransmission of
// the latest votes guarantees those quorums eventually assemble.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "core/config.hpp"
#include "crypto/vrf.hpp"
#include "net/message.hpp"
#include "protocols/common/quorum.hpp"
#include "protocols/node.hpp"

namespace bftsim::algorand {

struct AlgoProposal final : Payload {
  static constexpr PayloadType kType = PayloadType::kAlgorandProposal;
  std::uint64_t period = 1;
  Value value = 0;
  std::uint32_t body_bytes = 0;  ///< batched client requests (0 w/o workload)
  VrfOutput credential;

  AlgoProposal(std::uint64_t p, Value v, VrfOutput c, std::uint32_t body = 0)
      : Payload(kType), period(p), value(v), body_bytes(body), credential(c) {}
  std::uint64_t digest() const noexcept override {
    return hash_words({0x4150ULL, period, value, credential.value});
  }
  std::size_t wire_size() const noexcept override { return 160 + body_bytes; }
};

struct AlgoSoftVote final : Payload {
  static constexpr PayloadType kType = PayloadType::kAlgorandSoftVote;
  std::uint64_t period = 1;
  Value value = 0;

  AlgoSoftVote(std::uint64_t p, Value v) : Payload(kType), period(p), value(v) {}
  std::uint64_t digest() const noexcept override {
    return hash_words({0x4153ULL, period, value});
  }
  std::size_t wire_size() const noexcept override { return 80; }
};

struct AlgoCertVote final : Payload {
  static constexpr PayloadType kType = PayloadType::kAlgorandCertVote;
  std::uint64_t period = 1;
  Value value = 0;

  AlgoCertVote(std::uint64_t p, Value v) : Payload(kType), period(p), value(v) {}
  std::uint64_t digest() const noexcept override {
    return hash_words({0x4143ULL, period, value});
  }
  std::size_t wire_size() const noexcept override { return 80; }
};

struct AlgoNextVote final : Payload {
  static constexpr PayloadType kType = PayloadType::kAlgorandNextVote;
  std::uint64_t period = 1;
  Value value = kBottom;  ///< kBottom encodes ⊥

  AlgoNextVote(std::uint64_t p, Value v) : Payload(kType), period(p), value(v) {}
  std::uint64_t digest() const noexcept override {
    return hash_words({0x414eULL, period, value});
  }
  std::size_t wire_size() const noexcept override { return 80; }
};

class AlgorandNode final : public Node {
 public:
  AlgorandNode(NodeId id, const SimConfig& cfg);

  void on_start(Context& ctx) override;
  void on_message(const Message& msg, Context& ctx) override;
  void on_timer(const TimerEvent& ev, Context& ctx) override;

 private:
  enum class Step : std::uint64_t { kSoft = 0, kNext = 1, kRepeat = 2 };

  [[nodiscard]] static std::uint64_t tag_of(std::uint64_t period, Step s) noexcept {
    return period * 4 + static_cast<std::uint64_t>(s);
  }
  [[nodiscard]] std::uint32_t quorum(Context& ctx) const noexcept {
    return 2 * ctx.f() + 1;
  }

  void enter_period(std::uint64_t period, Value starting, Context& ctx);
  void broadcast_proposal(Context& ctx);
  void do_soft_vote(Context& ctx);
  void do_next_vote(Context& ctx);
  void retransmit(Context& ctx);

  NodeId id_;
  std::uint64_t period_ = 1;
  Value starting_ = kBottom;
  bool decided_ = false;

  /// Minimum credential proposal seen per period: (credential, value).
  std::map<std::uint64_t, std::pair<std::uint64_t, Value>> best_proposal_;
  QuorumTracker<std::pair<std::uint64_t, Value>> soft_votes_;
  QuorumTracker<std::pair<std::uint64_t, Value>> cert_votes_;
  QuorumTracker<std::pair<std::uint64_t, Value>> next_votes_;
  OnceSet<std::uint64_t> soft_voted_;
  OnceSet<std::uint64_t> cert_voted_;
  OnceSet<std::uint64_t> next_voted_;
  std::map<std::uint64_t, Value> cert_value_;  ///< value cert-voted per period
  std::map<std::uint64_t, Value> soft_value_;  ///< value soft-voted per period
  std::map<std::uint64_t, Value> next_value_;  ///< value next-voted per period
};

[[nodiscard]] std::unique_ptr<Node> make_algorand_node(NodeId id,
                                                       const SimConfig& cfg);

}  // namespace bftsim::algorand
