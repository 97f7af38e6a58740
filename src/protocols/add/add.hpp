// ADD+ Byzantine agreement (Abraham, Devadas, Dolev, Nayak, Ren —
// "Synchronous Byzantine Agreement with Expected O(1) Rounds, Expected
// O(n^2) Communication, and Optimal Resilience", ePrint 2018/1028).
//
// A synchronous, honest-majority (f < n/2) one-shot BA run in lock-step
// iterations of λ-long rounds. Three variants, as in the paper's Table I:
//
//   v1 — deterministic round-robin leaders. A static attacker that
//        fail-stops the first f leaders delays termination by f
//        iterations (Fig. 8 left).
//   v2 — v1 plus VRF leader election: an extra elect round in which every
//        node broadcasts a VRF credential; the minimum credential wins.
//        Static attackers can no longer predict leaders, restoring
//        expected-constant-iteration termination — but a rushing adaptive
//        attacker can corrupt the winner the moment its credential is
//        revealed, before it proposes (Fig. 8 right).
//   v3 — credentials are revealed *together with* the proposal, and a
//        prepare round locks the leader's value. By the time an adaptive
//        attacker learns who won, the winning proposal is already in
//        flight to everyone (messages sent while honest are delivered),
//        so corruption comes too late: expected-constant iterations even
//        under rushing adaptive attacks.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>

#include "core/config.hpp"
#include "crypto/vrf.hpp"
#include "net/message.hpp"
#include "protocols/common/quorum.hpp"
#include "protocols/node.hpp"

namespace bftsim::add {

enum class Variant : std::uint8_t { kV1, kV2, kV3 };

struct AddElect final : Payload {  // v2 only
  static constexpr PayloadType kType = PayloadType::kAddElect;
  std::uint64_t iter = 0;
  VrfOutput credential;

  AddElect(std::uint64_t i, VrfOutput c) : Payload(kType), iter(i), credential(c) {}
  std::uint64_t digest() const noexcept override {
    return hash_words({0x454cULL, iter, credential.value});
  }
  std::size_t wire_size() const noexcept override { return 112; }
};

struct AddPropose final : Payload {
  static constexpr PayloadType kType = PayloadType::kAddPropose;
  std::uint64_t iter = 0;
  Value value = 0;
  std::uint32_t body_bytes = 0;  ///< batched client requests (0 w/o workload)
  bool has_credential = false;  // v3 carries the credential in the proposal
  VrfOutput credential;

  AddPropose(std::uint64_t i, Value v, std::uint32_t body = 0)
      : Payload(kType), iter(i), value(v), body_bytes(body) {}
  AddPropose(std::uint64_t i, Value v, VrfOutput c, std::uint32_t body = 0)
      : Payload(kType), iter(i), value(v), body_bytes(body),
        has_credential(true), credential(c) {}
  std::uint64_t digest() const noexcept override {
    return hash_words({0x5052ULL, iter, value, credential.value});
  }
  std::size_t wire_size() const noexcept override { return 160 + body_bytes; }
};

struct AddPrepare final : Payload {  // v3 only
  static constexpr PayloadType kType = PayloadType::kAddPrepare;
  std::uint64_t iter = 0;
  Value value = 0;

  AddPrepare(std::uint64_t i, Value v) : Payload(kType), iter(i), value(v) {}
  std::uint64_t digest() const noexcept override {
    return hash_words({0x5245ULL, iter, value});
  }
  std::size_t wire_size() const noexcept override { return 80; }
};

struct AddVote final : Payload {
  static constexpr PayloadType kType = PayloadType::kAddVote;
  std::uint64_t iter = 0;
  Value value = 0;

  AddVote(std::uint64_t i, Value v) : Payload(kType), iter(i), value(v) {}
  std::uint64_t digest() const noexcept override {
    return hash_words({0x564fULL, iter, value});
  }
  std::size_t wire_size() const noexcept override { return 80; }
};

struct AddCommit final : Payload {
  static constexpr PayloadType kType = PayloadType::kAddCommit;
  std::uint64_t iter = 0;
  Value value = 0;

  AddCommit(std::uint64_t i, Value v) : Payload(kType), iter(i), value(v) {}
  std::uint64_t digest() const noexcept override {
    return hash_words({0x434fULL, iter, value});
  }
  std::size_t wire_size() const noexcept override { return 80; }
};

class AddNode final : public Node {
 public:
  AddNode(NodeId id, Variant variant, const SimConfig& cfg);

  void on_start(Context& ctx) override;
  void on_message(const Message& msg, Context& ctx) override;
  void on_timer(const TimerEvent& ev, Context& ctx) override;

  /// Rounds per iteration: v1 propose/vote/commit, v2 adds elect, v3
  /// propose(all)/prepare/commit.
  [[nodiscard]] int rounds_per_iteration() const noexcept {
    return variant_ == Variant::kV2 ? 4 : 3;
  }

 private:
  [[nodiscard]] std::uint32_t quorum(Context& ctx) const noexcept {
    return ctx.f() + 1;  // honest majority: f+1 of n = 2f+1
  }
  /// Re-proposes the locked value (digest only); a fresh mint batches this
  /// node's pending client requests into the proposal.
  [[nodiscard]] ProposalBatch own_proposal(std::uint64_t iter, Context& ctx) {
    if (lock_ != kBottom) return ProposalBatch{lock_, 0, 0};
    return ctx.next_proposal(iter, hash_words({0x414444ULL, iter, ctx.id()}));
  }

  void enter_iteration(std::uint64_t iter, Context& ctx);
  void step(std::uint64_t iter, std::uint64_t round, Context& ctx);
  void do_vote(std::uint64_t iter, Context& ctx);
  void try_commit_phase(std::uint64_t iter, Value value, Context& ctx);
  void handle_elect(const Message& msg, Context& ctx);
  void handle_propose(const Message& msg, Context& ctx);
  void handle_prepare(const Message& msg, Context& ctx);
  void handle_vote(const Message& msg, Context& ctx);
  void handle_commit(const Message& msg, Context& ctx);

  NodeId id_;
  Variant variant_;
  std::uint64_t iter_ = 0;
  Value lock_ = kBottom;
  bool decided_ = false;

  /// v1/v2: the designated leader's proposal for an iteration.
  std::map<std::uint64_t, std::optional<Value>> leader_proposal_;
  /// v2: minimum elect credential seen: (credential, node).
  std::map<std::uint64_t, std::pair<std::uint64_t, NodeId>> min_elect_;
  /// v2: proposals by node (validated against the elected leader later).
  std::map<std::uint64_t, std::map<NodeId, Value>> proposals_;
  /// v3: minimum-credential proposal seen: (credential, value).
  std::map<std::uint64_t, std::pair<std::uint64_t, Value>> best_proposal_;

  QuorumTracker<std::pair<std::uint64_t, Value>> votes_;    // votes / prepares
  QuorumTracker<std::pair<std::uint64_t, Value>> commits_;
  OnceSet<std::uint64_t> commit_sent_;
};

[[nodiscard]] std::unique_ptr<Node> make_add_node(NodeId id, Variant variant,
                                                  const SimConfig& cfg);

}  // namespace bftsim::add
