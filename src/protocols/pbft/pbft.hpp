// Practical Byzantine Fault Tolerance (Castro & Liskov, OSDI '99).
//
// Partially-synchronous SMR with f < n/3. The implementation follows the
// classic three-phase structure (pre-prepare / prepare / commit, quorum
// 2f+1) with a view-change sub-protocol whose timeout doubles on every
// view change (the doubling is what makes PBFT live under partial
// synchrony) and resets after progress. Sequence numbers are decided in
// order; the leader of the current view proposes the next sequence as soon
// as the previous one decides.
//
// Simplifications relative to a production deployment (documented in
// DESIGN.md): clients and request batching are modeled as a built-in
// stream of proposals; checkpoints/garbage collection are unnecessary at
// simulation scale; the new-view message carries the single highest
// prepared value rather than full prepared-certificate sets (equivalent
// here because sequences are decided one at a time).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>

#include "core/config.hpp"
#include "crypto/signature.hpp"
#include "net/message.hpp"
#include "protocols/common/quorum.hpp"
#include "protocols/node.hpp"

namespace bftsim::pbft {

// --- messages ---------------------------------------------------------------

struct PrePrepare final : Payload {
  static constexpr PayloadType kType = PayloadType::kPbftPrePrepare;
  View view = 0;
  std::uint64_t seq = 0;
  Value value = kBottom;
  /// Wire weight of the batched client requests the proposal carries
  /// (0 without a workload, and on digest-only re-proposals).
  std::uint32_t body_bytes = 0;
  Signature sig;

  PrePrepare(View v, std::uint64_t s, Value val, Signature signature,
             std::uint32_t body = 0)
      : Payload(kType), view(v), seq(s), value(val), body_bytes(body),
        sig(signature) {}
  std::uint64_t digest() const noexcept override {
    return hash_words({0x5050ULL, view, seq, value});
  }
  std::size_t wire_size() const noexcept override { return 192 + body_bytes; }
};

struct Prepare final : Payload {
  static constexpr PayloadType kType = PayloadType::kPbftPrepare;
  View view = 0;
  std::uint64_t seq = 0;
  Value value = kBottom;
  Signature sig;

  Prepare(View v, std::uint64_t s, Value val, Signature signature)
      : Payload(kType), view(v), seq(s), value(val), sig(signature) {}
  std::uint64_t digest() const noexcept override {
    return hash_words({0x5052ULL, view, seq, value});
  }
  std::size_t wire_size() const noexcept override { return 96; }
};

struct Commit final : Payload {
  static constexpr PayloadType kType = PayloadType::kPbftCommit;
  View view = 0;
  std::uint64_t seq = 0;
  Value value = kBottom;
  Signature sig;

  Commit(View v, std::uint64_t s, Value val, Signature signature)
      : Payload(kType), view(v), seq(s), value(val), sig(signature) {}
  std::uint64_t digest() const noexcept override {
    return hash_words({0x434dULL, view, seq, value});
  }
  std::size_t wire_size() const noexcept override { return 96; }
};

struct ViewChange final : Payload {
  static constexpr PayloadType kType = PayloadType::kPbftViewChange;
  View new_view = 0;
  std::uint64_t seq = 0;  ///< the sender's working sequence number
  bool has_prepared = false;
  View prepared_view = 0;
  Value prepared_value = kBottom;
  Signature sig;

  ViewChange(View nv, std::uint64_t s, bool hp, View pv, Value pval, Signature signature)
      : Payload(kType), new_view(nv), seq(s), has_prepared(hp), prepared_view(pv),
        prepared_value(pval), sig(signature) {}
  std::uint64_t digest() const noexcept override {
    return hash_words({0x5643ULL, new_view, seq,
                       static_cast<std::uint64_t>(has_prepared), prepared_view,
                       prepared_value});
  }
  std::size_t wire_size() const noexcept override { return 256; }
};

struct NewView final : Payload {
  static constexpr PayloadType kType = PayloadType::kPbftNewView;
  View new_view = 0;
  std::uint64_t seq = 0;
  bool has_prepared = false;
  Value prepared_value = kBottom;
  Signature sig;

  NewView(View nv, std::uint64_t s, bool hp, Value pval, Signature signature)
      : Payload(kType), new_view(nv), seq(s), has_prepared(hp), prepared_value(pval),
        sig(signature) {}
  std::uint64_t digest() const noexcept override {
    return hash_words({0x4e56ULL, new_view, seq,
                       static_cast<std::uint64_t>(has_prepared), prepared_value});
  }
  std::size_t wire_size() const noexcept override { return 320; }
};

// --- node -------------------------------------------------------------------

class PbftNode final : public Node {
 public:
  /// `quorum_slack` is subtracted from every 2f+1 quorum (prepare, commit,
  /// view change). It exists solely so the fuzzer's canary variant
  /// ("pbft-canary", quorum 2f — see src/explore/canary.hpp) can exercise
  /// the safety oracles against a known-unsound protocol; production
  /// configurations always run with slack 0.
  PbftNode(NodeId id, const SimConfig& cfg, std::uint32_t quorum_slack = 0);

  void on_start(Context& ctx) override;
  void on_message(const Message& msg, Context& ctx) override;
  void on_timer(const TimerEvent& ev, Context& ctx) override;

  /// Multiple of λ used as the base view timeout (pre-prepare + prepare +
  /// commit is three one-way delays; 6 leaves headroom for quorum tails).
  static constexpr int kTimeoutFactor = 6;
  /// Upper bound on the doubled timeout, as production deployments use
  /// (Castro & Liskov prescribe doubling; implementations cap the retry
  /// interval so view changes keep being retransmitted after outages).
  static constexpr int kMaxTimeoutDoublings = 2;

 private:
  struct Instance {
    std::optional<Value> pre_prepared;
    QuorumTracker<Value> prepares;
    QuorumTracker<Value> commits;
    bool prepared = false;
    bool sent_prepare = false;
    bool sent_commit = false;
    std::optional<Value> committed;  ///< set when 2f+1 commits seen
  };

  [[nodiscard]] NodeId leader_of(View v, Context& ctx) const noexcept {
    return static_cast<NodeId>(v % ctx.n());
  }
  [[nodiscard]] std::uint32_t quorum(Context& ctx) const noexcept {
    return 2 * ctx.f() + 1 - quorum_slack_;
  }
  [[nodiscard]] Instance& instance(View view, std::uint64_t seq) {
    return instances_[{view, seq}];
  }

  void start_view_timer(Context& ctx);
  void propose(Context& ctx);
  void send_prepare(View view, std::uint64_t seq, Value value, Context& ctx);
  void handle_pre_prepare(const Message& msg, Context& ctx);
  void handle_prepare(const Message& msg, Context& ctx);
  void handle_commit(const Message& msg, Context& ctx);
  void handle_view_change(const Message& msg, Context& ctx);
  void handle_new_view(const Message& msg, Context& ctx);
  void maybe_prepare(View view, std::uint64_t seq, Context& ctx);
  void maybe_commit(View view, std::uint64_t seq, Value value, Context& ctx);
  void try_decide(std::uint64_t seq, Value value, Context& ctx);
  void initiate_view_change(View target, Context& ctx);
  void maybe_complete_view_change(View target, Context& ctx);
  void enter_view(View v, Context& ctx);
  void send_catch_up(NodeId dst, std::uint64_t from_seq, Context& ctx);

  NodeId id_;
  std::uint32_t quorum_slack_ = 0;  ///< nonzero only in the fuzzer canary
  View view_ = 0;
  bool in_view_change_ = false;
  View target_view_ = 0;
  std::uint64_t working_seq_ = 0;  ///< next sequence to decide
  Time timeout_ = 0;               ///< current view timeout (doubles on VC)
  Time base_timeout_ = 0;
  TimerId view_timer_ = 0;
  // Commit retransmission toward laggards (PBFT's state-transfer mechanism,
  // reduced to what the simulation needs). Without it a node that slept
  // through a sequence can never rebuild the 2f+1 commit certificate —
  // nobody re-sends commits — so crash/recover would permanently forfeit
  // liveness for the recovered node. Only enabled when fault injection is
  // active, which keeps fault-free runs byte-identical to the goldens.
  bool fault_catch_up_ = false;

  std::map<std::pair<View, std::uint64_t>, Instance> instances_;

  // View-change bookkeeping.
  struct VcInfo {
    bool has_prepared = false;
    View prepared_view = 0;
    Value prepared_value = kBottom;
    std::uint64_t seq = 0;
  };
  std::map<View, std::map<NodeId, VcInfo>> view_changes_;
  std::map<NodeId, View> latest_vc_of_;  ///< join rule bookkeeping
  OnceSet<View> new_view_sent_;

  // Highest prepared value for the working sequence (carried in VCs).
  std::map<std::uint64_t, std::pair<View, Value>> prepared_at_;
};

[[nodiscard]] std::unique_ptr<Node> make_pbft_node(NodeId id, const SimConfig& cfg);

}  // namespace bftsim::pbft
