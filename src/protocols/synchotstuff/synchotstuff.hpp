// Sync HotStuff (Abraham, Malkhi, Nayak, Ren, Yin — S&P 2020), simplified
// steady state + blame-based view change.
//
// A synchronous SMR protocol with optimal honest-majority resilience
// (f < n/2) whose commit rule is a *timer*: a replica that votes for a
// block commits it 2Δ later unless it observed leader equivocation in the
// meantime (within 2Δ every honest vote has arrived, so a conflicting
// certificate is impossible). Leaders pipeline: each certificate (f+1
// votes) immediately justifies the next proposal, so the steady-state
// commit rate is one block per ~2 message delays while each commit
// individually waits its 2Δ.
//
// View change: replicas blame a silent leader after 3Δ without progress;
// f+1 blame messages form a quit-view certificate carried to the next
// leader. Equivocation (two signed proposals for the same height and
// view) is broadcast as evidence and also triggers the view change —
// that is the detection mechanism the "sync-hotstuff-equivocation" attack
// exercises.
//
// Like Tendermint, this protocol is an extension beyond the paper's eight
// (registered as "sync-hotstuff"); the paper's related work discusses an
// attack on it (Momose's force-locking attack), and its 2Δ commit timer
// makes it the most λ-sensitive protocol in the suite — a useful extreme
// for the Fig. 4-style responsiveness experiments.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>

#include "core/config.hpp"
#include "net/message.hpp"
#include "protocols/common/quorum.hpp"
#include "protocols/node.hpp"

namespace bftsim::synchotstuff {

struct ShsProposal final : Payload {
  static constexpr PayloadType kType = PayloadType::kSyncHotStuffProposal;
  std::uint64_t height = 0;
  View view = 0;
  Value value = 0;
  std::uint32_t body_bytes = 0;  ///< batched client requests (0 w/o workload)
  Signature sig;

  ShsProposal(std::uint64_t h, View v, Value val, Signature s,
              std::uint32_t body = 0)
      : Payload(kType), height(h), view(v), value(val), body_bytes(body),
        sig(s) {}
  std::uint64_t digest() const noexcept override {
    return hash_words({0x5348ULL, height, view, value});
  }
  std::size_t wire_size() const noexcept override { return 256 + body_bytes; }
};

struct ShsVote final : Payload {
  static constexpr PayloadType kType = PayloadType::kSyncHotStuffVote;
  std::uint64_t height = 0;
  View view = 0;
  Value value = 0;
  Signature sig;

  ShsVote(std::uint64_t h, View v, Value val, Signature s)
      : Payload(kType), height(h), view(v), value(val), sig(s) {}
  std::uint64_t digest() const noexcept override {
    return hash_words({0x5356ULL, height, view, value});
  }
  std::size_t wire_size() const noexcept override { return 96; }
};

struct ShsBlame final : Payload {
  static constexpr PayloadType kType = PayloadType::kSyncHotStuffBlame;
  View view = 0;
  Signature sig;

  ShsBlame(View v, Signature s) : Payload(kType), view(v), sig(s) {}
  std::uint64_t digest() const noexcept override {
    return hash_words({0x5342ULL, view});
  }
  std::size_t wire_size() const noexcept override { return 80; }
};

class SyncHotStuffNode final : public Node {
 public:
  SyncHotStuffNode(NodeId id, const SimConfig& cfg);

  void on_start(Context& ctx) override;
  void on_message(const Message& msg, Context& ctx) override;
  void on_timer(const TimerEvent& ev, Context& ctx) override;

  /// Commit delay as a multiple of Δ (= λ): the protocol's 2Δ rule.
  static constexpr int kCommitFactor = 2;
  /// Blame a leader after this many Δ without progress.
  static constexpr int kBlameFactor = 3;

 private:
  enum class TimerKind : std::uint64_t { kCommit = 0, kBlame = 1 };

  [[nodiscard]] NodeId leader_of(View v, Context& ctx) const noexcept {
    return static_cast<NodeId>(v % ctx.n());
  }
  [[nodiscard]] std::uint32_t quorum(Context& ctx) const noexcept {
    return ctx.f() + 1;  // honest majority
  }

  void enter_view(View view, Context& ctx);
  void propose(Context& ctx);
  void restart_blame_timer(Context& ctx);
  void handle_proposal(const Message& msg, Context& ctx);
  void handle_vote(const Message& msg, Context& ctx);
  void handle_blame(const Message& msg, Context& ctx);
  void commit_up_to(std::uint64_t height, Context& ctx);

  NodeId id_;
  View view_ = 0;
  bool view_quit_ = false;      ///< stopped participating, awaiting next view
  std::uint64_t next_height_ = 0;  ///< next height this node expects
  std::uint64_t committed_ = 0;    ///< heights strictly below are committed

  /// Proposal accepted per (view, height): value (first one wins;
  /// a different second one is equivocation evidence).
  std::map<std::pair<View, std::uint64_t>, Value> accepted_;
  std::map<std::uint64_t, Value> chain_;  ///< height -> voted value
  QuorumTracker<std::tuple<View, std::uint64_t, Value>> votes_;
  QuorumTracker<View> blames_;
  OnceSet<std::pair<View, std::uint64_t>> voted_height_;
  OnceSet<View> blamed_;
  std::map<std::uint64_t, TimerId> commit_timers_;  ///< height -> pending timer
  TimerId blame_timer_ = 0;
};

[[nodiscard]] std::unique_ptr<Node> make_sync_hotstuff_node(NodeId id,
                                                            const SimConfig& cfg);

}  // namespace bftsim::synchotstuff
