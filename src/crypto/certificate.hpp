// Quorum and timeout certificates, shared by the HotStuff-family protocols.
//
// A certificate's signer list is the bulk of every HotStuff message: about
// 2.7k ids at n=4096, which every replica keeps in its block store, high QC
// and lock. `SignerList` makes that bulk one shared, immutable body, so
// copying a certificate (into a block, a proposal, the node state) is a
// reference count, and the two per-list answers a certificate needs — "are
// the ids distinct?" and "the hash fold of the ids" — are computed once per
// body.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <vector>

#include "core/types.hpp"
#include "crypto/hash.hpp"

namespace bftsim {

/// An ordered list of signer ids behind one shared body. Copies share the
/// body (O(1)); the ids keep the order they were given in, so digests and
/// trace bytes see exactly the list that was built.
///
/// The distinctness verdict and the digest fold are cached in the body
/// with atomics, so the lanes of the windowed engine can read one
/// certificate at once. The vector-like mutators (`push_back`, `resize`,
/// non-const `operator[]`) are for building a list on one thread: they
/// give this list a private copy of a shared body before writing, and
/// clear its caches, so no other holder of the body ever sees a change.
class SignerList {
 public:
  SignerList() = default;
  SignerList(std::initializer_list<NodeId> ids)
      : SignerList(ids.begin(), ids.end()) {}
  /// The ids in [first, last), in order (e.g. a `VoterSet`, ascending).
  template <std::input_iterator It>
  SignerList(It first, It last) : body_(std::make_shared<Body>()) {
    body_->ids.assign(first, last);
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return body_ ? body_->ids.size() : 0;
  }
  [[nodiscard]] const NodeId* begin() const noexcept {
    return body_ ? body_->ids.data() : nullptr;
  }
  [[nodiscard]] const NodeId* end() const noexcept { return begin() + size(); }
  [[nodiscard]] NodeId operator[](std::size_t i) const noexcept {
    return body_->ids[i];
  }

  NodeId& operator[](std::size_t i) { return writable().ids[i]; }
  void push_back(NodeId id) { writable().ids.push_back(id); }
  void resize(std::size_t n) { writable().ids.resize(n); }

  /// True when this list and `other` share one body.
  [[nodiscard]] bool shares_body_with(const SignerList& other) const noexcept {
    return body_ != nullptr && body_ == other.body_;
  }

  /// A quorum proof: at least `quorum` ids, all distinct.
  [[nodiscard]] bool covers(std::uint32_t quorum) const noexcept {
    return size() >= quorum && distinct();
  }

  /// `hash_combine` folded over the ids, starting from `seed`. The first
  /// seed's fold is cached in the body; a certificate always asks with
  /// the same seed, its own header.
  [[nodiscard]] std::uint64_t fold(std::uint64_t seed) const noexcept;

 private:
  struct Body {
    std::vector<NodeId> ids;
    /// kUnchecked until the first `covers` call; the verdict is a pure
    /// function of `ids`, so racing first readers store the same value.
    std::atomic<std::uint8_t> verdict{kUnchecked};
    /// Write-once fold cache: the thread that moves kEmpty → kWriting
    /// fills seed/value, then publishes kReady with release order.
    std::atomic<std::uint8_t> fold_state{kEmpty};
    std::uint64_t fold_seed = 0;
    std::uint64_t fold_value = 0;
  };
  static constexpr std::uint8_t kUnchecked = 0, kDistinct = 1,
                                kDuplicate = 2;
  static constexpr std::uint8_t kEmpty = 0, kWriting = 1, kReady = 2;

  [[nodiscard]] bool distinct() const noexcept;
  Body& writable();

  std::shared_ptr<Body> body_;  ///< null for the empty list
};

inline bool SignerList::distinct() const noexcept {
  if (!body_) return true;
  std::uint8_t verdict = body_->verdict.load(std::memory_order_relaxed);
  if (verdict == kUnchecked) {
    // Lists built from a VoterSet are ascending and checkable in place;
    // only unsorted ones (forged, hand-built) pay for a sorted copy.
    const std::vector<NodeId>* ids = &body_->ids;
    std::vector<NodeId> sorted;
    if (!std::is_sorted(ids->begin(), ids->end())) {
      sorted = *ids;
      std::sort(sorted.begin(), sorted.end());
      ids = &sorted;
    }
    const bool ok =
        std::adjacent_find(ids->begin(), ids->end()) == ids->end();
    verdict = ok ? kDistinct : kDuplicate;
    body_->verdict.store(verdict, std::memory_order_relaxed);
  }
  return verdict == kDistinct;
}

inline std::uint64_t SignerList::fold(std::uint64_t seed) const noexcept {
  if (!body_) return seed;
  Body& b = *body_;
  if (b.fold_state.load(std::memory_order_acquire) == kReady &&
      b.fold_seed == seed) {
    return b.fold_value;
  }
  std::uint64_t h = seed;
  for (const NodeId id : b.ids) h = hash_combine(h, id);
  std::uint8_t expected = kEmpty;
  if (b.fold_state.compare_exchange_strong(expected, kWriting,
                                           std::memory_order_relaxed)) {
    b.fold_seed = seed;
    b.fold_value = h;
    b.fold_state.store(kReady, std::memory_order_release);
  }
  return h;
}

inline SignerList::Body& SignerList::writable() {
  if (!body_) {
    body_ = std::make_shared<Body>();
  } else if (body_.use_count() > 1) {
    auto own = std::make_shared<Body>();  // detach from the sharers
    own->ids = body_->ids;
    body_ = std::move(own);
  } else {
    body_->verdict.store(kUnchecked, std::memory_order_relaxed);
    body_->fold_state.store(kEmpty, std::memory_order_relaxed);
  }
  return *body_;
}

/// A quorum certificate: proof that `quorum` distinct nodes voted for block
/// `block` in view `view`.
struct QuorumCert {
  View view = 0;
  Value block = kBottom;  ///< block id the votes certify
  SignerList signers;

  [[nodiscard]] bool valid(std::uint32_t quorum) const noexcept {
    return signers.covers(quorum);
  }
  [[nodiscard]] std::uint64_t digest() const noexcept {
    return signers.fold(hash_words({view, block}));
  }

  /// The genesis certificate (view 0, genesis block) that bootstraps chains.
  [[nodiscard]] static QuorumCert genesis() { return QuorumCert{0, 0, {}}; }
};

/// A timeout certificate (LibraBFT): proof that `quorum` distinct nodes
/// timed out in view `view`.
struct TimeoutCert {
  View view = 0;
  SignerList signers;

  [[nodiscard]] bool valid(std::uint32_t quorum) const noexcept {
    return signers.covers(quorum);
  }
  [[nodiscard]] std::uint64_t digest() const noexcept {
    return signers.fold(hash_words({view, 0x5443ULL}));
  }
};

}  // namespace bftsim
