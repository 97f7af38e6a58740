// Payload type tags: the one identity of every message kind.
//
// Each kind is a stable small integer. The hot-path message dispatch
// (Node::on_message) switches on these tags, Message::as<T>() checks the
// tag and static_casts, and traces carry the tag. The kind's
// human-readable name is registered once, here in the registry (builtins
// in net/payload_type.cpp): trace files, the delay-schedule attack's
// `type` parameter and trace_inspect map between tags and names through
// it.
//
// Custom protocols pick ids at or above kUserBase and register a name for
// each; see examples/custom_protocol.cpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bftsim {

/// Stable id per message kind. Builtin protocols enumerate below
/// kBuiltinSentinel; user protocols start at kUserBase.
enum class PayloadType : std::uint16_t {
  kUnknown = 0,  ///< no payload (non-message trace records); name ""

  // PBFT.
  kPbftPrePrepare,
  kPbftPrepare,
  kPbftCommit,
  kPbftViewChange,
  kPbftNewView,

  // Chained HotStuff core (shared by hotstuff-ns and librabft).
  kHotStuffProposal,
  kHotStuffVote,
  kHotStuffBlockRequest,
  kHotStuffBlockResponse,

  // LibraBFT pacemaker.
  kLibraTimeout,
  kLibraTimeoutCertificate,

  // Tendermint.
  kTendermintProposal,
  kTendermintPrevote,
  kTendermintPrecommit,

  // Sync HotStuff.
  kSyncHotStuffProposal,
  kSyncHotStuffVote,
  kSyncHotStuffBlame,

  // ADD+ variants.
  kAddElect,
  kAddPropose,
  kAddPrepare,
  kAddVote,
  kAddCommit,

  // Algorand.
  kAlgorandProposal,
  kAlgorandSoftVote,
  kAlgorandCertVote,
  kAlgorandNextVote,

  // Bracha async BA.
  kBrachaInit,
  kBrachaEcho,
  kBrachaReady,

  // A copy corrupted in flight (faults/). No protocol dispatches it.
  kCorrupt,

  kBuiltinSentinel,  ///< one past the last builtin id

  /// First id available to user-defined protocols.
  kUserBase = 64,
};

[[nodiscard]] constexpr std::uint16_t to_index(PayloadType t) noexcept {
  return static_cast<std::uint16_t>(t);
}

/// Maps payload type ids to their human-readable names and back. Builtins
/// are registered on first access; custom protocols register theirs next
/// to their ProtocolRegistry entry, before any run or trace read uses
/// them (the registry is not safe to extend while runs read it).
class PayloadTypeRegistry {
 public:
  /// The singleton registry, with all builtin types registered.
  [[nodiscard]] static PayloadTypeRegistry& instance();

  /// Registers a type id under a non-empty name; throws
  /// std::invalid_argument when the id is already registered under a
  /// different name or the name is already held by another id.
  void add(PayloadType id, std::string_view name);

  /// Name of `id`; "" for kUnknown and for unregistered ids.
  [[nodiscard]] const std::string& name(PayloadType id) const noexcept {
    return entry(id).name;
  }

  /// fnv1a64(name(id)), computed once at registration.
  [[nodiscard]] std::uint64_t name_hash(PayloadType id) const noexcept {
    return entry(id).hash;
  }

  /// The id registered under `name`; kUnknown for "", nullopt when no id
  /// holds the name.
  [[nodiscard]] std::optional<PayloadType> find(std::string_view name) const;

  [[nodiscard]] bool contains(PayloadType id) const noexcept {
    return !name(id).empty();
  }

 private:
  struct Entry {
    std::string name;
    std::uint64_t hash;
  };

  PayloadTypeRegistry();
  [[nodiscard]] const Entry& entry(PayloadType id) const noexcept {
    const std::size_t index = to_index(id);
    return index < entries_.size() ? entries_[index] : entries_[0];
  }

  std::vector<Entry> entries_;  ///< indexed by to_index(id); [0] = kUnknown
};

}  // namespace bftsim
