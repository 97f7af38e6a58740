// Execution traces.
//
// A trace is the ordered record of everything observable that happened in a
// run: message sends/deliveries/drops, timer firings, decisions, view
// changes and corruptions. Traces serve three purposes:
//   1. debugging / logging,
//   2. determinism checks (same seed => identical trace fingerprint),
//   3. ground truth for the validator module (§III-D of the paper), which
//      replays a trace and cross-checks the decisions produced.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "crypto/hash.hpp"
#include "net/payload_type.hpp"

namespace bftsim {

enum class TraceKind : std::uint8_t {
  kSend,        ///< node a sent a message to node b
  kDeliver,     ///< message from a delivered to b
  kDrop,        ///< message from a to b dropped (attacker or dead node)
  kTimerFire,   ///< timer fired at node a
  kDecide,      ///< node a decided `value` (its `view` field holds height)
  kViewChange,  ///< node a entered view `view`
  kCorrupt,     ///< attacker corrupted node a
};

/// Human-readable name of a trace kind.
[[nodiscard]] std::string_view to_string(TraceKind kind) noexcept;

struct TraceRecord {
  TraceKind kind = TraceKind::kSend;
  Time at = 0;
  NodeId a = kNoNode;
  NodeId b = kNoNode;
  PayloadType type = PayloadType::kUnknown;  ///< message records' kind
  std::uint64_t digest = 0;    ///< payload digest (message records)
  std::uint64_t msg_id = 0;    ///< unique message id (message records)
  View view = 0;               ///< view/height where applicable
  Value value = 0;             ///< decided value where applicable

  /// Hashes the kind's registered name, so a fingerprint depends on what
  /// a trace file records, not on tag numbering.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return hash_words({static_cast<std::uint64_t>(kind),
                       static_cast<std::uint64_t>(at), a, b,
                       PayloadTypeRegistry::instance().name_hash(type),
                       digest, msg_id, view, value});
  }

  [[nodiscard]] std::string to_string() const;
};

/// Initial value of the order-sensitive trace fingerprint. Shared with the
/// streaming trace sinks (src/obs/), whose running fingerprint must equal
/// Trace::fingerprint() over the same record sequence.
inline constexpr std::uint64_t kTraceFingerprintSeed = 0x51ed270b74a4d9c3ULL;

/// An in-memory trace. Recording granularity is controlled by the
/// controller; by default only message + decision records are kept.
class Trace {
 public:
  void add(TraceRecord rec) { records_.push_back(std::move(rec)); }
  [[nodiscard]] const std::vector<TraceRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] bool empty() const noexcept { return records_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  void clear() noexcept { records_.clear(); }

  /// Order-sensitive fingerprint of the whole trace.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    std::uint64_t h = kTraceFingerprintSeed;
    for (const auto& r : records_) h = hash_combine(h, r.fingerprint());
    return h;
  }

 private:
  std::vector<TraceRecord> records_;
};

}  // namespace bftsim
