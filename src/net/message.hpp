// Protocol message model.
//
// A Message is an envelope (source, destination, send time, unique id)
// around an immutable, shared Payload. Protocols define their own payload
// types by deriving from Payload; the attacker module may replace a
// message's payload (modification attack) but never mutates a payload in
// place, since payloads are shared between the fan-out copies of a
// broadcast.
//
// Every payload carries a PayloadType tag (a stable small integer set at
// construction, see net/payload_type.hpp): the message kind's only
// identity. Dispatch switches on the tag — `Message::type_id()` /
// `Message::is()` — and `as<T>()` is a tag-checked static_cast, so the
// per-message hot path never touches RTTI. Traces carry the tag too; the
// kind's name lives in PayloadTypeRegistry.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "core/types.hpp"
#include "net/payload_type.hpp"

namespace bftsim {

/// Base class for all protocol message payloads.
///
/// `type_id()` is the message kind; derived classes declare it as a static
/// `kType` member (which Message::as<T>() checks) and pass it up through
/// the constructor. `digest()` is a deterministic fingerprint of the
/// payload contents used for trace hashing and cross-validation.
class Payload {
 public:
  explicit Payload(PayloadType type_id) noexcept : type_id_(type_id) {}
  Payload(const Payload&) = default;
  Payload& operator=(const Payload&) = default;
  virtual ~Payload() = default;

  [[nodiscard]] PayloadType type_id() const noexcept { return type_id_; }

  [[nodiscard]] virtual std::uint64_t digest() const noexcept = 0;

  /// Estimated wire size in bytes, used by the packet-level baseline
  /// simulator to fragment messages. Message-level simulation ignores it.
  [[nodiscard]] virtual std::size_t wire_size() const noexcept { return 128; }

 private:
  PayloadType type_id_;
};

using PayloadPtr = std::shared_ptr<const Payload>;

/// Convenience factory: `make_payload<VoteMsg>(view, value)`.
template <typename T, typename... Args>
[[nodiscard]] PayloadPtr make_payload(Args&&... args) {
  return std::make_shared<const T>(std::forward<Args>(args)...);
}

/// A message in the simulated network.
struct Message {
  NodeId src = kNoNode;
  NodeId dst = kNoNode;
  Time send_time = 0;
  std::uint64_t id = 0;  ///< unique per transmission, assigned by the network
  PayloadPtr payload;

  /// Dispatch tag of the payload (kUnknown when empty).
  [[nodiscard]] PayloadType type_id() const noexcept {
    return payload != nullptr ? payload->type_id() : PayloadType::kUnknown;
  }

  /// True when the payload carries tag `t`.
  [[nodiscard]] bool is(PayloadType t) const noexcept { return type_id() == t; }

  /// Downcasts the payload to concrete type T, whose static `kType` member
  /// names its tag; returns nullptr on a tag mismatch.
  template <typename T>
  [[nodiscard]] const T* as() const noexcept {
    if (payload == nullptr || payload->type_id() != T::kType) return nullptr;
    return static_cast<const T*>(payload.get());
  }
};

}  // namespace bftsim
