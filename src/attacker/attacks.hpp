// The builtin attack scenarios (§III-C, Table II) and the attacker factory.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "attacker/attacker.hpp"
#include "core/config.hpp"
#include "crypto/hash.hpp"

namespace bftsim {

/// Network partition attack (as described for Algorand): splits the nodes
/// into `subnets` groups (node id mod subnets); until `resolve_ms`,
/// cross-subnet messages are dropped ("drop" mode) or held back and
/// released at resolution time ("delay" mode, the default).
class PartitionAttack final : public Attacker {
 public:
  PartitionAttack(std::uint32_t subnets, Time resolve_at, bool drop_mode);

  Disposition attack(MessageInFlight& in_flight, AttackerContext& ctx) override;

  [[nodiscard]] Time resolve_at() const noexcept { return resolve_at_; }

 private:
  [[nodiscard]] std::uint32_t group_of(NodeId id) const noexcept {
    return id % subnets_;
  }

  std::uint32_t subnets_;
  Time resolve_at_;
  bool drop_mode_;
};

/// Static attack on ADD+: the Byzantine set is fixed before execution.
/// Against ADD+ v1 the attacker exploits the deterministic round-robin
/// schedule and picks exactly the first f leaders; against v2/v3 (VRF
/// leader election) it can only pick f nodes at random.
class AddStaticAttack final : public Attacker {
 public:
  explicit AddStaticAttack(bool deterministic_leaders);

  void on_start(AttackerContext& ctx) override;
  Disposition attack(MessageInFlight& in_flight, AttackerContext& ctx) override;

 private:
  bool deterministic_leaders_;
};

/// Rushing adaptive attack on ADD+ v2/v3: observes the VRF credentials
/// revealed in each iteration (rushing — every message crosses the
/// attacker before delivery) and corrupts the winning leader mid-protocol
/// (adaptive), up to the budget f. Corruption respects causality: messages
/// the victim sent while honest are already in flight and still delivered.
class AddAdaptiveAttack final : public Attacker {
 public:
  /// `iteration_rounds` is the victim protocol's rounds per iteration
  /// (4 for ADD+ v2, 3 for v3); λ comes from the run config.
  AddAdaptiveAttack(Time lambda, int iteration_rounds);

  void on_start(AttackerContext& ctx) override;
  Disposition attack(MessageInFlight& in_flight, AttackerContext& ctx) override;
  void on_timer(const TimerEvent& ev, AttackerContext& ctx) override;

 private:
  Time lambda_;
  Time iteration_duration_;
  /// Minimum credential observed per iteration: (credential, node).
  std::map<std::uint64_t, std::pair<std::uint64_t, NodeId>> observed_min_;
};

/// Equivocation attack on PBFT: corrupts the first leader before the run
/// and, in its stead, injects *conflicting* pre-prepare proposals — one
/// value to even-numbered nodes, another to odd-numbered ones — signed with
/// the corrupted leader's key. A correct PBFT keeps safety (neither value
/// can gather 2f+1 prepares) and restores liveness through a view change.
/// Demonstrates the attacker capabilities no other builtin uses: payload
/// forging, message injection, and key material from corruption.
class PbftEquivocationAttack final : public Attacker {
 public:
  void on_start(AttackerContext& ctx) override;
  Disposition attack(MessageInFlight& in_flight, AttackerContext& ctx) override;

 private:
  NodeId victim_ = 0;  ///< leader of view 0
};

/// Equivocation attack on Sync HotStuff: the corrupted first leader sends
/// conflicting height-0 proposals to the two halves of the network. The
/// protocol's 2Δ commit rule plus proposal echoing must detect the
/// conflict before any replica's commit timer fires, cancel the commits,
/// and blame the leader into a view change — safety holds, one view is
/// lost. (This is the detection mechanism Momose's force-locking attack
/// targets with finer timing; here we exercise the defense.)
class SyncHotStuffEquivocationAttack final : public Attacker {
 public:
  void on_start(AttackerContext& ctx) override;
  Disposition attack(MessageInFlight& in_flight, AttackerContext& ctx) override;

 private:
  NodeId victim_ = 0;  ///< leader of view 0
};

/// Eclipse attack: isolates one victim node from all but an attacker-chosen
/// peer set during [start, start + duration). Traffic between the victim
/// and any peer outside the allowed set is dropped ("drop" mode) or held
/// back until the window closes ("delay" mode). The allowed peers are the
/// `keep` lowest node ids other than the victim, so the whole attack is a
/// pure function of its parameter vector {victim, keep, start_ms,
/// duration_ms, mode}.
class EclipseAttack final : public Attacker {
 public:
  EclipseAttack(NodeId victim, std::uint32_t keep, Time start, Time end,
                bool drop_mode);

  Disposition attack(MessageInFlight& in_flight, AttackerContext& ctx) override;

 private:
  [[nodiscard]] bool allowed(NodeId peer) const noexcept {
    // Rank of `peer` among the non-victim ids; the first `keep` stay linked.
    return (peer < victim_ ? peer : peer - 1) < keep_;
  }

  NodeId victim_;
  std::uint32_t keep_;
  Time start_;
  Time end_;
  bool drop_mode_;
};

/// The rotating group assignment used by AdaptivePartitionAttack, exposed
/// for tests. Epoch 0 is the static cut (id mod subnets); every later
/// epoch re-draws the cut by hashing (id, epoch), so the *equivalence
/// classes* change between epochs — a pair separated by one cut shares a
/// group under a later one. (A uniform label shift like (id + epoch) mod
/// subnets would relabel the groups without ever changing the cut.)
[[nodiscard]] constexpr std::uint32_t adaptive_partition_group(
    NodeId id, std::uint64_t epoch, std::uint32_t subnets) noexcept {
  if (epoch == 0) return id % subnets;
  return static_cast<std::uint32_t>(
      hash_words({0x61647074ULL /* "adpt" */, id, epoch}) % subnets);
}

/// Adaptive partition: re-cuts the network at attacker time events. The
/// group assignment starts as the static cut (node mod subnets) and is
/// re-drawn every `period` by hashing (node, epoch), so the set of
/// separated pairs changes each epoch and the cut chases rotating leaders;
/// cross-group traffic is dropped or held until the attack resolves at
/// `resolve`. Parameter vector: {subnets, period_ms, resolve_ms, mode}.
class AdaptivePartitionAttack final : public Attacker {
 public:
  AdaptivePartitionAttack(std::uint32_t subnets, Time period, Time resolve,
                          bool drop_mode);

  void on_start(AttackerContext& ctx) override;
  Disposition attack(MessageInFlight& in_flight, AttackerContext& ctx) override;
  void on_timer(const TimerEvent& ev, AttackerContext& ctx) override;

 private:
  [[nodiscard]] std::uint32_t group_of(NodeId id) const noexcept {
    return adaptive_partition_group(id, epoch_, subnets_);
  }

  std::uint32_t subnets_;
  Time period_;
  Time resolve_;
  bool drop_mode_;
  std::uint64_t epoch_ = 0;
};

/// Targeted delay scheduling: rushes or stalls messages of one payload type
/// during [start, start + duration), staying within the network model's
/// bounds — a stall never pushes the delay beyond the delay spec's max_ms
/// clamp (when one is configured) and a rush never pulls it below min_ms.
/// Parameter vector: {type, mode, amount_ms, start_ms, duration_ms}.
class DelayScheduleAttack final : public Attacker {
 public:
  DelayScheduleAttack(PayloadType type, bool stall, Time amount, Time start,
                      Time end, Time min_delay, Time max_delay);

  Disposition attack(MessageInFlight& in_flight, AttackerContext& ctx) override;

 private:
  PayloadType type_;
  bool stall_;
  Time amount_;
  Time start_;
  Time end_;
  Time min_delay_;
  Time max_delay_;  ///< 0 = the model is unbounded; stalls are then uncapped
};

/// Flooding: injects `copies` duplicates of every observed message during
/// [start, start + duration), spaced `spread` apart after the original's
/// delivery. Duplicates are genuine re-deliveries (same payload, fresh
/// message ids), stressing handler idempotence and the event budget.
/// Parameter vector: {copies, spread_ms, start_ms, duration_ms}.
class FloodingAttack final : public Attacker {
 public:
  FloodingAttack(std::uint32_t copies, Time spread, Time start, Time end);

  Disposition attack(MessageInFlight& in_flight, AttackerContext& ctx) override;

 private:
  std::uint32_t copies_;
  Time spread_;
  Time start_;
  Time end_;
};

/// Late equivocation on PBFT: waits until `strike`, corrupts the leader of
/// view `view` (round-robin: view mod n) and injects conflicting
/// pre-prepares for that view to the two halves of the network, signed with
/// the captured key. Unlike PbftEquivocationAttack (which strikes at t=0,
/// before the honest pre-prepare exists) this probes the window *after*
/// honest progress started. Parameter vector: {view, strike_ms}.
class PbftLateEquivocationAttack final : public Attacker {
 public:
  PbftLateEquivocationAttack(View view, Time strike);

  void on_start(AttackerContext& ctx) override;
  Disposition attack(MessageInFlight& in_flight, AttackerContext& ctx) override;
  void on_timer(const TimerEvent& ev, AttackerContext& ctx) override;

 private:
  View view_;
  Time strike_;
};

/// Creates the attacker configured by `cfg` ("" => NullAttacker).
/// Throws std::invalid_argument for unknown attack names.
[[nodiscard]] std::unique_ptr<Attacker> make_attacker(const SimConfig& cfg);

}  // namespace bftsim
