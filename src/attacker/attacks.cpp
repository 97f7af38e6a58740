#include "attacker/attacks.hpp"

#include "attacker/registry.hpp"

#include <stdexcept>

#include "core/config_check.hpp"
#include "core/log.hpp"
#include "protocols/add/add.hpp"
#include "protocols/pbft/pbft.hpp"
#include "protocols/synchotstuff/synchotstuff.hpp"

namespace bftsim {

// --- partition ---------------------------------------------------------------

PartitionAttack::PartitionAttack(std::uint32_t subnets, Time resolve_at,
                                 bool drop_mode)
    : subnets_(subnets == 0 ? 2 : subnets),
      resolve_at_(resolve_at),
      drop_mode_(drop_mode) {}

Disposition PartitionAttack::attack(MessageInFlight& in_flight,
                                    AttackerContext& ctx) {
  if (ctx.now() >= resolve_at_) return Disposition::kDeliver;
  const Message& msg = in_flight.msg;
  if (group_of(msg.src) == group_of(msg.dst)) return Disposition::kDeliver;
  if (drop_mode_) return Disposition::kDrop;
  // Delay mode: hold the message back until the partition resolves.
  in_flight.delay += resolve_at_ - ctx.now();
  return Disposition::kDeliver;
}

// --- ADD+ static -------------------------------------------------------------

AddStaticAttack::AddStaticAttack(bool deterministic_leaders)
    : deterministic_leaders_(deterministic_leaders) {}

void AddStaticAttack::on_start(AttackerContext& ctx) {
  const std::uint32_t budget = ctx.f();
  if (deterministic_leaders_) {
    // ADD+ v1's leader of iteration k is k mod n: fail-stop the first f
    // leaders before the protocol starts.
    for (NodeId node = 0; node < budget; ++node) ctx.corrupt(node);
    return;
  }
  // VRF election (v2/v3): the schedule is unpredictable; pick f nodes at
  // random and hope they get elected.
  std::vector<NodeId> ids(ctx.n());
  for (NodeId i = 0; i < ctx.n(); ++i) ids[i] = i;
  for (std::uint32_t i = 0; i + 1 < ctx.n(); ++i) {
    const auto j = i + static_cast<std::uint32_t>(ctx.rng().next_below(ctx.n() - i));
    std::swap(ids[i], ids[j]);
  }
  for (std::uint32_t i = 0; i < budget && i < ids.size(); ++i) ctx.corrupt(ids[i]);
}

Disposition AddStaticAttack::attack(MessageInFlight& in_flight,
                                    AttackerContext& ctx) {
  // Corrupt nodes are silenced entirely (they were Byzantine from t = 0).
  return ctx.is_corrupt(in_flight.msg.src) ? Disposition::kDrop
                                           : Disposition::kDeliver;
}

// --- ADD+ rushing adaptive ----------------------------------------------------

AddAdaptiveAttack::AddAdaptiveAttack(Time lambda, int iteration_rounds)
    : lambda_(lambda),
      iteration_duration_(lambda * iteration_rounds) {}

void AddAdaptiveAttack::on_start(AttackerContext& ctx) {
  // Strike each iteration half a round after the credentials are revealed:
  // late enough to have observed every reveal, early enough to silence the
  // winner's *next* round (v2's proposal). For v3 the reveal and the
  // proposal are the same message, so the strike always comes too late —
  // exactly the property the prepare round buys.
  ctx.set_timer(lambda_ / 2, 0);
}

Disposition AddAdaptiveAttack::attack(MessageInFlight& in_flight,
                                      AttackerContext& ctx) {
  const Message& msg = in_flight.msg;
  // Rushing observation: learn credentials before they are delivered.
  if (const auto* elect = msg.as<add::AddElect>()) {
    const auto it = observed_min_.find(elect->iter);
    if (it == observed_min_.end() || elect->credential.value < it->second.first) {
      observed_min_[elect->iter] = {elect->credential.value, msg.src};
    }
  } else if (const auto* prop = msg.as<add::AddPropose>()) {
    if (prop->has_credential) {
      const auto it = observed_min_.find(prop->iter);
      if (it == observed_min_.end() || prop->credential.value < it->second.first) {
        observed_min_[prop->iter] = {prop->credential.value, msg.src};
      }
    }
  }
  // Corrupt senders are silenced going forward; their pre-corruption
  // messages were already scheduled and are unaffected.
  return ctx.is_corrupt(msg.src) ? Disposition::kDrop : Disposition::kDeliver;
}

void AddAdaptiveAttack::on_timer(const TimerEvent& ev, AttackerContext& ctx) {
  const std::uint64_t iter = ev.tag;
  const auto it = observed_min_.find(iter);
  if (it != observed_min_.end() && !ctx.is_corrupt(it->second.second)) {
    ctx.corrupt(it->second.second);  // may fail once the budget is spent
  }
  // Re-arm for the next iteration's reveal.
  const Time next_strike =
      static_cast<Time>(iter + 1) * iteration_duration_ + lambda_ / 2;
  ctx.set_timer(next_strike - ctx.now(), iter + 1);
}

// --- PBFT equivocation ----------------------------------------------------------

void PbftEquivocationAttack::on_start(AttackerContext& ctx) {
  if (!ctx.corrupt(victim_)) return;  // no budget: attack degenerates to noop
  // Two conflicting proposals for (view 0, seq 0), both genuinely signed
  // with the corrupted leader's key.
  const Value value_a = hash_words({0xE0ULL, 0ULL});
  const Value value_b = hash_words({0xE1ULL, 1ULL});
  for (NodeId dst = 0; dst < ctx.n(); ++dst) {
    if (dst == victim_) continue;
    const Value value = dst % 2 == 0 ? value_a : value_b;
    const Signature sig =
        ctx.sign_as(victim_, hash_words({0x5050ULL, 0ULL, 0ULL, value}));
    Message msg;
    msg.src = victim_;
    msg.dst = dst;
    msg.payload = make_payload<pbft::PrePrepare>(0, 0, value, sig);
    ctx.inject(std::move(msg), /*delay=*/from_ms(1.0) + Time{dst});
  }
}

Disposition PbftEquivocationAttack::attack(MessageInFlight& in_flight,
                                           AttackerContext& ctx) {
  // The victim's honest behaviour is suppressed; the injected equivocating
  // proposals replace it.
  return ctx.is_corrupt(in_flight.msg.src) ? Disposition::kDrop
                                           : Disposition::kDeliver;
}

// --- Sync HotStuff equivocation ---------------------------------------------------

void SyncHotStuffEquivocationAttack::on_start(AttackerContext& ctx) {
  if (!ctx.corrupt(victim_)) return;
  const Value value_a = hash_words({0xEAULL, 0ULL});
  const Value value_b = hash_words({0xEBULL, 1ULL});
  for (NodeId dst = 0; dst < ctx.n(); ++dst) {
    if (dst == victim_) continue;
    const Value value = dst % 2 == 0 ? value_a : value_b;
    const Signature sig =
        ctx.sign_as(victim_, hash_words({0x5348ULL, 0ULL, 0ULL, value}));
    Message msg;
    msg.src = victim_;
    msg.dst = dst;
    msg.payload = make_payload<synchotstuff::ShsProposal>(0, 0, value, sig);
    ctx.inject(std::move(msg), from_ms(1.0) + Time{dst});
  }
}

Disposition SyncHotStuffEquivocationAttack::attack(MessageInFlight& in_flight,
                                                   AttackerContext& ctx) {
  return ctx.is_corrupt(in_flight.msg.src) ? Disposition::kDrop
                                           : Disposition::kDeliver;
}

// --- eclipse -----------------------------------------------------------------

EclipseAttack::EclipseAttack(NodeId victim, std::uint32_t keep, Time start,
                             Time end, bool drop_mode)
    : victim_(victim),
      keep_(keep),
      start_(start),
      end_(end),
      drop_mode_(drop_mode) {}

Disposition EclipseAttack::attack(MessageInFlight& in_flight,
                                  AttackerContext& ctx) {
  const Time now = ctx.now();
  if (now < start_ || now >= end_) return Disposition::kDeliver;
  const Message& msg = in_flight.msg;
  const bool src_victim = msg.src == victim_;
  const bool dst_victim = msg.dst == victim_;
  if (src_victim == dst_victim) return Disposition::kDeliver;  // neither side
  const NodeId peer = src_victim ? msg.dst : msg.src;
  if (allowed(peer)) return Disposition::kDeliver;
  if (drop_mode_) return Disposition::kDrop;
  // Delay mode: the message surfaces when the eclipse lifts.
  in_flight.delay += end_ - now;
  return Disposition::kDeliver;
}

// --- adaptive partition ------------------------------------------------------

AdaptivePartitionAttack::AdaptivePartitionAttack(std::uint32_t subnets,
                                                 Time period, Time resolve,
                                                 bool drop_mode)
    : subnets_(subnets < 2 ? 2 : subnets),
      period_(period < 1 ? 1 : period),
      resolve_(resolve),
      drop_mode_(drop_mode) {}

void AdaptivePartitionAttack::on_start(AttackerContext& ctx) {
  if (period_ < resolve_) ctx.set_timer(period_, 1);
}

Disposition AdaptivePartitionAttack::attack(MessageInFlight& in_flight,
                                            AttackerContext& ctx) {
  if (ctx.now() >= resolve_) return Disposition::kDeliver;
  const Message& msg = in_flight.msg;
  if (group_of(msg.src) == group_of(msg.dst)) return Disposition::kDeliver;
  if (drop_mode_) return Disposition::kDrop;
  in_flight.delay += resolve_ - ctx.now();
  return Disposition::kDeliver;
}

void AdaptivePartitionAttack::on_timer(const TimerEvent& ev,
                                       AttackerContext& ctx) {
  // Re-cut: re-draw every node's group from (node, epoch). The epoch equals
  // the timer tag, so the cut sequence is a pure function of (period, resolve).
  epoch_ = ev.tag;
  const Time next = static_cast<Time>(ev.tag + 1) * period_;
  if (next < resolve_) ctx.set_timer(next - ctx.now(), ev.tag + 1);
}

// --- targeted delay scheduling -----------------------------------------------

DelayScheduleAttack::DelayScheduleAttack(PayloadType type, bool stall,
                                         Time amount, Time start, Time end,
                                         Time min_delay, Time max_delay)
    : type_(type),
      stall_(stall),
      amount_(amount),
      start_(start),
      end_(end),
      min_delay_(min_delay),
      max_delay_(max_delay) {}

Disposition DelayScheduleAttack::attack(MessageInFlight& in_flight,
                                        AttackerContext& ctx) {
  const Time now = ctx.now();
  if (now < start_ || now >= end_) return Disposition::kDeliver;
  if (!in_flight.msg.is(type_)) return Disposition::kDeliver;
  if (stall_) {
    // Stay within the network model's bounds: never push past the delay
    // spec's max clamp (when one exists). A sample may already sit at the
    // bound, in which case the stall is a no-op.
    Time target = in_flight.delay + amount_;
    if (max_delay_ > 0 && target > max_delay_) target = max_delay_;
    if (target > in_flight.delay) in_flight.delay = target;
  } else {
    // Rush: the attacker controls scheduling down to the model's min bound.
    Time target = in_flight.delay - amount_;
    if (target < min_delay_) target = min_delay_;
    if (target < 0) target = 0;
    if (target < in_flight.delay) in_flight.delay = target;
  }
  return Disposition::kDeliver;
}

// --- flooding ----------------------------------------------------------------

FloodingAttack::FloodingAttack(std::uint32_t copies, Time spread, Time start,
                               Time end)
    : copies_(copies), spread_(spread < 1 ? 1 : spread), start_(start), end_(end) {}

Disposition FloodingAttack::attack(MessageInFlight& in_flight,
                                   AttackerContext& ctx) {
  const Time now = ctx.now();
  if (now < start_ || now >= end_) return Disposition::kDeliver;
  // Injected messages do not re-traverse the attacker, so duplicating every
  // observed message cannot feed back on itself.
  for (std::uint32_t c = 1; c <= copies_; ++c) {
    Message dup;
    dup.src = in_flight.msg.src;
    dup.dst = in_flight.msg.dst;
    dup.payload = in_flight.msg.payload;
    ctx.inject_duplicate(std::move(dup),
                         in_flight.delay + static_cast<Time>(c) * spread_);
  }
  return Disposition::kDeliver;
}

// --- PBFT late equivocation --------------------------------------------------

PbftLateEquivocationAttack::PbftLateEquivocationAttack(View view, Time strike)
    : view_(view), strike_(strike) {}

void PbftLateEquivocationAttack::on_start(AttackerContext& ctx) {
  ctx.set_timer(strike_, 0);
}

Disposition PbftLateEquivocationAttack::attack(MessageInFlight& in_flight,
                                               AttackerContext& ctx) {
  // Nodes captured at strike time are silenced from then on; everything
  // they sent while honest is already in flight and still delivered.
  return ctx.is_corrupt(in_flight.msg.src) ? Disposition::kDrop
                                           : Disposition::kDeliver;
}

void PbftLateEquivocationAttack::on_timer(const TimerEvent&,
                                          AttackerContext& ctx) {
  const NodeId victim = static_cast<NodeId>(view_ % ctx.n());
  if (!ctx.corrupt(victim)) return;  // budget spent: attack degenerates
  const Value value_a = hash_words({0xECULL, view_, 0ULL});
  const Value value_b = hash_words({0xEDULL, view_, 1ULL});
  for (NodeId dst = 0; dst < ctx.n(); ++dst) {
    if (dst == victim) continue;
    const Value value = dst % 2 == 0 ? value_a : value_b;
    const Signature sig =
        ctx.sign_as(victim, hash_words({0x5050ULL, view_, 0ULL, value}));
    Message msg;
    msg.src = victim;
    msg.dst = dst;
    msg.payload = make_payload<pbft::PrePrepare>(view_, 0, value, sig);
    ctx.inject(std::move(msg), from_ms(1.0) + Time{dst});
  }
}

// --- registry + factory -------------------------------------------------------

AttackRegistry& AttackRegistry::instance() {
  static AttackRegistry registry = [] {
    AttackRegistry r;
    register_builtin_attacks(r);
    return r;
  }();
  return registry;
}

void AttackRegistry::add(std::string name, AttackFactory factory) {
  if (contains(name)) {
    throw std::invalid_argument("attack already registered: " + name);
  }
  attacks_.emplace_back(std::move(name), std::move(factory));
}

bool AttackRegistry::contains(const std::string& name) const noexcept {
  for (const auto& [registered, factory] : attacks_) {
    if (registered == name) return true;
  }
  return false;
}

std::unique_ptr<Attacker> AttackRegistry::make(const std::string& name,
                                               const SimConfig& cfg) const {
  for (const auto& [registered, factory] : attacks_) {
    if (registered == name) return factory(cfg);
  }
  throw std::invalid_argument("unknown attack: " + name);
}

std::vector<std::string> AttackRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(attacks_.size());
  for (const auto& [name, factory] : attacks_) out.push_back(name);
  return out;
}

void register_builtin_attacks(AttackRegistry& registry) {
  if (registry.contains("partition")) return;  // already registered

  const auto get_num = [](const SimConfig& cfg, const std::string& key,
                          double fallback) {
    return cfg.attack_params.is_object() ? cfg.attack_params.get_number(key, fallback)
                                         : fallback;
  };
  const auto get_str = [](const SimConfig& cfg, const std::string& key,
                          const std::string& fallback) {
    return cfg.attack_params.is_object() ? cfg.attack_params.get_string(key, fallback)
                                         : fallback;
  };
  // A two-way `mode`: true for `first` (also the default), false for
  // `second`; any other string is a config error, not silently `second`.
  const auto get_mode = [=](const SimConfig& cfg, const std::string& first,
                            const std::string& second) {
    const std::string mode = get_str(cfg, "mode", first);
    if (mode != first && mode != second) {
      cfgcheck::fail("$.attack_params.mode", "unknown mode \"" + mode +
                                                 "\" (expected \"" + first +
                                                 "\" or \"" + second + "\")");
    }
    return mode == first;
  };

  registry.add("partition", [=](const SimConfig& cfg) -> std::unique_ptr<Attacker> {
    const auto subnets = static_cast<std::uint32_t>(get_num(cfg, "subnets", 2));
    const Time resolve_at = from_ms(get_num(cfg, "resolve_ms", 30'000.0));
    const bool drop_mode = get_mode(cfg, "drop", "delay");
    return std::make_unique<PartitionAttack>(subnets, resolve_at, drop_mode);
  });
  registry.add("add-static", [](const SimConfig& cfg) -> std::unique_ptr<Attacker> {
    return std::make_unique<AddStaticAttack>(cfg.protocol == "addv1");
  });
  registry.add("add-adaptive", [](const SimConfig& cfg) -> std::unique_ptr<Attacker> {
    const int rounds = cfg.protocol == "addv2" ? 4 : 3;
    return std::make_unique<AddAdaptiveAttack>(from_ms(cfg.lambda_ms), rounds);
  });
  registry.add("pbft-equivocation", [](const SimConfig&) {
    return std::make_unique<PbftEquivocationAttack>();
  });
  registry.add("sync-hotstuff-equivocation", [](const SimConfig&) {
    return std::make_unique<SyncHotStuffEquivocationAttack>();
  });
  registry.add("eclipse", [=](const SimConfig& cfg) -> std::unique_ptr<Attacker> {
    const auto victim = static_cast<NodeId>(
        static_cast<std::uint64_t>(get_num(cfg, "victim", 0)) % cfg.n);
    const auto keep = static_cast<std::uint32_t>(get_num(cfg, "keep", 0));
    const Time start = from_ms(get_num(cfg, "start_ms", 0.0));
    const Time duration = from_ms(get_num(cfg, "duration_ms", 30'000.0));
    const bool drop_mode = get_mode(cfg, "drop", "delay");
    return std::make_unique<EclipseAttack>(victim, keep, start,
                                           start + duration, drop_mode);
  });
  registry.add("adaptive-partition",
               [=](const SimConfig& cfg) -> std::unique_ptr<Attacker> {
    const auto subnets = static_cast<std::uint32_t>(get_num(cfg, "subnets", 2));
    const Time period = from_ms(get_num(cfg, "period_ms", cfg.lambda_ms));
    const Time resolve = from_ms(get_num(cfg, "resolve_ms", 30'000.0));
    const bool drop_mode = get_mode(cfg, "drop", "delay");
    return std::make_unique<AdaptivePartitionAttack>(subnets, period, resolve,
                                                     drop_mode);
  });
  registry.add("delay-schedule",
               [=](const SimConfig& cfg) -> std::unique_ptr<Attacker> {
    const std::string name = get_str(cfg, "type", "");
    const auto type = PayloadTypeRegistry::instance().find(name);
    if (!type || *type == PayloadType::kUnknown) {
      cfgcheck::fail("$.attack_params.type",
                     "unknown message type \"" + name + "\"");
    }
    const bool stall = get_mode(cfg, "stall", "rush");
    const Time amount = from_ms(get_num(cfg, "amount_ms", cfg.lambda_ms));
    const Time start = from_ms(get_num(cfg, "start_ms", 0.0));
    const Time duration =
        from_ms(get_num(cfg, "duration_ms", cfg.max_time_ms));
    // The model's bounds, inside which the attacker may re-time freely.
    const Time min_delay = from_ms(cfg.delay.min_ms);
    const Time max_delay =
        cfg.delay.max_ms > 0 ? from_ms(cfg.delay.max_ms) : Time{0};
    return std::make_unique<DelayScheduleAttack>(*type, stall, amount,
                                                 start, start + duration,
                                                 min_delay, max_delay);
  });
  registry.add("flood", [=](const SimConfig& cfg) -> std::unique_ptr<Attacker> {
    auto copies = static_cast<std::uint32_t>(get_num(cfg, "copies", 1));
    if (copies > 8) copies = 8;  // bound the amplification factor
    const Time spread = from_ms(get_num(cfg, "spread_ms", 1.0));
    const Time start = from_ms(get_num(cfg, "start_ms", 0.0));
    const Time duration = from_ms(get_num(cfg, "duration_ms", 30'000.0));
    return std::make_unique<FloodingAttack>(copies, spread, start,
                                            start + duration);
  });
  registry.add("pbft-late-equivocation",
               [=](const SimConfig& cfg) -> std::unique_ptr<Attacker> {
    const auto view = static_cast<View>(get_num(cfg, "view", 0));
    const Time strike = from_ms(get_num(cfg, "strike_ms", cfg.lambda_ms));
    return std::make_unique<PbftLateEquivocationAttack>(view, strike);
  });
}

std::unique_ptr<Attacker> make_attacker(const SimConfig& cfg) {
  if (cfg.attack.empty() || cfg.attack == "none") {
    return std::make_unique<NullAttacker>();
  }
  return AttackRegistry::instance().make(cfg.attack, cfg);
}

}  // namespace bftsim
