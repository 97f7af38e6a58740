#include "adversary/space.hpp"

#include "core/rng.hpp"
#include "crypto/hash.hpp"
#include "explore/scenario.hpp"
#include "net/payload_type.hpp"
#include "protocols/registry.hpp"

namespace bftsim::adversary {

namespace {

using explore::quantize_eighth_ms;

[[nodiscard]] json::Value ms(double value) {
  return json::Value{quantize_eighth_ms(value)};
}

[[nodiscard]] ParamAxis mode_axis(const char* a, const char* b) {
  return ParamAxis{"mode", {json::Value{std::string(a)}, json::Value{std::string(b)}}};
}

/// The message kinds worth re-timing per protocol: the proposal that
/// drives progress and the votes that form certificates.
[[nodiscard]] std::vector<PayloadType> delay_targets(
    const std::string& protocol) {
  using enum PayloadType;
  if (protocol == "pbft" || protocol == "pbft-canary") {
    return {kPbftPrePrepare, kPbftPrepare, kPbftCommit};
  }
  if (protocol == "hotstuff-ns" || protocol == "librabft") {
    return {kHotStuffProposal, kHotStuffVote};
  }
  if (protocol == "sync-hotstuff") {
    return {kSyncHotStuffProposal, kSyncHotStuffVote};
  }
  if (protocol == "tendermint") {
    return {kTendermintProposal, kTendermintPrevote, kTendermintPrecommit};
  }
  if (protocol == "algorand") {
    return {kAlgorandProposal, kAlgorandSoftVote, kAlgorandCertVote};
  }
  if (protocol == "asyncba") return {kBrachaInit, kBrachaEcho};
  if (protocol == "addv1" || protocol == "addv2" || protocol == "addv3") {
    return {kAddPropose, kAddVote};
  }
  return {};
}

}  // namespace

std::uint64_t AttackSpace::grid_size() const noexcept {
  std::uint64_t size = 1;
  for (const ParamAxis& axis : axes) size *= axis.values.size();
  return size;
}

json::Value params_of(const AttackSpace& space, const ParamVector& pv) {
  json::Object params;
  for (std::size_t i = 0; i < space.axes.size(); ++i) {
    params[space.axes[i].key] = space.axes[i].values[pv[i]];
  }
  return json::Value{std::move(params)};
}

ParamVector draw_candidate(const AttackSpace& space, std::uint64_t seed,
                           std::uint64_t round, std::uint64_t index) {
  // The stream depends only on (attack, seed, round, index): candidate i
  // of round r is the same no matter what ran before it or where.
  Rng rng(hash_words(
      {0x616476ULL /* "adv" */, fnv1a64(space.attack), seed, round, index}));
  ParamVector pv(space.axes.size());
  for (std::size_t i = 0; i < space.axes.size(); ++i) {
    pv[i] = static_cast<std::size_t>(rng.next_below(space.axes[i].values.size()));
  }
  return pv;
}

std::vector<ParamVector> neighbors(const AttackSpace& space,
                                   const ParamVector& pv) {
  std::vector<ParamVector> out;
  for (std::size_t i = 0; i < space.axes.size(); ++i) {
    if (pv[i] > 0) {
      ParamVector step = pv;
      --step[i];
      out.push_back(std::move(step));
    }
    if (pv[i] + 1 < space.axes[i].values.size()) {
      ParamVector step = pv;
      ++step[i];
      out.push_back(std::move(step));
    }
  }
  return out;
}

std::vector<AttackSpace> attack_spaces(const std::string& protocol,
                                       const SimConfig& base) {
  const double lambda = base.lambda_ms;
  const double horizon = base.max_time_ms;
  const auto n = static_cast<std::int64_t>(base.n);
  const ProtocolInfo& info = ProtocolRegistry::instance().get(protocol);
  const bool partition_tolerant = info.model != NetModel::kSync;

  std::vector<AttackSpace> spaces;

  if (partition_tolerant) {
    AttackSpace partition;
    partition.attack = "partition";
    partition.axes = {
        ParamAxis{"subnets", {json::Value{std::int64_t{2}}, json::Value{std::int64_t{3}}}},
        ParamAxis{"resolve_ms",
                  {ms(10 * lambda), ms(25 * lambda), ms(0.8 * horizon)}},
        mode_axis("drop", "delay"),
    };
    spaces.push_back(std::move(partition));

    AttackSpace adaptive;
    adaptive.attack = "adaptive-partition";
    adaptive.axes = {
        ParamAxis{"subnets", {json::Value{std::int64_t{2}}, json::Value{std::int64_t{3}}}},
        ParamAxis{"period_ms", {ms(lambda / 2), ms(lambda), ms(2 * lambda)}},
        ParamAxis{"resolve_ms",
                  {ms(10 * lambda), ms(25 * lambda), ms(0.8 * horizon)}},
        mode_axis("drop", "delay"),
    };
    spaces.push_back(std::move(adaptive));

    AttackSpace eclipse;
    eclipse.attack = "eclipse";
    eclipse.axes = {
        ParamAxis{"victim",
                  {json::Value{std::int64_t{0}}, json::Value{std::int64_t{1}},
                   json::Value{n / 2}}},
        ParamAxis{"keep",
                  {json::Value{std::int64_t{0}}, json::Value{std::int64_t{1}},
                   json::Value{std::int64_t{3}}}},
        ParamAxis{"start_ms", {ms(0), ms(lambda), ms(4 * lambda)}},
        ParamAxis{"duration_ms",
                  {ms(5 * lambda), ms(15 * lambda), ms(horizon)}},
        mode_axis("drop", "delay"),
    };
    spaces.push_back(std::move(eclipse));
  }

  const std::vector<PayloadType> targets = delay_targets(protocol);
  if (!targets.empty()) {
    AttackSpace delay;
    delay.attack = "delay-schedule";
    ParamAxis type_axis{"type", {}};
    for (const PayloadType t : targets) {
      type_axis.values.emplace_back(PayloadTypeRegistry::instance().name(t));
    }
    delay.axes = {
        std::move(type_axis),
        mode_axis("rush", "stall"),
        ParamAxis{"amount_ms", {ms(lambda / 4), ms(lambda), ms(4 * lambda)}},
        ParamAxis{"duration_ms", {ms(10 * lambda), ms(horizon)}},
    };
    spaces.push_back(std::move(delay));
  }

  AttackSpace flood;
  flood.attack = "flood";
  flood.axes = {
      ParamAxis{"copies",
                {json::Value{std::int64_t{1}}, json::Value{std::int64_t{2}},
                 json::Value{std::int64_t{4}}}},
      ParamAxis{"spread_ms", {ms(0.125), ms(lambda / 8)}},
      ParamAxis{"duration_ms", {ms(10 * lambda), ms(horizon)}},
  };
  spaces.push_back(std::move(flood));

  if (protocol == "pbft" || protocol == "pbft-canary") {
    AttackSpace late;
    late.attack = "pbft-late-equivocation";
    late.axes = {
        ParamAxis{"view",
                  {json::Value{std::int64_t{0}}, json::Value{std::int64_t{1}},
                   json::Value{std::int64_t{2}}}},
        ParamAxis{"strike_ms", {ms(lambda / 2), ms(2 * lambda), ms(5 * lambda)}},
    };
    spaces.push_back(std::move(late));
  }

  return spaces;
}

}  // namespace bftsim::adversary
