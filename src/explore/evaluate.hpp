// The search core the fuzzer and the adversary search share.
//
// Both are one pipeline: a space of candidate configs (scenario.hpp for
// the fuzzer, adversary/space.hpp for the search) × an Objective → a batch
// of evaluations → a shrink of each interesting config (shrink.hpp) → a
// Reproducer that replays bit-identically (reproducer.hpp). The two
// explorers differ only in their space and their objective:
//
//  * verdict: one run, checked against the invariant oracles
//    (oracles.hpp). A config is interesting when an oracle fires; while
//    shrinking, when the SAME oracle fires again.
//  * damage: the run scored against its attack-free baseline_of twin
//    (adversary/damage.hpp). A config is interesting when its score
//    reaches the target.
//
// Evaluations are pure functions of their config (the simulator is
// deterministic), and evaluate_batch returns them in index order, so
// whatever a caller folds from a batch is independent of the job count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "adversary/damage.hpp"
#include "core/config.hpp"
#include "core/thread_pool.hpp"
#include "explore/oracles.hpp"
#include "sim/result.hpp"

namespace bftsim::explore {

/// How a config is evaluated: one run checked by the oracles, or two runs
/// (attacked and baseline) scored for damage.
enum class ObjectiveKind : std::uint8_t { kVerdict, kDamage };

/// A run's identity as replay compares it.
struct TraceId {
  std::uint64_t fingerprint = 0;
  std::uint64_t records = 0;

  [[nodiscard]] bool operator==(const TraceId&) const = default;
};

/// The products of evaluating one config.
struct Evaluation {
  std::string error;     ///< what a run threw (evaluate_batch only)
  TerminationReason reason = TerminationReason::kQueueDrained;
  OracleReport verdict;  ///< verdict objective: the oracle verdict
  adversary::DamageReport damage;  ///< damage objective: the damage done
  TraceId trace;         ///< the run (the attacked run, for damage)
  TraceId baseline;      ///< damage objective: the baseline_of twin's run
};

/// What keeps a config interesting.
struct Objective {
  ObjectiveKind kind = ObjectiveKind::kVerdict;
  Oracle oracle = Oracle::kAgreement;  ///< verdict: the oracle that fired
  double target = 0.0;                 ///< damage: the score to keep

  [[nodiscard]] static Objective verdict(Oracle oracle) noexcept {
    return {ObjectiveKind::kVerdict, oracle, 0.0};
  }
  [[nodiscard]] static Objective damage(double target) noexcept {
    return {ObjectiveKind::kDamage, Oracle::kAgreement, target};
  }
  /// Whether `e`, an evaluation of this kind, is interesting.
  [[nodiscard]] bool met_by(const Evaluation& e) const noexcept;
};

/// Evaluates `cfg` under `kind`. For damage, `baseline` may carry the
/// baseline_of(cfg) run when the caller already has it (a search scores
/// every candidate of one base config against the same twin); otherwise
/// it is run here. Registers the canary protocol when `cfg` selects it.
/// Throws whatever the runs throw.
[[nodiscard]] Evaluation evaluate(const SimConfig& cfg, ObjectiveKind kind,
                                  const RunResult* baseline = nullptr);

/// Evaluates configs[i] into slot i across `pool`. A run that throws
/// leaves its message in the slot's `error` instead of aborting the batch.
[[nodiscard]] std::vector<Evaluation> evaluate_batch(
    ThreadPool& pool, const std::vector<SimConfig>& configs,
    ObjectiveKind kind, const RunResult* baseline = nullptr);

}  // namespace bftsim::explore
