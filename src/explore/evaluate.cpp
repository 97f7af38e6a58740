#include "explore/evaluate.hpp"

#include <exception>

#include "explore/canary.hpp"
#include "sim/simulation.hpp"

namespace bftsim::explore {

bool Objective::met_by(const Evaluation& e) const noexcept {
  if (kind == ObjectiveKind::kDamage) return e.damage.score >= target;
  return !e.verdict.ok && e.verdict.violated == oracle;
}

Evaluation evaluate(const SimConfig& cfg, ObjectiveKind kind,
                    const RunResult* baseline) {
  if (cfg.protocol == kCanaryProtocol) register_fuzz_canary();
  Evaluation e;
  if (kind == ObjectiveKind::kDamage) {
    RunResult own;
    if (baseline == nullptr) {
      own = run_simulation(adversary::baseline_of(cfg));
      baseline = &own;
    }
    const RunResult attacked = run_simulation(cfg);
    e.damage = adversary::compute_damage(cfg, *baseline, attacked);
    e.reason = attacked.termination_reason;
    e.trace = {attacked.trace_fingerprint, attacked.trace_records};
    e.baseline = {baseline->trace_fingerprint, baseline->trace_records};
    return e;
  }
  const RunResult result = run_simulation(cfg);
  e.verdict = check_oracles(cfg, result);
  e.reason = result.termination_reason;
  e.trace = {result.trace_fingerprint, result.trace_records};
  return e;
}

std::vector<Evaluation> evaluate_batch(ThreadPool& pool,
                                       const std::vector<SimConfig>& configs,
                                       ObjectiveKind kind,
                                       const RunResult* baseline) {
  // The registry is not safe to grow while workers read it.
  for (const SimConfig& cfg : configs) {
    if (cfg.protocol == kCanaryProtocol) register_fuzz_canary();
  }
  std::vector<Evaluation> slots(configs.size());
  parallel_for(pool, configs.size(), [&](std::size_t i) {
    try {
      slots[i] = evaluate(configs[i], kind, baseline);
    } catch (const std::exception& e) {
      slots[i].error = *e.what() != '\0' ? e.what() : "unknown exception";
    } catch (...) {
      slots[i].error = "unknown exception";
    }
  });
  return slots;
}

}  // namespace bftsim::explore
