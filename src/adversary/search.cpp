#include "adversary/search.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <utility>

#include "core/thread_pool.hpp"
#include "explore/evaluate.hpp"
#include "explore/shrink.hpp"
#include "protocols/registry.hpp"
#include "sim/simulation.hpp"

namespace bftsim::adversary {

namespace {

[[nodiscard]] SimConfig attacked_config(const SimConfig& base,
                                        const AttackSpace& space,
                                        const ParamVector& pv) {
  SimConfig cfg = base;
  cfg.attack = space.attack;
  cfg.attack_params = params_of(space, pv);
  return cfg;
}

}  // namespace

SimConfig search_base_config(const std::string& protocol,
                             const SearchOptions& options) {
  SimConfig cfg;
  cfg.protocol = protocol;
  cfg.n = options.n;
  cfg.lambda_ms = options.lambda_ms;
  cfg.delay = DelaySpec::normal(250.0, 50.0);
  // Same rule as the fuzzer's scenario generator: a synchronous-model
  // protocol is only safe when the network honors its λ bound, so an
  // unbounded delay tail would measure a synchrony violation, not damage.
  const ProtocolInfo& info = ProtocolRegistry::instance().get(protocol);
  if (info.model == NetModel::kSync) cfg.delay.max_ms = cfg.lambda_ms;
  cfg.seed = options.seed;
  cfg.max_time_ms = 600'000.0;
  cfg.record_trace = true;
  return options.watchdog.apply(std::move(cfg));
}

json::Value SearchReport::to_json() const {
  json::Object o;
  o["schema"] = "bftsim-adversary-search-v1";
  o["seed"] = seed;
  json::Array cells;
  for (const WorstCase& w : worst) {
    json::Object c;
    c["protocol"] = w.protocol;
    c["attack"] = w.attack;
    c["params"] = w.params;
    c["damage"] = w.damage.to_json();
    c["evaluations"] = w.evaluations;
    if (w.has_reproducer) c["reproducer"] = w.reproducer.to_json();
    cells.emplace_back(json::Value{std::move(c)});
  }
  o["worst"] = json::Value{std::move(cells)};
  json::Array refusals;
  for (const std::string& r : refused) refusals.emplace_back(r);
  o["refused"] = json::Value{std::move(refusals)};
  return json::Value{std::move(o)};
}

std::string SearchReport::table() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line, "%-14s %-22s %10s  %s\n", "protocol",
                "attack", "score", "damage");
  out += line;
  out += std::string(78, '-') + '\n';
  for (const WorstCase& w : worst) {
    std::snprintf(line, sizeof line, "%-14s %-22s %10.2f  %s\n",
                  w.protocol.c_str(), w.attack.c_str(), w.damage.score,
                  w.damage.describe().c_str());
    out += line;
    if (w.has_reproducer) {
      out += "  params: " + w.params.dump() + '\n';
    }
  }
  for (const std::string& r : refused) out += "REFUSED " + r + '\n';
  return out;
}

SearchReport run_search(const SearchOptions& options) {
  using explore::Evaluation;
  using explore::ObjectiveKind;
  ThreadPool pool(options.jobs == 0 ? ThreadPool::default_workers()
                                    : options.jobs);

  SearchReport report;
  report.seed = options.seed;

  for (const std::string& protocol : options.protocols) {
    const SimConfig base = search_base_config(protocol, options);
    // One shared baseline per protocol: every candidate of every cell is
    // scored against the same attack-free run (it IS baseline_of(candidate)
    // for unshrunk candidates, since only attack/attack_params differ).
    const RunResult baseline = run_simulation(base);

    for (const AttackSpace& space : attack_spaces(protocol, base)) {
      const std::string cell = protocol + "/" + space.attack;
      std::set<ParamVector> seen;
      ParamVector incumbent_pv;
      Evaluation incumbent;
      bool have_incumbent = false;
      std::uint64_t evaluations = 0;

      // Evaluates the unseen candidates of a batch; strict > over the
      // index-ordered slots keeps the first maximum.
      const auto run_batch = [&](const std::vector<ParamVector>& batch) {
        std::vector<ParamVector> fresh;
        std::vector<SimConfig> configs;
        for (const ParamVector& pv : batch) {
          if (!seen.insert(pv).second) continue;
          fresh.push_back(pv);
          configs.push_back(attacked_config(base, space, pv));
        }
        std::vector<Evaluation> slots = explore::evaluate_batch(
            pool, configs, ObjectiveKind::kDamage, &baseline);
        evaluations += fresh.size();
        for (std::size_t i = 0; i < slots.size(); ++i) {
          if (!slots[i].error.empty()) continue;
          if (!have_incumbent ||
              slots[i].damage.score > incumbent.damage.score) {
            incumbent = std::move(slots[i]);
            incumbent_pv = fresh[i];
            have_incumbent = true;
          }
        }
      };

      // Round 0: seeded grid. Rounds 1..R: the incumbent's lattice
      // neighbors plus fresh seeded draws (restarts keep the local search
      // from anchoring on a weak round-0 sample).
      std::vector<ParamVector> batch;
      for (std::uint64_t i = 0; i < options.grid; ++i) {
        batch.push_back(draw_candidate(space, options.seed, 0, i));
      }
      run_batch(batch);
      for (std::uint64_t round = 1; round <= options.rounds; ++round) {
        if (!have_incumbent) break;
        batch = neighbors(space, incumbent_pv);
        for (std::uint64_t i = 0; i < options.grid / 2; ++i) {
          batch.push_back(draw_candidate(space, options.seed, round, i));
        }
        run_batch(batch);
      }

      if (!have_incumbent) {
        report.refused.push_back(cell + ": no candidate evaluated cleanly");
        continue;
      }

      WorstCase worst;
      worst.protocol = protocol;
      worst.attack = space.attack;
      worst.params = params_of(space, incumbent_pv);
      worst.damage = incumbent.damage;
      worst.evaluations = evaluations;

      if (incumbent.damage.score > 0.0) {
        // Shrink the winning config while its score stays at least the
        // winning score. Every probe runs its own baseline (shrink
        // transformations change n / delay / horizon, so the shared one no
        // longer matches).
        const explore::Objective objective =
            explore::Objective::damage(incumbent.damage.score);
        explore::Shrunk shrunk = explore::shrink(
            attacked_config(base, space, incumbent_pv), std::move(incumbent),
            objective, options.shrink_runs);

        explore::Reproducer repro;
        repro.kind = ObjectiveKind::kDamage;
        repro.id = "advsearch-" + std::to_string(options.seed) + "/" + cell;
        repro.seed = options.seed;
        repro.config = std::move(shrunk.config);
        repro.recorded = std::move(shrunk.eval);
        repro.shrink_steps = shrunk.steps;
        repro.shrink_runs = shrunk.runs;

        // A worst case only counts when its reproducer replays with the
        // exact recorded score. Anything else means a determinism bug and
        // must be surfaced, not tabulated.
        const explore::ReplayOutcome replay = explore::replay_reproducer(repro);
        if (!replay.ok()) {
          report.refused.push_back(
              cell + ": reproducer replay diverged (score " +
              json::Value{replay.replayed.damage.score}.dump() +
              " vs recorded " +
              json::Value{repro.recorded.damage.score}.dump() + ")");
          continue;
        }

        worst.params = repro.config.attack_params;
        worst.damage = repro.recorded.damage;
        worst.has_reproducer = true;
        worst.reproducer = std::move(repro);
      }

      report.worst.push_back(std::move(worst));
    }
  }

  std::stable_sort(report.worst.begin(), report.worst.end(),
                   [](const WorstCase& a, const WorstCase& b) {
                     if (a.damage.score != b.damage.score) {
                       return a.damage.score > b.damage.score;
                     }
                     if (a.protocol != b.protocol) return a.protocol < b.protocol;
                     return a.attack < b.attack;
                   });
  return report;
}

}  // namespace bftsim::adversary
