#include "explore/campaign.hpp"

#include <algorithm>
#include <utility>

#include "core/config_check.hpp"
#include "core/thread_pool.hpp"
#include "explore/canary.hpp"
#include "explore/shrink.hpp"

namespace bftsim::explore {

CampaignOptions CampaignOptions::from_json(const json::Value& v,
                                           const std::string& path) {
  cfgcheck::require_keys(
      v, path, {"space", "seed", "scenarios", "max_events", "shrink_runs"});
  CampaignOptions options;
  if (const json::Value* space = v.as_object().find("space")) {
    options.space = ScenarioSpace::from_json(*space, path + ".space");
  }
  options.seed = static_cast<std::uint64_t>(
      cfgcheck::int_in(v, path, "seed", 1, 0, kMaxSeed));
  options.scenario_count = static_cast<std::uint64_t>(
      cfgcheck::int_in(v, path, "scenarios", 100, 1, kMaxScenarios));
  options.watchdog.max_events = static_cast<std::uint64_t>(cfgcheck::int_in(
      v, path, "max_events", 2'000'000, kEventBudgetMin, kEventBudgetMax));
  options.shrink_runs = static_cast<std::size_t>(
      cfgcheck::int_in(v, path, "shrink_runs", 200, 1, kMaxShrinkRuns));
  return options;
}

json::Value CampaignReport::to_json() const {
  json::Object o;
  o["schema"] = "bftsim-fuzz-campaign-v1";
  o["seed"] = seed;
  o["scenarios"] = scenario_count;
  json::Object t;
  t["decided"] = static_cast<std::uint64_t>(tally.decided);
  t["horizon"] = static_cast<std::uint64_t>(tally.horizon);
  t["event_budget"] = static_cast<std::uint64_t>(tally.event_budget);
  t["queue_drained"] = static_cast<std::uint64_t>(tally.queue_drained);
  t["failed"] = static_cast<std::uint64_t>(tally.failed);
  o["tally"] = json::Value{std::move(t)};
  json::Array finds;
  for (const CampaignFinding& f : findings) {
    json::Object fo;
    fo["index"] = f.index;
    fo["original_verdict"] = f.original.to_string();
    fo["reproducer"] = f.reproducer.to_json();
    finds.emplace_back(json::Value{std::move(fo)});
  }
  o["findings"] = json::Value{std::move(finds)};
  json::Array crash_list;
  for (const RunFailure& c : crashes) {
    json::Object co;
    co["label"] = c.label;
    co["error"] = c.error;
    co["config"] = c.config.to_json();
    crash_list.emplace_back(json::Value{std::move(co)});
  }
  o["crashes"] = json::Value{std::move(crash_list)};
  return json::Value{std::move(o)};
}

CampaignReport run_campaign(const CampaignOptions& options) {
  if (std::find(options.space.protocols.begin(), options.space.protocols.end(),
                std::string(kCanaryProtocol)) != options.space.protocols.end()) {
    register_fuzz_canary();
  }

  // Scenario configs are generated up front (cheap, deterministic) with
  // the watchdog budgets baked in, so the config a reproducer records is
  // the config that actually ran.
  const std::uint64_t count = options.scenario_count;
  std::vector<Scenario> scenarios;
  std::vector<SimConfig> configs;
  scenarios.reserve(count);
  configs.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Scenario s = generate_scenario(options.space, options.seed, i);
    s.config = options.watchdog.apply(std::move(s.config));
    configs.push_back(s.config);
    scenarios.push_back(std::move(s));
  }

  std::vector<Evaluation> evals;
  {
    ThreadPool pool(options.jobs == 0 ? ThreadPool::default_workers()
                                      : options.jobs);
    evals = evaluate_batch(pool, configs, ObjectiveKind::kVerdict);
  }

  CampaignReport report;
  report.seed = options.seed;
  report.scenario_count = count;
  for (std::size_t i = 0; i < evals.size(); ++i) {
    Evaluation& eval = evals[i];
    const Scenario& scenario = scenarios[i];
    if (!eval.error.empty()) {
      ++report.tally.failed;
      RunFailure failure;
      failure.point = i;
      failure.seed = scenario.config.seed;
      failure.label = scenario.id();
      failure.error = std::move(eval.error);
      failure.config = scenario.config;
      report.crashes.push_back(std::move(failure));
      continue;
    }
    switch (eval.reason) {
      case TerminationReason::kDecided: ++report.tally.decided; break;
      case TerminationReason::kHorizon: ++report.tally.horizon; break;
      case TerminationReason::kEventBudget: ++report.tally.event_budget; break;
      case TerminationReason::kQueueDrained: ++report.tally.queue_drained; break;
    }
    if (eval.verdict.ok) continue;

    // Shrink serially, in scenario order: shrinking re-runs simulations,
    // and doing it off the pool keeps the transformation sequence (and
    // with it the reproducer) deterministic.
    CampaignFinding finding;
    finding.index = scenario.index;
    finding.original = eval.verdict;
    const Objective objective = Objective::verdict(eval.verdict.violated);
    Shrunk shrunk = shrink(scenario.config, std::move(eval), objective,
                           options.shrink_runs);
    Reproducer& repro = finding.reproducer;
    repro.id = scenario.id();
    repro.seed = scenario.campaign_seed;
    repro.index = scenario.index;
    repro.config = std::move(shrunk.config);
    repro.recorded = std::move(shrunk.eval);
    repro.shrink_steps = shrunk.steps;
    repro.shrink_runs = shrunk.runs;
    report.findings.push_back(std::move(finding));
  }
  return report;
}

}  // namespace bftsim::explore
