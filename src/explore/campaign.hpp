// The fuzzing campaign engine.
//
// A campaign is `scenario_count` scenarios drawn from a ScenarioSpace by
// generate_scenario(space, seed, i), evaluated under the verdict objective
// (evaluate.hpp): each executed once and checked against the invariant
// oracles. Violations are shrunk (serially, in scenario order) into
// replayable reproducers; runs that throw become labeled RunFailure
// records instead of aborting the campaign.
//
// Determinism contract: the whole CampaignReport — which scenarios exist,
// which violate, what each shrinks to, every fingerprint — is a pure
// function of (space, seed, scenario_count, watchdog, shrink budget).
// Scenarios fan out through evaluate_batch and are aggregated in index
// order, so the report is identical for every `jobs` value, and contains
// no wall-clock or host-dependent data.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/json.hpp"
#include "explore/oracles.hpp"
#include "explore/reproducer.hpp"
#include "explore/scenario.hpp"
#include "runner/runner.hpp"

namespace bftsim::explore {

struct CampaignOptions {
  /// Bounds from_json enforces; the search tools' number flags share them.
  static constexpr std::uint64_t kMaxScenarios = 1'000'000;
  static constexpr std::uint64_t kMaxShrinkRuns = 100'000;
  static constexpr std::uint64_t kEventBudgetMin = 10'000;
  static constexpr std::uint64_t kEventBudgetMax = 1'000'000'000;

  ScenarioSpace space = ScenarioSpace::defaults();
  std::uint64_t seed = 1;            ///< campaign seed (not a run seed)
  std::uint64_t scenario_count = 100;
  std::size_t jobs = 0;              ///< 0 = ThreadPool::default_workers()
  /// Budget cap baked into every scenario config BEFORE running, so
  /// reproducers are self-contained (replaying one needs no campaign
  /// context to terminate the same way).
  Watchdog watchdog{/*max_events=*/2'000'000, /*max_time_ms=*/0.0};
  /// Per-finding shrink budget, in simulations (see shrink.hpp).
  std::size_t shrink_runs = 200;

  /// Parses the optional "$.explore" clause of a config file (strict;
  /// unknown keys throw). Recognized keys: "space" (ScenarioSpace),
  /// "seed", "scenarios", "max_events", "shrink_runs".
  [[nodiscard]] static CampaignOptions from_json(const json::Value& v,
                                                 const std::string& path);
};

/// One oracle violation found by a campaign, with its shrunk reproducer.
struct CampaignFinding {
  std::uint64_t index = 0;        ///< scenario index within the campaign
  OracleReport original;          ///< verdict of the unshrunk scenario
  Reproducer reproducer;          ///< shrunk, replayable counterexample
};

/// Full outcome of one campaign.
struct CampaignReport {
  std::uint64_t seed = 0;
  std::uint64_t scenario_count = 0;
  TerminationTally tally;              ///< how the scenario runs ended
  std::vector<CampaignFinding> findings;  ///< scenario-index order
  std::vector<RunFailure> crashes;        ///< runs that threw, index order

  [[nodiscard]] bool clean() const noexcept {
    return findings.empty() && crashes.empty();
  }
  [[nodiscard]] json::Value to_json() const;
};

/// Runs the campaign. Registers the canary protocol automatically when
/// the space contains it.
[[nodiscard]] CampaignReport run_campaign(const CampaignOptions& options);

}  // namespace bftsim::explore
