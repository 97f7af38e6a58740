// Replayable findings, for both objectives.
//
// Every finding a campaign shrinks and every worst case a search reports
// is written as one self-contained JSON document: the full (already
// watchdog-capped) SimConfig plus what its evaluation recorded. The schema
// names the objective:
//
//  * "bftsim-fuzz-reproducer-v1" (verdict): the oracle that fired, its
//    diagnosis, and the run's trace fingerprint;
//  * "bftsim-adversary-reproducer-v1" (damage): the damage report and the
//    trace fingerprints of the attacked run and of its baseline_of twin,
//    which is derived, not stored.
//
// Replaying re-evaluates the config and demands bit-exact agreement: the
// same oracle fires (or the same score under `==` and the same stall and
// safety flags — JSON numbers round-trip exactly), and every trace has the
// recorded fingerprint and record count. A reproducer is thus a regression
// test: the corpora under tests/data/fuzz_corpus/ and
// tests/data/adversary_corpus/ are these files.
#pragma once

#include <cstdint>
#include <string>

#include "core/config.hpp"
#include "core/json.hpp"
#include "explore/evaluate.hpp"

namespace bftsim::explore {

/// Schema tags, one per objective.
inline constexpr const char* kReproducerSchema = "bftsim-fuzz-reproducer-v1";
inline constexpr const char* kAdvReproducerSchema =
    "bftsim-adversary-reproducer-v1";

/// Largest campaign or search seed a reproducer records exactly: JSON
/// numbers are doubles.
inline constexpr std::uint64_t kMaxSeed = (std::uint64_t{1} << 53) - 1;

/// One shrunk, replayable finding.
struct Reproducer {
  ObjectiveKind kind = ObjectiveKind::kVerdict;
  /// "campaign-<seed>/scenario-<index>" or
  /// "advsearch-<seed>/<protocol>/<attack>".
  std::string id;
  std::uint64_t seed = 0;   ///< the campaign or search seed
  std::uint64_t index = 0;  ///< verdict: scenario index within the campaign
  SimConfig config;         ///< shrunk config; replays standalone
  /// What `config`'s evaluation recorded: the verdict (oracle and
  /// diagnosis) or the damage, and the trace identities.
  Evaluation recorded;
  std::size_t shrink_steps = 0;  ///< accepted shrinking transformations
  std::size_t shrink_runs = 0;   ///< simulations the shrinker executed

  /// The oracle that fired (verdict reproducers).
  [[nodiscard]] Oracle oracle() const noexcept {
    return recorded.verdict.violated;
  }
  /// The file name the tools write it under: the id with '/' turned into
  /// '-' for a campaign finding, "<protocol>-<attack>.json" for a search.
  [[nodiscard]] std::string file_name() const;

  [[nodiscard]] json::Value to_json() const;
  /// Strict parse; the objective follows from "$.schema". Throws
  /// std::invalid_argument / json::Error naming the offending path.
  [[nodiscard]] static Reproducer from_json(const json::Value& v,
                                            const std::string& path = "$");
  [[nodiscard]] static Reproducer from_file(const std::string& file);
  void save(const std::string& file) const;
};

/// Outcome of replaying a reproducer.
struct ReplayOutcome {
  Evaluation replayed;
  bool score_matches = true;   ///< damage: recomputed score == recorded
  bool verdict_matches = false;  ///< same oracle, or same stall/safety flags
  bool fingerprint_matches = false;  ///< every trace bit-identical

  [[nodiscard]] bool ok() const noexcept {
    return score_matches && verdict_matches && fingerprint_matches;
  }
};

/// Re-evaluates the reproducer's config under its objective and compares
/// the result against the recorded one.
[[nodiscard]] ReplayOutcome replay_reproducer(const Reproducer& repro);

}  // namespace bftsim::explore
