// Shrinking (delta debugging over SimConfig), for both objectives.
//
// Given a config that meets an objective, the shrinker repeatedly tries
// simpler variants — drop the attack, drop a fault window, shrink n,
// flatten the delay distribution to a constant, reduce the decision
// target, shorten a partition, halve the horizon — evaluating each
// candidate deterministically and keeping it only when the objective still
// holds. Candidates are generated in a fixed order and the loop restarts
// from the first transformation after every acceptance (classic ddmin
// structure), so the result is a deterministic function of the input.
//
// Two transformations depend on the objective and its verdict:
//  * the damage objective never drops the attack: it shrinks an attack
//    strategy, and removing it is the one change that must not be on the
//    table;
//  * horizon halving is skipped for liveness-style results (a liveness
//    violation, or a stalled attacked run): "still fails with less time"
//    is trivially true and would shrink every such case into a microscopic
//    horizon.
#pragma once

#include <cstddef>

#include "core/config.hpp"
#include "explore/evaluate.hpp"

namespace bftsim::explore {

/// The smallest config the budget allowed for which the objective held.
struct Shrunk {
  SimConfig config;
  Evaluation eval;         ///< evaluation of `config`
  std::size_t steps = 0;   ///< accepted transformations
  std::size_t runs = 0;    ///< simulations charged to the shrink
};

/// Shrinks `start`, whose evaluation `start_eval` must meet `objective`
/// (std::invalid_argument otherwise), within `budget`. A verdict shrink's
/// budget counts simulations including the run that established
/// `start_eval`; a damage shrink's counts candidate evaluations, two
/// simulations each, and `runs` reports those simulations. A candidate
/// that fails SimConfig::validate() is skipped for free; one whose run
/// throws is rejected but still spends budget. Never mutates `start`.
[[nodiscard]] Shrunk shrink(const SimConfig& start, Evaluation start_eval,
                            const Objective& objective, std::size_t budget);

}  // namespace bftsim::explore
