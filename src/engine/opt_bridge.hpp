// Glue between the engines and the pre-exploration optimizer
// (ta/ir.hpp): derive the pins a goal imposes, remap the goal onto the
// optimized system, and re-express a witness trace on the original
// system so concretization and validation run against the model the
// caller actually built.
//
// Reachability::run and BestFirst::run call optimizeForGoal lazily —
// the pins are goal-dependent, so the optimized system cannot be built
// at model-construction time. When the pipeline finds nothing to do
// (changed() == false) the engines fall through to the original system
// and behave bit-for-bit as at optLevel 0.
#pragma once

#include <utility>
#include <vector>

#include "engine/reachability.hpp"
#include "engine/stats.hpp"
#include "ta/ir.hpp"

namespace engine::opt_bridge {

/// Run the pass pipeline for one goal. `extraPinnedLocations` pins
/// heuristic-target locations so the remaining-time analysis keeps its
/// anchors.
[[nodiscard]] ta::OptimizedModel optimizeForGoal(
    const ta::System& sys, const Goal& goal, int optLevel,
    const std::vector<std::pair<ta::ProcId, ta::LocId>>& extraPinnedLocations =
        {});

/// Remap a goal onto the optimized system (locations, predicate with
/// the constant-variable substitution applied, clock constraints).
[[nodiscard]] Goal mapGoal(const ta::System& orig, const Goal& goal,
                           ta::OptimizedModel& model);

/// Re-express an optimized-system trace on the original system: map
/// each transition part to its original edge and replay the original
/// discrete semantics for the location vectors and variable valuations.
/// Traces carry no zones, so the clock space needs no mapping:
/// concretize derives exact zones on the original system itself.
[[nodiscard]] SymbolicTrace backMapTrace(const ta::System& orig,
                                         const ta::OptimizedModel& model,
                                         const SymbolicTrace& opt);

/// Fold the optimizer's per-pass counters into a run's Stats.
void mergePassStats(Stats& st, const ta::PassStats& ps);

}  // namespace engine::opt_bridge
