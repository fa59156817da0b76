// Online rescheduling: synthesize a repair schedule from a concrete
// plant snapshot, degrading gracefully when the budgeted search or the
// original deadlines cannot be met.
//
// The degradation ladder:
//   level 0 (strict)  — lift with the original timing constraints and
//                       run the priced-zone best-first optimizer under
//                       a state budget: a makespan-optimal repair that
//                       still honors every original deadline.
//   level 1 (relaxed) — widen the soft deadlines (relaxedConfig), clamp
//                       the lifted clocks, and take the first schedule
//                       a depth-first search finds: finish mechanically,
//                       quality deadlines abandoned.
//   level 2 (safe stop) — no executable repair: report infeasible so
//                       the controller halts the plant instead of
//                       driving it blind.
//
// Budgets are expressed in explored states, not wall time, so a replay
// with the same seed takes the same ladder path on any machine. The
// engine options add a default wall-time and memory budget as a
// backstop, so no rung searches unbounded: a rung cut off without a
// schedule hands over to the next one.
#pragma once

#include "engine/options.hpp"
#include "engine/stats.hpp"
#include "plant/config.hpp"
#include "rcx/snapshot.hpp"
#include "replan/lift.hpp"
#include "synthesis/schedule.hpp"

namespace synthesis {

struct ResumeOptions {
  /// Base engine configuration for both ladder levels (search order and
  /// dfsReverse of the bootstrap/relaxed runs are overridden below).
  /// Defaults to a 60 s and 512 MiB budget per search.
  engine::Options engine = [] {
    engine::Options o;
    o.maxSeconds = 60.0;
    o.maxMemoryBytes = size_t{512} << 20;
    return o;
  }();
  /// Explored-state budget of the strict best-first optimization
  /// (bootstrap + priced-zone run each get this budget).
  size_t strictMaxStates = 400'000;
  /// Budget of the relaxed first-found search.
  size_t relaxedMaxStates = 800'000;
};

struct ResumeOutcome {
  bool feasible = false;  ///< a repair schedule exists (level 0 or 1)
  /// 0 = strict optimal, 1 = relaxed first-found, 2 = safe stop.
  int ladderLevel = 2;
  bool optimal = false;       ///< level 0 proved optimality (no cut-off)
  int64_t makespan = -1;      ///< repair-schedule makespan (model units)
  Schedule schedule;          ///< times relative to the resume point
  /// Configuration the repair segment must execute under (== the input
  /// config at level 0; relaxedConfig(input) at level 1). The physical
  /// checks of the resumed simulation use these constants too.
  plant::PlantConfig repairCfg;
  replan::LiftReport lift;    ///< report of the level that produced it
  engine::Stats stats;        ///< last search's statistics
  double seconds = 0.0;       ///< wall time of the whole resume
};

/// Lift `snap` onto the model for `cfg` and synthesize a repair
/// schedule, walking the degradation ladder. `cfg` must carry the
/// production order the snapshot was captured under.
[[nodiscard]] ResumeOutcome resumeFrom(const rcx::PlantSnapshot& snap,
                                       const plant::PlantConfig& cfg,
                                       const ResumeOptions& opts = {});

}  // namespace synthesis
