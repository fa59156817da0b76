// Schedules: the projection of a concrete model trace onto the actions
// that drive the physical plant (paper Section 6 / Table 2).
//
// Every plant-relevant edge in the model carries a label of the form
// "<Unit>.<Command>" (e.g. "Load1.Track1Right", "Crane2.Pickup4",
// "Caster.Start1"); projection keeps exactly those labels together with
// their concrete timestamps and derives the Delay() lines between them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engine/options.hpp"
#include "engine/reachability.hpp"
#include "engine/stats.hpp"
#include "engine/trace.hpp"
#include "ta/system.hpp"

namespace synthesis {

/// One command of a schedule, with its structured interpretation.
struct ScheduleItem {
  int64_t time = 0;     ///< absolute model time the command fires
  std::string unit;     ///< "Load1", "Crane2", "Caster", ...
  std::string command;  ///< "Track1Right", "Pickup4", "Start1", ...

  [[nodiscard]] std::string text() const { return unit + "." + command; }
};

struct Schedule {
  std::vector<ScheduleItem> items;
  int64_t makespan = 0;

  /// Render in the paper's Table 2 style: Delay(d) lines interleaved
  /// with Unit.Command lines.
  [[nodiscard]] std::string toText() const;
};

/// Project a concrete trace to the plant schedule: keep the steps whose
/// fired edges carry "Unit.Command" labels, in timestamp order.
[[nodiscard]] Schedule project(const ta::System& sys,
                               const engine::ConcreteTrace& trace);

// -- Makespan optimization ----------------------------------------------
//
// Two interchangeable optimizers over the same model:
//  - kBinary: the paper-era technique — binary-search the smallest B
//    for which `goal && makespan <= B` is reachable, one full
//    reachability sweep per probe.
//  - kBestFirst: one cost-ordered A* run over priced zones
//    (engine::BestFirst), seeded with the first-found schedule as the
//    initial incumbent. Anytime: every improving incumbent is recorded.
// Both return the same optimal makespan (the differential test in
// tests/best_first_test.cpp holds them to that), so kBinary doubles as
// the oracle for the best-first engine.

enum class Optimizer { kBinary, kBestFirst };

/// Parse "binary" / "bestfirst"; returns false on anything else.
[[nodiscard]] bool parseOptimizer(const std::string& s, Optimizer* out);

struct OptimizeOptions {
  Optimizer optimizer = Optimizer::kBinary;
  /// Base engine options. softGuides are consumed by kBestFirst only;
  /// order/threads apply to the kBinary probes and to the
  /// first-found bootstrap run of either optimizer.
  engine::Options engine;
  /// Per-process heuristic target locations for the best-first
  /// remaining-time bound; empty = derive from the goal's locations.
  std::vector<std::vector<ta::LocId>> heuristicTargets;
};

struct OptimizeResult {
  bool feasible = false;  ///< some schedule reaches the goal
  bool optimal = false;   ///< the optimum was proven (no cut-off)
  int64_t firstMakespan = -1;    ///< first-found DFS baseline
  int64_t optimalMakespan = -1;  ///< proven optimum (== best incumbent
                                 ///< when !optimal)
  /// Best-first only: cost of the optimal trace including soft-guide
  /// penalties (== optimalMakespan when no guides are set).
  int64_t cost = -1;
  Schedule schedule;  ///< concrete optimal schedule (projected)
  /// Last / only optimizing run. For kBinary the probes are folded in:
  /// statesExplored/statesGenerated/seconds are their sums, peakBytes
  /// their maximum, and cutoff the first probe cut-off (kNone if none).
  engine::Stats stats;
  size_t runs = 0;  ///< reachability probes (kBinary) or 1 (kBestFirst)
  /// Monotonically improving makespans in discovery order. For kBinary
  /// these are the feasible probe bounds; for kBestFirst the anytime
  /// incumbent stream.
  std::vector<int64_t> incumbents;
  double seconds = 0.0;  ///< wall time of the whole optimization
};

/// Find the time-optimal schedule of `sys` for `goal`, measured on the
/// never-reset clock `makespanClock`. The system must be finalized.
[[nodiscard]] OptimizeResult optimizeMakespan(const ta::System& sys,
                                              const engine::Goal& goal,
                                              ta::ClockId makespanClock,
                                              const OptimizeOptions& opts);

}  // namespace synthesis
