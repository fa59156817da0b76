// Typed model IR for the pre-exploration optimizer.
//
// `Ir::lower` deep-copies a finalized System into a mutable form the
// passes of ta/opt_passes.hpp can rewrite freely (the System builder is
// append-only and its derived tables would go stale under mutation).
// `optimizeModel` runs the pass pipeline to a fixpoint and, when
// anything changed, emits a fresh finalized System together with the
// maps the engine bridge needs:
//
//   forward  — remap a reachability goal (locations, predicate, clock
//              constraints) onto the optimized system;
//   backward — remap a witness trace's transitions onto the original
//              system's edges so concretization and validation run
//              against the model the caller built.
//
// No pass renumbers processes: optimized process p is original process
// p, and every optimized edge stands for exactly one original edge of
// the same process.
//
// Everything here is per-run and goal-dependent (the pins), so the
// optimizer is invoked lazily by Reachability::run / BestFirst::run
// rather than eagerly at model-construction time.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "ta/opt_passes.hpp"
#include "ta/system.hpp"

namespace ta {

struct IrEdge {
  LocId src = 0;
  LocId dst = 0;
  std::vector<ClockConstraint> clockGuard;
  ExprRef guard = kNoExpr;  ///< in Ir::pool
  ChanId chan = -1;
  Sync sync = Sync::kNone;
  std::vector<ClockReset> resets;
  std::vector<Assign> assigns;  ///< exprs in Ir::pool
  std::string label;
  int32_t origin = 0;  ///< index of the original edge in the same process
};

struct IrLocation {
  std::string name;
  std::vector<ClockConstraint> invariant;
  bool urgent = false;
  bool committed = false;
  /// Goal- or heuristic-referenced: must survive dead-location removal
  /// even when statically unreachable (an unreachable goal location is
  /// how callers ask "prove this can't happen").
  bool pinned = false;
};

struct IrProcess {
  std::string name;
  std::vector<IrLocation> locs;
  std::vector<IrEdge> edges;
  LocId init = 0;
};

/// What one specific reachability run needs preserved. Everything else
/// is fair game for the passes.
struct OptPins {
  /// Goal and heuristic-target locations (kept even if unreachable).
  std::vector<std::pair<ProcId, LocId>> locations;
  /// Variables the goal predicate reads: their stores stay.
  std::vector<VarId> vars;
  /// Clock constraints of the goal: unification must keep them
  /// satisfiable-representable (degenerate-unsat pairs are not merged).
  std::vector<ClockConstraint> clockConstraints;
};

/// The mutable optimization IR plus the running orig→current maps the
/// passes keep consistent as they renumber locations and clocks.
struct Ir {
  ExprPool pool;
  std::vector<IrProcess> procs;

  // Global tables copied from the source (variables and channels are
  // never renumbered; clocks are only merged, never reordered).
  size_t numClocks = 0;
  std::vector<std::string> clockNames;  ///< [c-1] for clock c
  std::vector<int32_t> varInit;
  std::vector<std::string> varNames;
  std::vector<std::pair<VarId, int32_t>> arrays;
  std::vector<std::string> chanNames;
  std::vector<ChanKind> chanKinds;

  /// Cumulative unification: original clock -> representative original
  /// clock (identity at lowering; index 0 stays 0).
  std::vector<ClockId> clockRep;
  /// Original (process, location) -> current IR location (-1 once the
  /// location was removed).
  std::vector<std::vector<LocId>> locOf;
  /// Variables already counted by PassStats::elidedVars (the dead-store
  /// pass cascades over iterations; each var is reported once).
  std::vector<uint8_t> elidedSeen;

  [[nodiscard]] static Ir lower(const System& sys, const OptPins& pins);
};

/// Result of optimizing a System for one run.
class OptimizedModel {
 public:
  /// False when the pipeline found nothing to do; the caller then runs
  /// the original system directly and `system()` must not be used.
  [[nodiscard]] bool changed() const noexcept { return changed_; }
  [[nodiscard]] const System& system() const noexcept { return sys_; }
  [[nodiscard]] const PassStats& stats() const noexcept { return stats_; }

  // -- Forward maps (original -> optimized; processes keep their ids) ----

  /// Valid for pinned locations and every location that survived; -1
  /// for removed locations (never the case for goal pins).
  [[nodiscard]] LocId mapLoc(ProcId p, LocId l) const {
    return locMap_[static_cast<size_t>(p)][static_cast<size_t>(l)];
  }
  [[nodiscard]] ClockId mapClock(ClockId c) const {
    return c == 0 ? 0 : clockMap_[static_cast<size_t>(c)];
  }
  /// Remap a goal clock constraint. Constraints whose clocks were
  /// unified to the same representative degenerate to x-x: satisfiable
  /// ones are returned as the trivial {0,0,<=0} (drop-equivalent);
  /// unification never merges pairs with unsatisfiable pinned
  /// constraints, so the unsat case cannot arise for pinned goals.
  [[nodiscard]] ClockConstraint mapConstraint(const ClockConstraint& cc) const;
  /// Rewrite a goal predicate from the original pool into the optimized
  /// system's pool, applying the final constant-variable substitution.
  [[nodiscard]] ExprRef mapExpr(const ExprPool& srcPool, ExprRef e);

  // -- Backward map (optimized edge -> original edge of process p) -------

  [[nodiscard]] int32_t originOf(ProcId p, int32_t edge) const {
    return origins_[static_cast<size_t>(p)][static_cast<size_t>(edge)];
  }

 private:
  friend OptimizedModel optimizeModel(const System& sys, const OptPins& pins,
                                      int level);

  System sys_;
  PassStats stats_;
  bool changed_ = false;
  std::vector<std::vector<LocId>> locMap_;
  std::vector<ClockId> clockMap_;  ///< [c] for original clock c (index 0 = 0)
  std::vector<std::vector<int32_t>> origins_;
  /// Final constant-variable substitution (for goal-predicate mapping).
  std::vector<uint8_t> varIsConst_;
  std::vector<int32_t> varConstVal_;
};

/// Lower, run the pipeline to a fixpoint, emit. `level` is
/// engine::Options::optLevel: 0 runs nothing (the result is unchanged),
/// 1 runs constant folding and dead-location/edge removal, 2 adds
/// dead-store elision and clock unification. The returned model owns
/// the optimized System by value; keep it alive as long as any engine
/// references `system()`.
[[nodiscard]] OptimizedModel optimizeModel(const System& sys,
                                           const OptPins& pins, int level);

}  // namespace ta
