// The pre-exploration optimization pass pipeline and the static
// analyses it shares with the lint passes.
//
// The sharing is the point: L004 (unreachable location) and L006
// (never-enabled edge) are *detected* by the linter and *eliminated*
// by the optimizer through the same two functions below
// (`reachableLocations`, `classifyEdgeViability`), so the detector and
// the remover can never diverge — a model the linter calls clean is a
// model the optimizer leaves alone, and every removal the optimizer
// performs corresponds to a diagnostic the linter would have printed
// for the same (possibly already-pruned) input.
//
// Each edge check builds its DBM over the reference clock and the
// clocks its guard and source invariant name — one or two of the 45-batch
// guided plant's 138 — which is exact by the projection argument of
// DESIGN.md "Zone representation: live clocks only".
//
// The pipeline itself runs over the mutable IR of ta/ir.hpp; see
// DESIGN.md "Typed IR and the optimization pipeline" for the pass
// ordering and the per-pass soundness arguments.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dbm/bound.hpp"
#include "ta/expr.hpp"
#include "ta/model.hpp"

namespace ta {

struct Ir;
struct OptPins;

// -- Analyses shared with the lint passes (L004 / L005 / L006) -----------

/// Why an edge can never fire (or kViable). Mirrors the lint checks
/// bit-for-bit, including their precedence: a constant-false integer
/// guard wins over clock-guard analysis, and an unsatisfiable clock
/// guard *alone* is distinguished from one that only contradicts the
/// source invariant.
enum class EdgeViability : uint8_t {
  kViable,
  /// L006: the integer guard is a compile-time constant evaluating to 0.
  kConstFalseGuard,
  /// L006: the clock guard is unsatisfiable on its own.
  kClockGuardUnsat,
  /// L005: the clock guard contradicts the source location's invariant.
  kGuardContradictsInvariant,
};

[[nodiscard]] EdgeViability classifyEdgeViability(
    const ExprPool& pool, ExprRef guard,
    std::span<const ClockConstraint> clockGuard,
    std::span<const ClockConstraint> sourceInvariant);

/// Locations reachable from `initial` over the given (src, dst) edge
/// pairs — the L004 analysis.
[[nodiscard]] std::vector<bool> reachableLocations(
    size_t numLocations, LocId initial,
    std::span<const std::pair<LocId, LocId>> edges);

/// True when the expression contains no variable reference, i.e. is a
/// compile-time constant (the guard-precondition of the L006 check).
[[nodiscard]] bool isConstExpr(const ExprPool& pool, ExprRef e);

/// Mark every variable cell the expression may read in `read`
/// (size = number of variables). A dynamic array access marks the whole
/// cell range, like the lint usage collector does.
void collectExprReads(const ExprPool& pool, ExprRef e,
                      std::vector<uint8_t>& read);

// -- Pass accounting ------------------------------------------------------

/// Per-pass work counters, surfaced through engine::Stats.
struct PassStats {
  size_t foldedExprs = 0;           ///< constant-folding rewrites applied
  size_t removedLocations = 0;      ///< unreachable locations eliminated
  size_t removedEdges = 0;          ///< never-enabled / dangling edges cut
  size_t elidedVars = 0;            ///< variables whose stores were elided
  size_t unifiedClocks = 0;         ///< clocks merged into a representative
  int iterations = 0;               ///< fixpoint rounds until quiescence
  double seconds = 0.0;             ///< wall time spent optimizing

  [[nodiscard]] bool any() const noexcept {
    return foldedExprs + removedLocations + removedEdges + elidedVars +
               unifiedClocks !=
           0;
  }
};

// -- The passes (internal interface between ir.cpp and opt_passes.cpp) ---
// Each returns true when it changed the IR.

bool passConstFold(Ir& ir, PassStats& st);
bool passRemoveNeverEnabledEdges(Ir& ir, PassStats& st);
bool passRemoveDeadLocations(Ir& ir, PassStats& st);
bool passDropDeadStores(Ir& ir, const OptPins& pins, PassStats& st);
bool passUnifyClocks(Ir& ir, const OptPins& pins, PassStats& st);

/// Constant-fold `e` (written into `pool`, which may be the node's own
/// pool — the arena is append-only). `isConst`/`constVal` give the
/// constant-variable substitution (empty spans disable propagation).
/// Returns the same ref when nothing applied; bumps *applied per
/// rewrite otherwise. Folding matches ExprPool::eval exactly: division
/// and modulo by zero, out-of-range constant indices, and values
/// outside int32 are left unfolded.
[[nodiscard]] ExprRef foldExpr(ExprPool& pool, ExprRef e,
                               std::span<const uint8_t> isConst,
                               std::span<const int32_t> constVal,
                               size_t* applied);

}  // namespace ta
