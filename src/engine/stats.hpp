// Search statistics — the time/space numbers Table 1 reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "engine/options.hpp"

namespace engine {

struct Stats {
  size_t statesExplored = 0;   ///< states popped and expanded
  size_t statesGenerated = 0;  ///< successors constructed
  size_t bytesStored = 0;      ///< current bytes in passed/waiting/stack
  /// Zones held by the passed store at the end of the run (after
  /// inclusion subsumption and merging; best-first: entries not
  /// displaced by domination; 0 under bit-state hashing) — the number
  /// the abstraction-coarseness benchmarks compare.
  size_t storedZones = 0;
  /// normalize() calls in which the extrapolation operator actually
  /// widened the zone (a proxy for how much work the abstraction does).
  size_t extrapolationCoarsenings = 0;
  /// Clocks freed by the active-clock reduction (one per inactive
  /// clock per normalized state).
  size_t inactiveClocksFreed = 0;
  size_t peakBytes = 0;        ///< high-water mark of bytesStored
  size_t peakStackDepth = 0;   ///< DFS only; parallel DFS reports the
                               ///< maximum over the per-worker peaks
  double seconds = 0.0;
  Cutoff cutoff = Cutoff::kNone;

  // -- Storage engine (interner + flat passed store) --------------------
  size_t statesInterned = 0;  ///< distinct discrete states interned
  size_t internHits = 0;      ///< intern() calls answered by an existing
                              ///< entry — d-part copies avoided
  size_t internBytes = 0;     ///< bytes held by the interner arena
  size_t storeLookups = 0;    ///< covered() calls on the passed store
  size_t storeProbeSteps = 0;  ///< open-addressing probe steps across all
                               ///< lookups/inserts (mean = steps/lookups)
  size_t storeBytes = 0;      ///< bytes held by the passed store proper
                              ///< (excludes interner and search stack)

  // -- Best-first engine only (zero / empty elsewhere) ------------------
  size_t reopenings = 0;  ///< insertions that displaced an already-
                          ///< expanded dominated entry (inconsistent-h
                          ///< rework)
  /// Monotonically improving incumbent costs in discovery order; the
  /// last entry is the optimum when the run proved it.
  std::vector<int64_t> incumbentCosts;

  // -- Pre-exploration optimizer (ta/ir.hpp; zero at optLevel 0 or when
  //    the pipeline found nothing to do) --------------------------------
  size_t foldedExprs = 0;            ///< constant-folding rewrites
  size_t removedLocations = 0;       ///< unreachable locations eliminated
  size_t removedEdges = 0;           ///< never-enabled/dangling edges cut
  size_t elidedVars = 0;             ///< variables whose stores were elided
  size_t unifiedClocks = 0;          ///< clocks merged into a representative
  double optSeconds = 0.0;           ///< wall time spent in the optimizer

  // -- DBM kernel dispatch (process-wide deltas over the search) --------
  size_t simdKernelOps = 0;    ///< DBM-level ops served by a vector path
  size_t scalarKernelOps = 0;  ///< ops served by the scalar fallback

  // -- Parallel engines only (empty / zero on the sequential ones) ------
  std::vector<size_t> perThreadExplored;  ///< states expanded per worker
  size_t lockContention = 0;  ///< shard-lock try_lock failures
  size_t chunkSteals = 0;     ///< BFS: frontier chunks taken outside the
                              ///< worker's fair share of the level
  size_t frameSteals = 0;     ///< work-stealing DFS: pending frames taken
                              ///< from another worker's stack

  [[nodiscard]] double peakMegabytes() const noexcept {
    return static_cast<double>(peakBytes) / (1024.0 * 1024.0);
  }
};

}  // namespace engine
