// Static per-location clock-bound analysis (Behrmann, Bouyer, Larsen,
// Pelánek: "Lower and Upper Bounds in Zone-Based Abstractions of Timed
// Automata", and the UPPAAL "static guard analysis" lineage).
//
// For every automaton location ℓ and clock x the analysis computes
//
//   L(ℓ, x) — the largest constant c such that a constraint of the
//             form x > c / x >= c can still be *observed* from ℓ
//             before x is next reset, and
//   U(ℓ, x) — the same for upper-bound constraints x < c / x <= c,
//
// by a backward fixpoint over the automaton's edges: a location
// contributes the constants of its own invariant and of the guards of
// its outgoing edges, and inherits the bounds of each successor
// location across every edge that does not reset the clock.  A reset
// x := v with v > 0 additionally floors both bounds of x at v in the
// destination (the clock holds v outright there, and extrapolation
// must not erase that).
//
// -1 means "no such constraint is observable" — the matching bound may
// be abstracted away entirely.  The per-location tables refine the
// single global maximum `System::maxBounds()` (Extra_M): for every
// location, L(ℓ,x) <= M(x) and U(ℓ,x) <= M(x), so the induced
// Extra+_LU abstraction is coarser than (abstracts at least as much
// as) global Extra_M while still preserving location reachability.
#pragma once

#include <span>
#include <vector>

#include "ta/system.hpp"

namespace ta {

/// Lower/upper bound constants of one clock at one location.
/// -1 = no observable constraint of that kind.
struct ClockLU {
  ClockId clock = 0;
  dbm::value_t lower = -1;  ///< L(l, clock)
  dbm::value_t upper = -1;  ///< U(l, clock)
};

/// Per-automaton, per-location LU tables in sparse form: only clocks
/// with at least one observable bound at the location appear, sorted
/// by clock id. Clocks never compared by an automaton never appear in
/// its rows — the engine combines rows across the location vector by
/// pointwise max, so absence is the identity.
class LUTable {
 public:
  [[nodiscard]] const std::vector<ClockLU>& at(ProcId p, LocId l) const {
    return rows_[static_cast<size_t>(p)][static_cast<size_t>(l)];
  }

  /// Dense lookups for tests and diagnostics (linear scan of the row).
  [[nodiscard]] dbm::value_t lower(ProcId p, LocId l, ClockId x) const {
    for (const ClockLU& e : at(p, l)) {
      if (e.clock == x) return e.lower;
    }
    return -1;
  }
  [[nodiscard]] dbm::value_t upper(ProcId p, LocId l, ClockId x) const {
    for (const ClockLU& e : at(p, l)) {
      if (e.clock == x) return e.upper;
    }
    return -1;
  }

  [[nodiscard]] size_t numAutomata() const noexcept { return rows_.size(); }

 private:
  friend LUTable analyzeClockBounds(const System& sys);

  // rows_[proc][loc] = sparse LU row.
  std::vector<std::vector<std::vector<ClockLU>>> rows_;
};

/// Run the backward fixpoint over every automaton of a finalized
/// system, each on arrays over its own clocks only (those its
/// invariants, guards and resets name), so the cost does not grow with
/// the other automata's clocks. Pure function of the system structure;
/// safe to call from multiple threads on the same (immutable) system.
[[nodiscard]] LUTable analyzeClockBounds(const System& sys);

// -- Minimum remaining processing time ------------------------------------
//
// For cost-optimal (makespan) search the engine needs an *admissible*
// lower bound on the time that must still elapse before a location
// vector can become a goal. The same backward style as the LU fixpoint
// gives one per automaton: a location's outgoing edge whose guard
// demands x >= c on a clock x that is provably 0 on entry to the
// location ("fresh": reset to 0 by every incoming edge, and the
// automaton's start counts as a fresh entry to the initial location)
// cannot fire until c time units have been spent there, so every path
// from the location to a target accumulates at least the sum of those
// waits. Ignoring synchronization partners, integer guards, urgency
// and invariants only shortens paths — the bound stays a lower bound.
//
// Two values per location, because the current state may already have
// dwelt in its location with the guard clocks partially (or fully)
// elapsed:
//
//   entry(p, l) — min remaining time for runs *entering* l fresh
//                 (used for the successors along a path), and
//   from(p, l)  — min remaining time from an arbitrary state already
//                 at l: the own-location wait is dropped, only the
//                 entry() values of the successors remain.
//
// The network-level heuristic is max over automata with targets: each
// automaton's remaining time elapses on the same global time axis, so
// every one is individually a lower bound on the remaining makespan.

/// "No path from here to any target" — a state whose automaton sits at
/// such a location can never satisfy the goal.
inline constexpr dbm::value_t kUnreachableRemaining = dbm::kMaxValue;

class RemainingTimeTable {
 public:
  /// Min remaining time when entering l fresh (kUnreachableRemaining
  /// if no target is reachable from l).
  [[nodiscard]] dbm::value_t entry(ProcId p, LocId l) const {
    return entry_[static_cast<size_t>(p)][static_cast<size_t>(l)];
  }
  /// Min remaining time from an arbitrary already-dwelling state at l.
  [[nodiscard]] dbm::value_t from(ProcId p, LocId l) const {
    return from_[static_cast<size_t>(p)][static_cast<size_t>(l)];
  }
  /// Whether automaton p had a nonempty target set (procs without
  /// targets contribute nothing to the network max).
  [[nodiscard]] bool hasTargets(ProcId p) const {
    return hasTargets_[static_cast<size_t>(p)];
  }

  /// The heuristic for a location vector: max over automata with
  /// targets of from(p, locs[p]).
  [[nodiscard]] dbm::value_t lowerBound(std::span<const LocId> locs) const {
    dbm::value_t h = 0;
    for (size_t p = 0; p < from_.size(); ++p) {
      if (!hasTargets_[p]) continue;
      const dbm::value_t v =
          from_[p][static_cast<size_t>(locs[p])];
      if (v > h) h = v;
    }
    return h;
  }

 private:
  friend RemainingTimeTable analyzeMinRemainingTime(
      const System& sys, const std::vector<std::vector<LocId>>& targets);

  std::vector<std::vector<dbm::value_t>> entry_;
  std::vector<std::vector<dbm::value_t>> from_;
  std::vector<bool> hasTargets_;
};

/// Backward Bellman fixpoint over every automaton of a finalized
/// system. `targets[p]` lists automaton p's goal locations (empty =
/// this automaton does not constrain the goal). Freshness is tracked
/// only for the clocks of the automaton's lower-bound guards, so the
/// cost does not grow with the other automata's clocks. Pure function
/// of the system structure.
[[nodiscard]] RemainingTimeTable analyzeMinRemainingTime(
    const System& sys, const std::vector<std::vector<LocId>>& targets);

}  // namespace ta
