// Symbolic successor computation for a network of timed automata.
//
// States handed out are *normalized*: delayed (unless an urgent or
// committed location forbids it), invariant-constrained, optionally
// inactive-clock-reduced, and extrapolated. The reachability engine
// only ever sees normalized states.
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "engine/options.hpp"
#include "engine/state.hpp"
#include "ta/bounds_analysis.hpp"
#include "ta/system.hpp"

namespace engine {

struct Successor {
  SymbolicState state;
  Transition via;
};

/// Conjoin the invariants of every location in `locs` into `z`. False
/// once `z` is empty.
[[nodiscard]] bool conjoinInvariants(const ta::System& sys,
                                     const std::vector<ta::LocId>& locs,
                                     dbm::Dbm& z);

/// True if an urgent or committed location in `locs` forbids delay.
/// Inline: normalize() calls it for every generated state.
[[nodiscard]] inline bool delayForbidden(const ta::System& sys,
                                         const std::vector<ta::LocId>& locs) {
  for (size_t p = 0; p < locs.size(); ++p) {
    const ta::Location& l =
        sys.automaton(static_cast<ta::ProcId>(p)).location(locs[p]);
    if (l.urgent || l.committed) return true;
  }
  return false;
}

class SuccessorGenerator {
 public:
  SuccessorGenerator(const ta::System& sys, const Options& opts);

  /// The normalized initial state (all automata in their initial
  /// locations, variables at declared initial values, clocks zero then
  /// delayed as permitted).
  [[nodiscard]] SymbolicState initial() const;

  /// All normalized symbolic successors of (d, zone). The engines hold
  /// interned discrete states and zones separately, so this is the
  /// primary entry point; the SymbolicState overload forwards.
  [[nodiscard]] std::vector<Successor> successors(
      const DiscreteState& d, const dbm::Dbm& zone) const;

  [[nodiscard]] std::vector<Successor> successors(
      const SymbolicState& s) const {
    return successors(s.d, s.zone);
  }

  /// Human-readable label of a transition, e.g. "b2left!/b2left?" —
  /// joins the labels of the participating edges.
  [[nodiscard]] std::string label(const Transition& t) const;

  /// Register the clock constraints a reachability goal observes:
  /// the named clocks are excluded from the active-clock reduction and
  /// their constants folded into every extrapolation's bounds (both L
  /// and U, at every location) — otherwise either abstraction could
  /// satisfy goal constraints spuriously.
  void observeGoalConstraints(const std::vector<ta::ClockConstraint>& ccs) {
    for (const ta::ClockConstraint& cc : ccs) {
      for (ta::ClockId c : {cc.i, cc.j}) {
        if (c > 0) {
          protected_[static_cast<size_t>(c)] = true;
          const dbm::value_t v = std::abs(dbm::boundValue(cc.bound));
          auto& m = maxBounds_[static_cast<size_t>(c)];
          m = std::max(m, v);
          auto& l = baseLower_[static_cast<size_t>(c)];
          l = std::max(l, v);
          auto& u = baseUpper_[static_cast<size_t>(c)];
          u = std::max(u, v);
        }
      }
    }
  }

  /// Exclude one clock from active-clock reduction and from every
  /// extrapolation operator outright, by folding the largest encodable
  /// constant into its bounds. The best-first engine protects its cost
  /// clock this way: widening (or freeing) the cost clock would shrink
  /// the zone's cost infimum and the reported "optimal" cost with it.
  void protectClock(ta::ClockId c) {
    assert(c > 0 && static_cast<size_t>(c) < protected_.size());
    protected_[static_cast<size_t>(c)] = true;
    maxBounds_[static_cast<size_t>(c)] = dbm::kMaxValue;
    baseLower_[static_cast<size_t>(c)] = dbm::kMaxValue;
    baseUpper_[static_cast<size_t>(c)] = dbm::kMaxValue;
  }

  [[nodiscard]] const ta::System& system() const noexcept { return sys_; }

  /// Cumulative over every state this generator normalized, on all
  /// threads: copied into Stats at the end of a search.
  [[nodiscard]] size_t extrapolationCoarsenings() const noexcept {
    return coarsenings_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] size_t inactiveClocksFreed() const noexcept {
    return clocksFreed_.load(std::memory_order_relaxed);
  }

 private:
  /// Delay + re-apply invariants + reduce + extrapolate. Returns false
  /// if the state's zone is empty.
  bool normalize(SymbolicState& s) const;

  /// Attempt one discrete transition; appends to `out` on success.
  void tryFire(const DiscreteState& d, const dbm::Dbm& zone,
               const std::vector<TransitionPart>& parts,
               std::vector<Successor>& out) const;

  /// Combine the per-automaton LU rows of the current location vector
  /// (pointwise max over processes, seeded with the goal-protected
  /// base bounds) into dense per-clock arrays.
  void collectLU(const DiscreteState& d, std::vector<dbm::value_t>& lower,
                 std::vector<dbm::value_t>& upper) const;

  const ta::System& sys_;
  const Options& opts_;
  std::vector<bool> protected_;
  std::vector<dbm::value_t> maxBounds_;
  /// Static per-location LU tables (kLocationLUPlus only).
  ta::LUTable lu_;
  /// Location-independent floor of the combined bounds: -1 everywhere
  /// until observeGoalConstraints folds in the goal's constants.
  std::vector<dbm::value_t> baseLower_;
  std::vector<dbm::value_t> baseUpper_;
  /// Abstraction observability counters (Stats.extrapolationCoarsenings
  /// / Stats.inactiveClocksFreed). Mutable relaxed atomics: successors()
  /// is const and runs concurrently on the parallel engines.
  mutable std::atomic<size_t> coarsenings_{0};
  mutable std::atomic<size_t> clocksFreed_{0};
};

}  // namespace engine
