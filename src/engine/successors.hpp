// Symbolic successor computation for a network of timed automata.
//
// States handed out are *normalized*: delayed (unless an urgent or
// committed location forbids it), invariant-constrained and
// extrapolated, with the zone kept over the state's live clocks only
// (see ClockLayout). The reachability engine only ever sees normalized
// states.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <span>
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

/// Which clocks a zone keeps, and in which slot: slot k of the zone
/// holds global clock clock(k), and slot 0 is always the reference
/// clock. The engine keeps each state's zone over the state's live
/// clocks (SuccessorGenerator::layoutOf); full-dimension callers such
/// as concretize use the identity layout.
class ClockLayout {
 public:
  /// Just the reference clock, for global clock ids below `dim`.
  explicit ClockLayout(uint32_t dim = 1) { reset(dim); }

  /// Every clock in its own global slot.
  [[nodiscard]] static ClockLayout identity(uint32_t dim) {
    ClockLayout l(dim);
    for (uint32_t c = 1; c < dim; ++c) l.add(c);
    return l;
  }

  /// Back to just the reference clock. Clears only the slots in use,
  /// so rebuilding a reused layout costs O(kept clocks), not O(dim).
  void reset(uint32_t dim) {
    for (const uint32_t c : clocks_) slot_[c] = -1;
    if (slot_.size() < dim) slot_.resize(dim, -1);
    clocks_.assign(1, 0);
    slot_[0] = 0;
  }

  /// Keep global clock `c` (not yet kept) in the next slot.
  void add(uint32_t c) {
    assert(slot_[c] < 0);
    slot_[c] = static_cast<int32_t>(clocks_.size());
    clocks_.push_back(c);
  }

  [[nodiscard]] uint32_t dimension() const noexcept {
    return static_cast<uint32_t>(clocks_.size());
  }
  [[nodiscard]] uint32_t clock(uint32_t k) const noexcept {
    return clocks_[k];
  }
  /// Slot of global clock `c`, or -1 when the layout drops it.
  [[nodiscard]] int32_t slot(ta::ClockId c) const noexcept {
    return slot_[static_cast<size_t>(c)];
  }
  /// Slot of a clock the layout keeps.
  [[nodiscard]] uint32_t index(ta::ClockId c) const noexcept {
    assert(slot(c) >= 0 && "clock constraint on a clock the zone dropped");
    return static_cast<uint32_t>(slot(c));
  }

  /// Global clock -> slot (-1 = dropped) for the clocks below `dim`.
  [[nodiscard]] std::span<const int32_t> slotMap(uint32_t dim) const {
    assert(dim <= slot_.size());
    return {slot_.data(), dim};
  }

  [[nodiscard]] bool operator==(const ClockLayout& o) const noexcept {
    return clocks_ == o.clocks_;
  }

 private:
  std::vector<uint32_t> clocks_;  ///< global clock of each slot
  std::vector<int32_t> slot_;     ///< global clock -> slot, -1 = dropped
};

/// Conjoin the invariants of every location in `locs` into `z`, a zone
/// over `layout`. False once `z` is empty.
[[nodiscard]] bool conjoinInvariants(const ta::System& sys,
                                     const ClockLayout& layout,
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

/// True if a location in `locs` is committed: then only transitions
/// with a committed participant may fire.
[[nodiscard]] inline bool anyCommitted(const ta::System& sys,
                                       const std::vector<ta::LocId>& locs) {
  for (size_t p = 0; p < locs.size(); ++p) {
    if (sys.automaton(static_cast<ta::ProcId>(p)).location(locs[p]).committed)
      return true;
  }
  return false;
}

/// The model's transition relation, one edge at a time: calls
/// emit(parts) for each discrete transition that edge `ei` of process
/// `p` leads at locations `locs` and variables `vars`. `ei` must leave
/// locs[p]; `committed` is anyCommitted(sys, locs). The engine, the
/// Simulator and validate all enumerate through here:
///  - an internal edge fires alone;
///  - a binary send pairs with each receive edge on its channel at
///    another process's current location, in receiver order;
///  - a broadcast send is joined, in every other process, by the first
///    receive edge on its channel whose integer guard holds at `vars`
///    (broadcast receivers carry no clock guards, as in UPPAAL);
///  - while `committed`, only a transition with a participant in a
///    committed location;
///  - a receive edge leads nothing.
/// `parts` lists the participating edges, leading edge first; it is
/// the caller's scratch and holds each transition only during its emit
/// call. Nothing else is checked here: guards, assignments and
/// invariants are the caller's.
template <class Emit>
void forEachTransitionLedBy(const ta::System& sys,
                            const std::vector<ta::LocId>& locs,
                            const std::vector<int32_t>& vars, bool committed,
                            ta::ProcId p, int32_t ei,
                            std::vector<TransitionPart>& parts, Emit&& emit) {
  const ta::Edge& e = sys.automaton(p).edges()[static_cast<size_t>(ei)];
  assert(e.src == locs[static_cast<size_t>(p)]);
  const auto isCommitted = [&](ta::ProcId q) {
    return sys.automaton(q).location(locs[static_cast<size_t>(q)]).committed;
  };
  if (e.sync == ta::Sync::kReceive) return;  // led by its sender
  parts.assign(1, {p, ei});
  bool withCommitted = !committed || isCommitted(p);
  if (e.sync == ta::Sync::kNone) {
    if (withCommitted) emit(parts);
    return;
  }
  if (sys.channelKind(e.chan) == ta::ChanKind::kBinary) {
    for (const auto& [q, ej] : sys.receivers(e.chan)) {
      if (q == p) continue;
      const ta::Edge& r = sys.automaton(q).edges()[static_cast<size_t>(ej)];
      if (r.src != locs[static_cast<size_t>(q)]) continue;
      if (!withCommitted && !isCommitted(q)) continue;
      parts.resize(1);
      parts.push_back({q, ej});
      emit(parts);
    }
    return;
  }
  // Broadcast. receivers() lists each process's edges together and in
  // edge order, so the first match is the process's first enabled one.
  for (const auto& [q, ej] : sys.receivers(e.chan)) {
    if (q == p || parts.back().proc == q) continue;
    const ta::Edge& r = sys.automaton(q).edges()[static_cast<size_t>(ej)];
    if (r.src != locs[static_cast<size_t>(q)]) continue;
    assert(r.clockGuard.empty() &&
           "clock guards on broadcast receivers are unsupported");
    if (!sys.pool().evalBool(r.guard, vars)) continue;
    parts.push_back({q, ej});
    withCommitted = withCommitted || isCommitted(q);
  }
  if (withCommitted) emit(parts);
}

/// Every discrete transition at (locs, vars): those of each process's
/// outgoing edges, in process order, then edge order.
template <class Emit>
void forEachTransition(const ta::System& sys,
                       const std::vector<ta::LocId>& locs,
                       const std::vector<int32_t>& vars,
                       std::vector<TransitionPart>& parts, Emit&& emit) {
  const bool committed = anyCommitted(sys, locs);
  for (size_t p = 0; p < locs.size(); ++p) {
    const auto proc = static_cast<ta::ProcId>(p);
    for (const int32_t ei : sys.automaton(proc).outgoing(locs[p])) {
      forEachTransitionLedBy(sys, locs, vars, committed, proc, ei, parts,
                             emit);
    }
  }
}

/// Human-readable label of a transition, e.g. "b2left!/b2left?" —
/// joins the labels of the participating edges.
[[nodiscard]] std::string label(const ta::System& sys, const Transition& t);

class SuccessorGenerator {
 public:
  SuccessorGenerator(const ta::System& sys, const Options& opts);

  /// The normalized initial state (all automata in their initial
  /// locations, variables at declared initial values, clocks zero then
  /// delayed as permitted).
  [[nodiscard]] SymbolicState initial() const;

  /// All normalized symbolic successors of (d, zone), `zone` being over
  /// layoutOf(d). The engines hold interned discrete states and zones
  /// separately, so this is the primary entry point; the SymbolicState
  /// overload forwards.
  [[nodiscard]] std::vector<Successor> successors(
      const DiscreteState& d, const dbm::Dbm& zone) const;

  [[nodiscard]] std::vector<Successor> successors(
      const SymbolicState& s) const {
    return successors(s.d, s.zone);
  }

  /// The clocks a zone at `d` keeps: the reference clock, the protected
  /// clocks in their fixed leading slots, then every other clock active
  /// in some current location, by global id. A clock active nowhere is
  /// reset before it is next read, so its value cannot matter (the
  /// Daws–Tripakis active-clock reduction). The layout depends on the
  /// location vector alone, so all zones of one discrete state share
  /// it. Without activeClockReduction it is the identity.
  void layoutOf(const DiscreteState& d, ClockLayout& out) const;

  /// Dbm::hash() of the full-width zone `s.zone` is the projection of,
  /// its dropped clocks freed: the same value whichever clocks the
  /// layout keeps. Bit-state hashing decides what to explore by hash
  /// values alone, so it hashes zones this way. Costs O(dim^2).
  [[nodiscard]] size_t fullWidthHash(const SymbolicState& s) const;

  /// Register the clock constraints a reachability goal observes: the
  /// named clocks are kept live in every zone, in fixed leading slots,
  /// and their constants are folded into every extrapolation's bounds
  /// (both L and U, at every location); otherwise either abstraction
  /// could satisfy goal constraints spuriously. Returns the constraints
  /// re-indexed to those slots, the form Goal::matches tests zones in.
  [[nodiscard]] std::vector<ta::ClockConstraint> observeGoalConstraints(
      const std::vector<ta::ClockConstraint>& ccs) {
    std::vector<ta::ClockConstraint> local = ccs;
    for (ta::ClockConstraint& cc : local) {
      for (ta::ClockId* c : {&cc.i, &cc.j}) {
        if (*c == 0) continue;
        const auto g = static_cast<size_t>(*c);
        const dbm::value_t v = std::abs(dbm::boundValue(cc.bound));
        maxBounds_[g] = std::max(maxBounds_[g], v);
        baseLower_[g] = std::max(baseLower_[g], v);
        baseUpper_[g] = std::max(baseUpper_[g], v);
        *c = static_cast<ta::ClockId>(keepLive(*c));
      }
    }
    return local;
  }

  /// Exclude one clock from active-clock reduction and from every
  /// extrapolation operator outright, by folding the largest encodable
  /// constant into its bounds. The best-first engine protects its cost
  /// clock this way: widening (or dropping) the cost clock would shrink
  /// the zone's cost infimum and the reported "optimal" cost with it.
  /// Returns the clock's slot, the same in every zone of the run.
  uint32_t protectClock(ta::ClockId c) {
    assert(c > 0 && static_cast<size_t>(c) < maxBounds_.size());
    maxBounds_[static_cast<size_t>(c)] = dbm::kMaxValue;
    baseLower_[static_cast<size_t>(c)] = dbm::kMaxValue;
    baseUpper_[static_cast<size_t>(c)] = dbm::kMaxValue;
    return keepLive(c);
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
  /// The abstraction counters of one expansion, added to the shared
  /// totals once per successors() call rather than once per state: the
  /// parallel engines' workers would otherwise contend on them.
  struct Tally {
    size_t coarsenings = 0;
    size_t clocksFreed = 0;
  };

  /// Per-thread scratch of one expansion: the source and target
  /// layouts, the slot map between them and the counters.
  struct Scratch {
    ClockLayout src;
    ClockLayout dst;
    std::vector<int32_t> from;
    Tally tally;
  };

  /// Keep `c` live in every zone, in a fixed leading slot (its global
  /// slot under the identity layout). Returns that slot.
  uint32_t keepLive(ta::ClockId c) {
    if (!opts_.activeClockReduction) return static_cast<uint32_t>(c);
    const auto it = std::find(protected_.begin(), protected_.end(),
                              static_cast<uint32_t>(c));
    if (it == protected_.end()) {
      protected_.push_back(static_cast<uint32_t>(c));
      protectedMask_[static_cast<size_t>(c) / 64] |=
          uint64_t{1} << (static_cast<size_t>(c) % 64);
      return static_cast<uint32_t>(protected_.size());
    }
    return static_cast<uint32_t>(it - protected_.begin()) + 1;
  }

  /// Delay + re-apply invariants + extrapolate, over `layout`, counting
  /// into `tally`. Returns false if the state's zone is empty.
  bool normalize(SymbolicState& s, const ClockLayout& layout,
                 Tally& tally) const;

  /// Add `tally` to the shared counters and clear it.
  void flush(Tally& tally) const;

  /// Attempt one discrete transition; appends to `out` on success.
  /// `sc.src` holds the layout of (d, zone).
  void tryFire(const DiscreteState& d, const dbm::Dbm& zone,
               const std::vector<TransitionPart>& parts, Scratch& sc,
               std::vector<Successor>& out) const;

  /// Combine the per-automaton LU rows of the current location vector
  /// (pointwise max over processes, seeded with the goal-protected
  /// base bounds) into per-slot arrays over `layout`.
  void collectLU(const DiscreteState& d, const ClockLayout& layout,
                 std::span<dbm::value_t> lower,
                 std::span<dbm::value_t> upper) const;

  const ta::System& sys_;
  const Options& opts_;
  /// Clocks live in every zone, in slot order from slot 1: the goal's
  /// clocks, then best-first's cost clock; and the same set as a bitset.
  std::vector<uint32_t> protected_;
  std::vector<uint64_t> protectedMask_;
  /// The active clocks of every location as bitsets of maskWords_
  /// words: automaton p's location l starts at
  /// activeMasks_[(maskBase_[p] + l) * maskWords_].
  size_t maskWords_ = 0;
  std::vector<size_t> maskBase_;
  std::vector<uint64_t> activeMasks_;
  std::vector<dbm::value_t> maxBounds_;
  /// Static per-location LU tables (kLocationLUPlus only).
  ta::LUTable lu_;
  /// Location-independent floor of the combined bounds: -1 everywhere
  /// until observeGoalConstraints folds in the goal's constants.
  std::vector<dbm::value_t> baseLower_;
  std::vector<dbm::value_t> baseUpper_;
  /// Abstraction observability counters (Stats.extrapolationCoarsenings
  /// / Stats.inactiveClocksFreed). Mutable relaxed atomics: successors()
  /// is const and runs concurrently on the parallel engines. On a cache
  /// line of their own, so their writes do not evict the fields above.
  alignas(64) mutable std::atomic<size_t> coarsenings_{0};
  mutable std::atomic<size_t> clocksFreed_{0};
};

}  // namespace engine
