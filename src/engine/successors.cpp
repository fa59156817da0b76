#include "engine/successors.hpp"

#include <algorithm>
#include <cassert>

#include "dbm/pool.hpp"

namespace engine {

bool conjoinInvariants(const ta::System& sys, const ClockLayout& layout,
                       const std::vector<ta::LocId>& locs, dbm::Dbm& z) {
  for (size_t p = 0; p < locs.size(); ++p) {
    const ta::Location& l =
        sys.automaton(static_cast<ta::ProcId>(p)).location(locs[p]);
    for (const ta::ClockConstraint& cc : l.invariant) {
      if (!z.constrain(layout.index(cc.i), layout.index(cc.j), cc.bound)) {
        return false;
      }
    }
  }
  return true;
}

namespace {

/// Does some edge of the transition reset global clock `c`?
[[maybe_unused]] bool resetsClock(const ta::System& sys,
                                  const std::vector<TransitionPart>& parts,
                                  uint32_t c) {
  for (const TransitionPart& part : parts) {
    const ta::Edge& e =
        sys.automaton(part.proc).edges()[static_cast<size_t>(part.edge)];
    for (const ta::ClockReset& r : e.resets) {
      if (static_cast<uint32_t>(r.clock) == c) return true;
    }
  }
  return false;
}

}  // namespace

SuccessorGenerator::SuccessorGenerator(const ta::System& sys,
                                       const Options& opts)
    : sys_(sys),
      opts_(opts),
      maxBounds_(sys.maxBounds()),
      baseLower_(sys.dbmDimension(), -1),
      baseUpper_(sys.dbmDimension(), -1) {
  assert(sys.finalized() && "System::finalize() must run before the engine");
  baseLower_[0] = 0;
  baseUpper_[0] = 0;
  maskWords_ = (sys.dbmDimension() + 63) / 64;
  protectedMask_.assign(maskWords_, 0);
  size_t rows = 0;
  for (size_t p = 0; p < sys.numAutomata(); ++p) {
    maskBase_.push_back(rows);
    rows += sys.automaton(static_cast<ta::ProcId>(p)).numLocations();
  }
  activeMasks_.assign(rows * maskWords_, 0);
  for (size_t p = 0; p < sys.numAutomata(); ++p) {
    const ta::Automaton& a = sys.automaton(static_cast<ta::ProcId>(p));
    for (size_t l = 0; l < a.numLocations(); ++l) {
      uint64_t* row = &activeMasks_[(maskBase_[p] + l) * maskWords_];
      for (const ta::ClockId c : a.activeClocks(static_cast<ta::LocId>(l))) {
        row[static_cast<size_t>(c) / 64] |= uint64_t{1}
                                            << (static_cast<size_t>(c) % 64);
      }
    }
  }
  if (opts_.extrapolation == Extrapolation::kLocationLUPlus) {
    lu_ = ta::analyzeClockBounds(sys);
  }
}

void SuccessorGenerator::layoutOf(const DiscreteState& d,
                                  ClockLayout& out) const {
  const uint32_t dim = sys_.dbmDimension();
  out.reset(dim);
  if (!opts_.activeClockReduction) {
    for (uint32_t c = 1; c < dim; ++c) out.add(c);
    return;
  }
  for (const uint32_t c : protected_) out.add(c);
  // The union of the current locations' active sets, as a bitset, so
  // the other live clocks come out in global order.
  thread_local std::vector<uint64_t> live;
  live.assign(maskWords_, 0);
  for (size_t p = 0; p < d.locs.size(); ++p) {
    const uint64_t* row =
        &activeMasks_[(maskBase_[p] + static_cast<size_t>(d.locs[p])) *
                      maskWords_];
    for (size_t w = 0; w < maskWords_; ++w) live[w] |= row[w];
  }
  for (size_t w = 0; w < maskWords_; ++w) {
    for (uint64_t bits = live[w] & ~protectedMask_[w]; bits != 0;
         bits &= bits - 1) {
      out.add(static_cast<uint32_t>(w * 64) +
              static_cast<uint32_t>(__builtin_ctzll(bits)));
    }
  }
}

size_t SuccessorGenerator::fullWidthHash(const SymbolicState& s) const {
  thread_local ClockLayout layout;
  layoutOf(s.d, layout);
  return s.zone.hashExpanded(layout.slotMap(sys_.dbmDimension()));
}

void SuccessorGenerator::collectLU(const DiscreteState& d,
                                   const ClockLayout& layout,
                                   std::span<dbm::value_t> lower,
                                   std::span<dbm::value_t> upper) const {
  const uint32_t n = layout.dimension();
  for (uint32_t k = 0; k < n; ++k) {
    lower[k] = baseLower_[layout.clock(k)];
    upper[k] = baseUpper_[layout.clock(k)];
  }
  for (size_t p = 0; p < d.locs.size(); ++p) {
    for (const ta::ClockLU& e :
         lu_.at(static_cast<ta::ProcId>(p), d.locs[p])) {
      const int32_t k = layout.slot(e.clock);
      if (k < 0) continue;
      auto& l = lower[static_cast<size_t>(k)];
      l = std::max(l, e.lower);
      auto& u = upper[static_cast<size_t>(k)];
      u = std::max(u, e.upper);
    }
  }
}

void SuccessorGenerator::flush(Tally& tally) const {
  if (tally.coarsenings != 0) {
    coarsenings_.fetch_add(tally.coarsenings, std::memory_order_relaxed);
  }
  if (tally.clocksFreed != 0) {
    clocksFreed_.fetch_add(tally.clocksFreed, std::memory_order_relaxed);
  }
  tally = Tally{};
}

bool SuccessorGenerator::normalize(SymbolicState& s,
                                   const ClockLayout& layout,
                                   Tally& tally) const {
  if (s.zone.isEmpty()) return false;
  if (!delayForbidden(sys_, s.d.locs)) {
    s.zone.up();
    if (!conjoinInvariants(sys_, layout, s.d.locs, s.zone)) return false;
  }
  if (opts_.activeClockReduction) {
    // Stats::inactiveClocksFreed counts the clocks the layout leaves out.
    tally.clocksFreed += sys_.dbmDimension() - layout.dimension();
  }
  // Per-slot bounds, in thread-local buffers that only ever grow (the
  // dimension changes from state to state).
  const uint32_t n = layout.dimension();
  thread_local std::vector<dbm::value_t> bufA, bufB;
  if (bufA.size() < n) {
    bufA.resize(n);
    bufB.resize(n);
  }
  const std::span<dbm::value_t> a(bufA.data(), n);
  const std::span<dbm::value_t> b(bufB.data(), n);
  switch (opts_.extrapolation) {
    case Extrapolation::kNone:
      break;
    case Extrapolation::kGlobalM: {
      for (uint32_t k = 0; k < n; ++k) a[k] = maxBounds_[layout.clock(k)];
      if (s.zone.extrapolateMaxBounds(a)) {
        ++tally.coarsenings;
      }
      break;
    }
    case Extrapolation::kLocationLUPlus: {
      collectLU(s.d, layout, a, b);
      if (s.zone.extrapolateLUBounds(a, b)) {
        ++tally.coarsenings;
      }
      break;
    }
  }
  return !s.zone.isEmpty();
}

SymbolicState SuccessorGenerator::initial() const {
  SymbolicState s{DiscreteState{}, dbm::Dbm(1)};
  s.d.locs.reserve(sys_.numAutomata());
  for (size_t p = 0; p < sys_.numAutomata(); ++p) {
    s.d.locs.push_back(sys_.automaton(static_cast<ta::ProcId>(p)).initial());
  }
  s.d.vars = sys_.initialVars();
  ClockLayout layout;
  layoutOf(s.d, layout);
  const uint32_t n = layout.dimension();
  s.zone = dbm::Dbm::zero(n);
  if (sys_.hasNonzeroClockInit()) {
    // Lifted mid-run start (System::setClockInit): the point valuation
    // with each clock at its configured value instead of the origin.
    s.zone = dbm::Dbm::unconstrained(n);
    for (uint32_t k = 1; k < n; ++k) {
      const dbm::value_t v =
          sys_.initialClock(static_cast<ta::ClockId>(layout.clock(k)));
      s.zone.constrainUpper(k, v, /*strict=*/false);
      s.zone.constrainLower(k, v, /*strict=*/false);
    }
  }
  Tally tally;
  const bool ok = conjoinInvariants(sys_, layout, s.d.locs, s.zone) &&
                  normalize(s, layout, tally);
  flush(tally);
  // A zero-origin start always satisfies the invariants (models are
  // built that way); a lifted one may not — the caller sees the empty
  // zone and reports the goal unreachable.
  assert((ok || sys_.hasNonzeroClockInit()) &&
         "initial state violates invariants");
  if (!ok) s.zone.setEmpty();
  return s;
}

void SuccessorGenerator::tryFire(const DiscreteState& d,
                                 const dbm::Dbm& zone,
                                 const std::vector<TransitionPart>& parts,
                                 Scratch& sc,
                                 std::vector<Successor>& out) const {
  const auto edgeOf = [&](const TransitionPart& part) -> const ta::Edge& {
    return sys_.automaton(part.proc).edges()[static_cast<size_t>(part.edge)];
  };

  // 1. Integer guards — all evaluated against the pre-state valuation.
  // A guard that fails to evaluate is false.
  for (const TransitionPart& part : parts) {
    if (!sys_.pool().evalBool(edgeOf(part).guard, d.vars)) return;
  }

  // The candidate zone comes from (and, on rejection, returns to) the
  // thread-local pool: most attempts die on a guard or invariant, and
  // this is the allocation hot path of the whole search.
  SymbolicState next{d, dbm::ZonePool::copyOf(zone)};
  const auto reject = [&next] {
    dbm::ZonePool::recycle(std::move(next.zone));
  };

  // 2. Clock guards, on the source layout: a guard only reads clocks
  // active at its source location.
  for (const TransitionPart& part : parts) {
    for (const ta::ClockConstraint& cc : edgeOf(part).clockGuard) {
      if (!next.zone.constrain(sc.src.index(cc.i), sc.src.index(cc.j),
                               cc.bound)) {
        reject();
        return;
      }
    }
  }

  // 3. Assignments (sender first, sequential semantics) and moves.
  for (const TransitionPart& part : parts) {
    const ta::Edge& e = edgeOf(part);
    for (const ta::Assign& as : e.assigns) {
      bool ok = true;
      const int64_t rhs = sys_.pool().eval(as.rhs, next.d.vars, &ok);
      int64_t idx = 0;
      if (as.index != ta::kNoExpr) {
        idx = sys_.pool().eval(as.index, next.d.vars, &ok);
      }
      if (!ok || idx < 0 || idx >= as.arraySize) {
        // A failing evaluation or an out-of-range write disables the
        // transition, as a failed guard evaluation does.
        reject();
        return;
      }
      next.d.vars[static_cast<size_t>(as.base + idx)] =
          static_cast<int32_t>(rhs);
    }
    next.d.locs[static_cast<size_t>(part.proc)] = e.dst;
  }

  // 4. Project onto the target's live clocks. Activity is a backward
  // fixpoint, so a clock live at the target but not at the source is
  // reset by this transition: it enters fresh and the reset below
  // gives it its value before anything reads it.
  layoutOf(next.d, sc.dst);
  if (!(sc.dst == sc.src)) {
    const uint32_t n = sc.dst.dimension();
    if (sc.from.size() < n) sc.from.resize(n);
    for (uint32_t k = 0; k < n; ++k) {
      sc.from[k] = sc.src.slot(static_cast<ta::ClockId>(sc.dst.clock(k)));
      assert((sc.from[k] >= 0 || resetsClock(sys_, parts, sc.dst.clock(k))) &&
             "a clock became live without being reset");
    }
    next.zone.remap({sc.from.data(), n});
  }

  // 5. Resets of the clocks the target keeps (the value of a dropped
  // clock cannot matter).
  for (const TransitionPart& part : parts) {
    for (const ta::ClockReset& r : edgeOf(part).resets) {
      if (const int32_t k = sc.dst.slot(r.clock); k >= 0) {
        next.zone.reset(static_cast<uint32_t>(k), r.value);
      }
    }
  }

  // 6. Target invariants, then delay and extrapolate.
  if (!conjoinInvariants(sys_, sc.dst, next.d.locs, next.zone) ||
      !normalize(next, sc.dst, sc.tally)) {
    reject();
    return;
  }

  out.push_back(Successor{std::move(next), Transition{parts}});
}

std::vector<Successor> SuccessorGenerator::successors(
    const DiscreteState& d, const dbm::Dbm& zone) const {
  std::vector<Successor> out;
  // Per-thread: successors() runs concurrently on the parallel engines.
  thread_local Scratch sc;
  layoutOf(d, sc.src);
  assert(zone.dimension() == sc.src.dimension());
  std::vector<TransitionPart> parts;
  forEachTransition(sys_, d.locs, d.vars, parts,
                    [&](const std::vector<TransitionPart>& t) {
                      tryFire(d, zone, t, sc, out);
                    });
  flush(sc.tally);
  return out;
}

std::string label(const ta::System& sys, const Transition& t) {
  if (t.parts.empty()) return "(initial)";
  std::string out;
  for (size_t k = 0; k < t.parts.size(); ++k) {
    const TransitionPart& part = t.parts[k];
    const ta::Automaton& a = sys.automaton(part.proc);
    const ta::Edge& e = a.edges()[static_cast<size_t>(part.edge)];
    if (k > 0) out += "/";
    if (e.label.empty()) {
      out += a.name() + "." + a.location(e.src).name + "->" +
             a.location(e.dst).name;
    } else if (e.label.find('.') != std::string::npos) {
      out += e.label;  // already fully qualified ("Unit.Command")
    } else {
      out += a.name() + "." + e.label;
    }
  }
  return out;
}

}  // namespace engine
