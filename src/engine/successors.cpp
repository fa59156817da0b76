#include "engine/successors.hpp"

#include <algorithm>
#include <cassert>

#include "dbm/pool.hpp"

namespace engine {

bool conjoinInvariants(const ta::System& sys,
                       const std::vector<ta::LocId>& locs, dbm::Dbm& z) {
  for (size_t p = 0; p < locs.size(); ++p) {
    const ta::Location& l =
        sys.automaton(static_cast<ta::ProcId>(p)).location(locs[p]);
    for (const ta::ClockConstraint& cc : l.invariant) {
      if (!z.constrain(static_cast<uint32_t>(cc.i),
                       static_cast<uint32_t>(cc.j), cc.bound)) {
        return false;
      }
    }
  }
  return true;
}

namespace {

bool anyCommitted(const ta::System& sys, const DiscreteState& d) {
  for (size_t p = 0; p < d.locs.size(); ++p) {
    if (sys.automaton(static_cast<ta::ProcId>(p)).location(d.locs[p]).committed)
      return true;
  }
  return false;
}

}  // namespace

SuccessorGenerator::SuccessorGenerator(const ta::System& sys,
                                       const Options& opts)
    : sys_(sys),
      opts_(opts),
      protected_(sys.dbmDimension(), false),
      maxBounds_(sys.maxBounds()),
      baseLower_(sys.dbmDimension(), -1),
      baseUpper_(sys.dbmDimension(), -1) {
  assert(sys.finalized() && "System::finalize() must run before the engine");
  baseLower_[0] = 0;
  baseUpper_[0] = 0;
  if (opts_.extrapolation == Extrapolation::kLocationLUPlus) {
    lu_ = ta::analyzeClockBounds(sys);
  }
}

void SuccessorGenerator::collectLU(const DiscreteState& d,
                                   std::vector<dbm::value_t>& lower,
                                   std::vector<dbm::value_t>& upper) const {
  lower.assign(baseLower_.begin(), baseLower_.end());
  upper.assign(baseUpper_.begin(), baseUpper_.end());
  for (size_t p = 0; p < d.locs.size(); ++p) {
    for (const ta::ClockLU& e :
         lu_.at(static_cast<ta::ProcId>(p), d.locs[p])) {
      auto& l = lower[static_cast<size_t>(e.clock)];
      l = std::max(l, e.lower);
      auto& u = upper[static_cast<size_t>(e.clock)];
      u = std::max(u, e.upper);
    }
  }
}

bool SuccessorGenerator::normalize(SymbolicState& s) const {
  if (s.zone.isEmpty()) return false;
  if (!delayForbidden(sys_, s.d.locs)) {
    s.zone.up();
    if (!conjoinInvariants(sys_, s.d.locs, s.zone)) return false;
  }
  if (opts_.activeClockReduction) {
    // A clock inactive in every process's current location is reset
    // before it is next tested, so its value is irrelevant: free it to
    // merge states that differ only in dead clock values.
    // (Thread-local scratch: normalize runs once per generated state.)
    thread_local std::vector<char> dead;
    dead.assign(sys_.dbmDimension(), 1);
    dead[0] = 0;
    for (size_t p = 0; p < s.d.locs.size(); ++p) {
      const ta::Automaton& a = sys_.automaton(static_cast<ta::ProcId>(p));
      for (ta::ClockId c : a.activeClocks(s.d.locs[p])) {
        dead[static_cast<size_t>(c)] = 0;
      }
    }
    size_t freed = 0;
    for (uint32_t c = 1; c < sys_.dbmDimension(); ++c) {
      if (protected_[c]) dead[c] = 0;
      freed += static_cast<size_t>(dead[c]);
    }
    if (freed != 0) {
      s.zone.freeClocks(dead);
      clocksFreed_.fetch_add(freed, std::memory_order_relaxed);
    }
  }
  switch (opts_.extrapolation) {
    case Extrapolation::kNone:
      break;
    case Extrapolation::kGlobalM:
      if (s.zone.extrapolateMaxBounds(maxBounds_)) {
        coarsenings_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    case Extrapolation::kLocationLUPlus: {
      thread_local std::vector<dbm::value_t> lower, upper;
      collectLU(s.d, lower, upper);
      if (s.zone.extrapolateLUBounds(lower, upper)) {
        coarsenings_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }
  }
  return !s.zone.isEmpty();
}

SymbolicState SuccessorGenerator::initial() const {
  const uint32_t dim = sys_.dbmDimension();
  SymbolicState s{DiscreteState{}, dbm::Dbm::zero(dim)};
  if (sys_.hasNonzeroClockInit()) {
    // Lifted mid-run start (System::setClockInit): the point valuation
    // with each clock at its configured value instead of the origin.
    s.zone = dbm::Dbm::unconstrained(dim);
    for (uint32_t c = 1; c < dim; ++c) {
      const dbm::value_t v = sys_.initialClock(static_cast<ta::ClockId>(c));
      s.zone.constrainUpper(c, v, /*strict=*/false);
      s.zone.constrainLower(c, v, /*strict=*/false);
    }
  }
  s.d.locs.reserve(sys_.numAutomata());
  for (size_t p = 0; p < sys_.numAutomata(); ++p) {
    s.d.locs.push_back(sys_.automaton(static_cast<ta::ProcId>(p)).initial());
  }
  s.d.vars = sys_.initialVars();
  const bool ok = conjoinInvariants(sys_, s.d.locs, s.zone) && normalize(s);
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
                                 std::vector<Successor>& out) const {
  // 1. Integer guards — all evaluated against the pre-state valuation.
  for (const TransitionPart& part : parts) {
    const ta::Edge& e =
        sys_.automaton(part.proc).edges()[static_cast<size_t>(part.edge)];
    if (!sys_.pool().evalBool(e.guard, d.vars)) return;
  }

  // The candidate zone comes from (and, on rejection, returns to) the
  // thread-local pool: most attempts die on a guard or invariant, and
  // this is the allocation hot path of the whole search.
  SymbolicState next{d, dbm::ZonePool::copyOf(zone)};
  const auto reject = [&next] {
    dbm::ZonePool::recycle(std::move(next.zone));
  };

  // 2. Clock guards.
  for (const TransitionPart& part : parts) {
    const ta::Edge& e =
        sys_.automaton(part.proc).edges()[static_cast<size_t>(part.edge)];
    for (const ta::ClockConstraint& cc : e.clockGuard) {
      if (!next.zone.constrain(static_cast<uint32_t>(cc.i),
                               static_cast<uint32_t>(cc.j), cc.bound)) {
        reject();
        return;
      }
    }
  }

  // 3. Assignments (sender first, sequential semantics) and resets.
  for (const TransitionPart& part : parts) {
    const ta::Edge& e =
        sys_.automaton(part.proc).edges()[static_cast<size_t>(part.edge)];
    for (const ta::Assign& as : e.assigns) {
      const int64_t rhs = sys_.pool().eval(as.rhs, next.d.vars);
      int64_t idx = 0;
      if (as.index != ta::kNoExpr) {
        idx = sys_.pool().eval(as.index, next.d.vars);
        if (idx < 0 || idx >= as.arraySize) {
          assert(false && "assignment index out of bounds");
          reject();
          return;
        }
      }
      next.d.vars[static_cast<size_t>(as.base + idx)] =
          static_cast<int32_t>(rhs);
    }
    for (const ta::ClockReset& r : e.resets) {
      next.zone.reset(static_cast<uint32_t>(r.clock), r.value);
    }
    next.d.locs[static_cast<size_t>(part.proc)] = e.dst;
  }

  // 4. Target invariants, then delay/reduce/extrapolate.
  if (!conjoinInvariants(sys_, next.d.locs, next.zone) || !normalize(next)) {
    reject();
    return;
  }

  out.push_back(Successor{std::move(next), Transition{parts}});
}

std::vector<Successor> SuccessorGenerator::successors(
    const DiscreteState& d, const dbm::Dbm& zone) const {
  std::vector<Successor> out;
  const bool committedPhase = anyCommitted(sys_, d);
  const auto locCommitted = [&](ta::ProcId p) {
    return sys_.automaton(p).location(d.locs[static_cast<size_t>(p)])
        .committed;
  };

  const auto numProcs = static_cast<ta::ProcId>(sys_.numAutomata());
  for (ta::ProcId p = 0; p < numProcs; ++p) {
    const ta::Automaton& a = sys_.automaton(p);
    for (int32_t ei : a.outgoing(d.locs[static_cast<size_t>(p)])) {
      const ta::Edge& e = a.edges()[static_cast<size_t>(ei)];
      switch (e.sync) {
        case ta::Sync::kNone: {
          if (committedPhase && !locCommitted(p)) break;
          tryFire(d, zone, {{p, ei}}, out);
          break;
        }
        case ta::Sync::kSend: {
          if (sys_.channelKind(e.chan) == ta::ChanKind::kBinary) {
            for (const auto& [q, ej] : sys_.receivers(e.chan)) {
              if (q == p) continue;
              const ta::Edge& r =
                  sys_.automaton(q).edges()[static_cast<size_t>(ej)];
              if (r.src != d.locs[static_cast<size_t>(q)]) continue;
              if (committedPhase && !locCommitted(p) && !locCommitted(q))
                continue;
              tryFire(d, zone, {{p, ei}, {q, ej}}, out);
            }
          } else {
            // Broadcast: the sender fires unconditionally (given its own
            // guards); every other process with an enabled receive edge
            // joins (first enabled edge per process). Clock guards on
            // broadcast receivers are not supported (as in UPPAAL).
            std::vector<TransitionPart> parts{{p, ei}};
            bool receiversCommitted = false;
            for (ta::ProcId q = 0; q < numProcs; ++q) {
              if (q == p) continue;
              const ta::Automaton& b = sys_.automaton(q);
              for (int32_t ej : b.outgoing(d.locs[static_cast<size_t>(q)])) {
                const ta::Edge& r = b.edges()[static_cast<size_t>(ej)];
                if (r.sync != ta::Sync::kReceive || r.chan != e.chan) continue;
                assert(r.clockGuard.empty() &&
                       "clock guards on broadcast receivers are unsupported");
                if (!sys_.pool().evalBool(r.guard, d.vars)) continue;
                parts.push_back({q, ej});
                receiversCommitted = receiversCommitted || locCommitted(q);
                break;
              }
            }
            if (committedPhase && !locCommitted(p) && !receiversCommitted)
              break;
            tryFire(d, zone, parts, out);
          }
          break;
        }
        case ta::Sync::kReceive:
          break;  // handled from the sender's side
      }
    }
  }
  return out;
}

std::string SuccessorGenerator::label(const Transition& t) const {
  if (t.parts.empty()) return "(initial)";
  std::string out;
  for (size_t k = 0; k < t.parts.size(); ++k) {
    const TransitionPart& part = t.parts[k];
    const ta::Automaton& a = sys_.automaton(part.proc);
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
