#include "engine/trace.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "engine/successors.hpp"

namespace engine {

namespace {

constexpr int64_t kUnbounded = std::numeric_limits<int64_t>::max() / 4;

struct Replay {
  const ta::System& sys;
  std::vector<ta::LocId> locs;
  std::vector<int32_t> vars;
  std::vector<int64_t> clocks;
  int64_t now = 0;
  std::string error;

  explicit Replay(const ta::System& s)
      : sys(s), vars(s.initialVars()), clocks(s.dbmDimension(), 0) {
    for (uint32_t c = 1; c < s.dbmDimension(); ++c) {
      clocks[c] = s.initialClock(static_cast<ta::ClockId>(c));
    }
    locs.reserve(s.numAutomata());
    for (size_t p = 0; p < s.numAutomata(); ++p) {
      locs.push_back(s.automaton(static_cast<ta::ProcId>(p)).initial());
    }
  }

  [[nodiscard]] bool fail(std::string msg) {
    error = std::move(msg);
    return false;
  }

  /// Fold one constraint into the [lo, hi] delay window; returns false
  /// if a delay-invariant (difference) constraint is already violated.
  [[nodiscard]] bool foldConstraint(const ta::ClockConstraint& cc, int64_t& lo,
                                    int64_t& hi) {
    const int64_t val = dbm::boundValue(cc.bound);
    const bool strict = dbm::isStrict(cc.bound);
    if (cc.i != 0 && cc.j != 0) {
      const int64_t diff = clocks[static_cast<size_t>(cc.i)] -
                           clocks[static_cast<size_t>(cc.j)];
      if (strict ? diff >= val : diff > val) {
        return fail("difference constraint " + sys.ccToString(cc) +
                    " violated at t=" + std::to_string(now));
      }
      return true;
    }
    if (cc.j == 0) {  // upper bound: x_i + d <= / < val
      hi = std::min(hi, val - clocks[static_cast<size_t>(cc.i)] -
                            (strict ? 1 : 0));
    } else {  // lower bound encoded 0 - x_j <= val, i.e. x_j + d >= -val
      lo = std::max(lo, -val - clocks[static_cast<size_t>(cc.j)] +
                            (strict ? 1 : 0));
    }
    return true;
  }

  [[nodiscard]] bool delayWindowFromInvariants(int64_t& lo, int64_t& hi) {
    for (size_t p = 0; p < locs.size(); ++p) {
      const ta::Location& l =
          sys.automaton(static_cast<ta::ProcId>(p)).location(locs[p]);
      if (l.urgent || l.committed) hi = std::min<int64_t>(hi, 0);
      for (const ta::ClockConstraint& cc : l.invariant) {
        if (!foldConstraint(cc, lo, hi)) return false;
      }
    }
    return true;
  }

  [[nodiscard]] bool checkInvariantsNow() {
    for (size_t p = 0; p < locs.size(); ++p) {
      const ta::Location& l =
          sys.automaton(static_cast<ta::ProcId>(p)).location(locs[p]);
      for (const ta::ClockConstraint& cc : l.invariant) {
        if (cc.i != 0 && cc.j != 0) continue;  // checked in foldConstraint
        const int64_t val = dbm::boundValue(cc.bound);
        const bool strict = dbm::isStrict(cc.bound);
        const int64_t lhs = cc.j == 0 ? clocks[static_cast<size_t>(cc.i)]
                                      : -clocks[static_cast<size_t>(cc.j)];
        if (strict ? lhs >= val : lhs > val) {
          return fail("invariant " + sys.ccToString(cc) +
                      " violated entering " + l.name + " at t=" +
                      std::to_string(now));
        }
      }
    }
    return true;
  }

  /// Fire `via` after `delay` time units (delay < 0 means: choose the
  /// minimal feasible delay and report it through *chosen).
  [[nodiscard]] bool step(const Transition& via, int64_t delay,
                          int64_t* chosen) {
    int64_t lo = 0;
    int64_t hi = kUnbounded;
    if (!delayWindowFromInvariants(lo, hi)) return false;
    for (const TransitionPart& part : via.parts) {
      const ta::Edge& e =
          sys.automaton(part.proc).edges()[static_cast<size_t>(part.edge)];
      for (const ta::ClockConstraint& cc : e.clockGuard) {
        if (!foldConstraint(cc, lo, hi)) return false;
      }
    }
    const int64_t d = delay >= 0 ? delay : std::max<int64_t>(lo, 0);
    if (d < lo || d > hi) {
      return fail("no feasible delay at t=" + std::to_string(now) +
                  " (window [" + std::to_string(lo) + ", " +
                  (hi >= kUnbounded ? "inf" : std::to_string(hi)) +
                  "], requested " + std::to_string(d) + ")");
    }
    for (size_t c = 1; c < clocks.size(); ++c) clocks[c] += d;
    now += d;
    if (chosen != nullptr) *chosen = d;

    // Integer guards against the pre-assignment valuation (a guard that
    // fails to evaluate is false).
    for (const TransitionPart& part : via.parts) {
      const ta::Edge& e =
          sys.automaton(part.proc).edges()[static_cast<size_t>(part.edge)];
      if (!sys.pool().evalBool(e.guard, vars)) {
        return fail("integer guard of edge '" + e.label +
                    "' false at t=" + std::to_string(now));
      }
    }
    // Effects: assignments (sender first), clock resets, moves.
    for (const TransitionPart& part : via.parts) {
      const ta::Edge& e =
          sys.automaton(part.proc).edges()[static_cast<size_t>(part.edge)];
      for (const ta::Assign& as : e.assigns) {
        bool ok = true;
        const int64_t rhs = sys.pool().eval(as.rhs, vars, &ok);
        int64_t idx = 0;
        if (as.index != ta::kNoExpr) idx = sys.pool().eval(as.index, vars, &ok);
        if (!ok) {
          return fail("assignment of edge '" + e.label +
                      "' fails to evaluate at t=" + std::to_string(now));
        }
        if (idx < 0 || idx >= as.arraySize) {
          return fail("assignment index out of bounds on edge '" + e.label +
                      "'");
        }
        vars[static_cast<size_t>(as.base + idx)] = static_cast<int32_t>(rhs);
      }
      for (const ta::ClockReset& r : e.resets) {
        clocks[static_cast<size_t>(r.clock)] = r.value;
      }
      locs[static_cast<size_t>(part.proc)] = e.dst;
    }
    return checkInvariantsNow();
  }

  /// Broadcast receivers cannot decline: every process outside
  /// `via.parts` must have no enabled receive edge on `chan` from its
  /// current location.  (Evaluated against the pre-transition valuation,
  /// like the engine does; broadcast receivers carry no clock guards.)
  [[nodiscard]] bool checkBroadcastReceiversComplete(const Transition& via,
                                                     ta::ChanId chan) {
    for (size_t p = 0; p < locs.size(); ++p) {
      const auto proc = static_cast<ta::ProcId>(p);
      bool participating = false;
      for (const TransitionPart& part : via.parts) {
        if (part.proc == proc) {
          participating = true;
          break;
        }
      }
      if (participating) continue;
      const ta::Automaton& a = sys.automaton(proc);
      for (int32_t ej : a.outgoing(locs[p])) {
        const ta::Edge& r = a.edges()[static_cast<size_t>(ej)];
        if (r.sync != ta::Sync::kReceive || r.chan != chan) continue;
        if (sys.pool().evalBool(r.guard, vars)) {
          return fail("broadcast omits enabled receiver '" + r.label + "'");
        }
      }
    }
    return true;
  }

  /// Check synchronization well-formedness of a transition.
  [[nodiscard]] bool checkSyncShape(const Transition& via) {
    if (via.parts.empty()) return fail("empty transition");
    const ta::Edge& first =
        sys.automaton(via.parts[0].proc)
            .edges()[static_cast<size_t>(via.parts[0].edge)];
    const bool broadcast =
        first.sync == ta::Sync::kSend &&
        sys.channelKind(first.chan) == ta::ChanKind::kBroadcast;
    if (via.parts.size() == 1) {
      // A broadcast send may fire alone — but only when no receiver
      // was enabled.
      if (broadcast) return checkBroadcastReceiversComplete(via, first.chan);
      if (first.sync != ta::Sync::kNone) {
        return fail("lone synchronizing edge '" + first.label + "'");
      }
      return true;
    }
    if (first.sync != ta::Sync::kSend) {
      return fail("multi-part transition must lead with a send");
    }
    for (size_t k = 1; k < via.parts.size(); ++k) {
      const ta::Edge& e = sys.automaton(via.parts[k].proc)
                              .edges()[static_cast<size_t>(via.parts[k].edge)];
      if (e.sync != ta::Sync::kReceive || e.chan != first.chan) {
        return fail("mismatched synchronization on '" + e.label + "'");
      }
      if (via.parts[k].proc == via.parts[0].proc) {
        return fail("process synchronizing with itself");
      }
    }
    if (sys.channelKind(first.chan) == ta::ChanKind::kBinary &&
        via.parts.size() != 2) {
      return fail("binary channel with " + std::to_string(via.parts.size()) +
                  " participants");
    }
    if (broadcast) return checkBroadcastReceiversComplete(via, first.chan);
    return true;
  }
};

}  // namespace

namespace {

/// Smallest integer x_i allowed by `b`, a bound on 0 - x_i.
int64_t smallestAbove(dbm::raw_t b) {
  return -dbm::boundValue(b) + (dbm::isStrict(b) ? 1 : 0);
}

/// Integer value of a zone's lower bound on clock i (smallest integer
/// the clock may take).
int64_t lowerInt(const dbm::Dbm& z, uint32_t i) {
  return smallestAbove(z.at(0, i));  // 0 - x_i <= v  ->  x_i >= -v
}

/// Integer value of a zone's upper bound on clock i, or nullopt if
/// unbounded.
std::optional<int64_t> upperInt(const dbm::Dbm& z, uint32_t i) {
  const dbm::raw_t b = z.at(i, 0);
  if (b == dbm::kInfinity) return std::nullopt;
  return dbm::boundValue(b) - (dbm::isStrict(b) ? 1 : 0);
}

enum class Completion { kOk, kFixedOutside, kNoIntegerPoint };

/// Complete `point` to an integer valuation inside the canonical,
/// non-empty zone `z`. Clocks with fixed[i] keep point[i], checked in
/// index order; then every other clock, in index order, takes the
/// smallest integer its bounds allow. All plant-model bounds are weak
/// and integral, so completion succeeds there; a failure is reported,
/// never silently mis-timed.
///
/// Each clock costs O(n), with no re-closure: a canonical DBM is
/// decomposable, so a valuation of some clocks that meets the
/// constraints among them (and x_0 = 0) extends to a point of the zone.
/// Hence the bounds of the next clock given the clocks already chosen —
/// the tightest of d_0i and v_j + d_ji below, of d_i0 and v_j + d_ij
/// above — are exactly the bounds the zone would have after pinning
/// those clocks and re-closing it.
Completion completePoint(const dbm::Dbm& z, const std::vector<bool>& fixed,
                         std::vector<int64_t>& point) {
  const uint32_t dim = z.dimension();
  std::vector<uint32_t> chosen;
  chosen.reserve(dim);
  dbm::raw_t lower = 0;  // bound on 0 - x_i
  dbm::raw_t upper = 0;  // bound on x_i - 0
  const auto boundsOf = [&](uint32_t i) {
    lower = z.at(0, i);
    upper = z.at(i, 0);
    for (const uint32_t j : chosen) {
      const auto vj = static_cast<dbm::value_t>(point[j]);
      lower = std::min(lower, dbm::boundAdd(dbm::boundWeak(-vj), z.at(j, i)));
      upper = std::min(upper, dbm::boundAdd(z.at(i, j), dbm::boundWeak(vj)));
    }
  };
  const auto admits = [&](int64_t v) {
    const auto vi = static_cast<dbm::value_t>(v);
    return dbm::boundAdd(lower, dbm::boundWeak(vi)) >= dbm::kZeroBound &&
           dbm::boundAdd(upper, dbm::boundWeak(-vi)) >= dbm::kZeroBound;
  };
  for (uint32_t i = 1; i < dim; ++i) {
    if (!fixed[i]) continue;
    boundsOf(i);
    if (!admits(point[i])) return Completion::kFixedOutside;
    chosen.push_back(i);
  }
  for (uint32_t i = 1; i < dim; ++i) {
    if (fixed[i]) continue;
    boundsOf(i);
    point[i] = smallestAbove(lower);
    if (!admits(point[i])) return Completion::kNoIntegerPoint;
    chosen.push_back(i);
  }
  return Completion::kOk;
}

/// The firing zone of step k: delay (when allowed) from the previous
/// post-transition zone under the previous invariants, then the fired
/// edges' clock guards. Both zones are over `layout`, the live clocks
/// of the previous state: its invariants and the fired guards read no
/// other clock.
std::optional<dbm::Dbm> firingZone(const ta::System& sys,
                                   const ClockLayout& layout,
                                   const dbm::Dbm& prevPost,
                                   const std::vector<ta::LocId>& prevLocs,
                                   const Transition& via) {
  dbm::Dbm f = prevPost;
  if (!delayForbidden(sys, prevLocs)) {
    f.up();
    if (!conjoinInvariants(sys, layout, prevLocs, f)) return std::nullopt;
  }
  for (const TransitionPart& part : via.parts) {
    const ta::Edge& e =
        sys.automaton(part.proc).edges()[static_cast<size_t>(part.edge)];
    for (const ta::ClockConstraint& cc : e.clockGuard) {
      if (!f.constrain(layout.index(cc.i), layout.index(cc.j), cc.bound)) {
        return std::nullopt;
      }
    }
  }
  return f;
}

const std::vector<ta::ClockReset>& resetsOf(const ta::System& sys,
                                            const TransitionPart& part) {
  return sys.automaton(part.proc)
      .edges()[static_cast<size_t>(part.edge)]
      .resets;
}

}  // namespace

std::optional<ConcreteTrace> concretize(const ta::System& sys,
                                        const SymbolicTrace& trace,
                                        std::string* error) {
  const auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };
  if (trace.steps.empty()) return fail("empty symbolic trace");

  const uint32_t dim = sys.dbmDimension();
  const size_t n = trace.steps.size();
  // Each step's zone is kept over the live clocks of its discrete state,
  // as the engines keep theirs; only layoutOf is used here.
  Options liveOpts;
  liveOpts.extrapolation = Extrapolation::kNone;
  const SuccessorGenerator gen(sys, liveOpts);
  ClockLayout prev;
  ClockLayout cur;

  // ---- Forward pass: exact post-transition zones. --------------------
  std::vector<dbm::Dbm> post;
  post.reserve(n);
  {
    gen.layoutOf(trace.steps[0].d, cur);
    const uint32_t m = cur.dimension();
    dbm::Dbm z0 = dbm::Dbm::zero(m);
    if (sys.hasNonzeroClockInit()) {
      // Lifted mid-run start (System::setClockInit): the anchor point
      // is the configured valuation, not the origin — otherwise the
      // backward pass charges the initial offset as extra delay.
      z0 = dbm::Dbm::unconstrained(m);
      for (uint32_t k = 1; k < m; ++k) {
        const dbm::value_t v =
            sys.initialClock(static_cast<ta::ClockId>(cur.clock(k)));
        z0.constrainUpper(k, v, /*strict=*/false);
        z0.constrainLower(k, v, /*strict=*/false);
      }
    }
    if (!conjoinInvariants(sys, cur, trace.steps[0].d.locs, z0)) {
      return fail("initial state violates invariants");
    }
    post.push_back(std::move(z0));
  }
  std::vector<int32_t> from;
  for (size_t k = 1; k < n; ++k) {
    std::swap(prev, cur);
    gen.layoutOf(trace.steps[k].d, cur);
    const auto f = firingZone(sys, prev, post[k - 1],
                              trace.steps[k - 1].d.locs, trace.steps[k].via);
    if (!f.has_value()) {
      return fail("symbolic trace infeasible at step " + std::to_string(k) +
                  " (engine abstraction bug?)");
    }
    // Onto the live clocks of step k: a clock live there but not before
    // enters fresh, and step k resets it.
    dbm::Dbm z = *f;
    from.resize(cur.dimension());
    for (uint32_t j = 0; j < cur.dimension(); ++j) {
      from[j] = prev.slot(static_cast<ta::ClockId>(cur.clock(j)));
    }
    z.remap(from);
    for (const TransitionPart& part : trace.steps[k].via.parts) {
      for (const ta::ClockReset& r : resetsOf(sys, part)) {
        if (const int32_t s = cur.slot(r.clock); s >= 0) {
          z.reset(static_cast<uint32_t>(s), r.value);
        }
      }
    }
    if (!conjoinInvariants(sys, cur, trace.steps[k].d.locs, z)) {
      return fail("target invariant infeasible at step " + std::to_string(k));
    }
    post.push_back(std::move(z));
  }

  // ---- Backward pass: delays, and one point per zone. -----------------
  // `point` is step k's valuation of its live clocks (layout `cur`).
  std::vector<int64_t> delays(n, 0);
  std::vector<int64_t> point(cur.dimension(), 0);
  if (completePoint(post[n - 1], std::vector<bool>(cur.dimension(), false),
                    point) != Completion::kOk) {
    return fail("final zone has no integer point");
  }
  std::vector<bool> kept;
  std::vector<int64_t> fired;
  for (size_t k = n - 1; k >= 1; --k) {
    gen.layoutOf(trace.steps[k - 1].d, prev);
    const auto f = firingZone(sys, prev, post[k - 1],
                              trace.steps[k - 1].d.locs, trace.steps[k].via);
    if (!f.has_value()) return fail("backward firing-zone recomputation failed");

    // A clock still live after step k and not reset by it must fire at
    // its chosen post-transition value; reset and dying clocks may take
    // any firing value.
    const uint32_t m = prev.dimension();
    kept.assign(m, false);
    fired.assign(m, 0);
    for (uint32_t s = 1; s < m; ++s) {
      if (const int32_t t = cur.slot(static_cast<ta::ClockId>(prev.clock(s)));
          t >= 0) {
        kept[s] = true;
        fired[s] = point[static_cast<size_t>(t)];
      }
    }
    for (const TransitionPart& part : trace.steps[k].via.parts) {
      for (const ta::ClockReset& r : resetsOf(sys, part)) {
        if (const int32_t s = prev.slot(r.clock); s >= 0) {
          kept[static_cast<size_t>(s)] = false;
        }
      }
    }
    switch (completePoint(*f, kept, fired)) {
      case Completion::kOk:
        break;
      case Completion::kFixedOutside:
        return fail("post-transition point has no firing preimage at step " +
                    std::to_string(k));
      case Completion::kNoIntegerPoint:
        return fail("firing zone has no integer point");
    }

    // Smallest delay d >= 0 with (fired - d) inside the previous post zone.
    int64_t dLo = 0;
    int64_t dHi = std::numeric_limits<int64_t>::max() / 4;
    for (uint32_t i = 1; i < m; ++i) {
      if (const auto hi = upperInt(post[k - 1], i); hi.has_value()) {
        dLo = std::max(dLo, fired[i] - *hi);
      }
      dHi = std::min(dHi, fired[i] - lowerInt(post[k - 1], i));
    }
    if (dLo > dHi) {
      return fail("no feasible integer delay at step " + std::to_string(k));
    }
    delays[k] = dLo;
    point.assign(m, 0);
    for (uint32_t i = 1; i < m; ++i) point[i] = fired[i] - dLo;
    std::swap(prev, cur);
  }

  // ---- Assemble full valuations. ---------------------------------------
  // The delays fix every clock: each holds its initial or last reset
  // value plus the time since, as validate replays it. On its live
  // clocks that is the point chosen in the step's zone; no guard or
  // invariant reads the others before they are reset.
  ConcreteTrace out;
  out.steps.reserve(n);
  std::vector<int64_t> clocks(dim, 0);
  for (uint32_t c = 1; c < dim; ++c) {
    clocks[c] = sys.initialClock(static_cast<ta::ClockId>(c));
  }
  int64_t now = 0;
  for (size_t k = 0; k < n; ++k) {
    now += delays[k];
    for (uint32_t c = 1; c < dim; ++c) clocks[c] += delays[k];
    for (const TransitionPart& part : trace.steps[k].via.parts) {
      for (const ta::ClockReset& r : resetsOf(sys, part)) {
        clocks[static_cast<size_t>(r.clock)] = r.value;
      }
    }
    out.steps.push_back(ConcreteStep{delays[k], now, trace.steps[k].via,
                                     trace.steps[k].d, clocks});
  }
  return out;
}

bool validate(const ta::System& sys, const ConcreteTrace& trace,
              std::string* error) {
  Replay rp(sys);
  const auto setError = [&] {
    if (error != nullptr) *error = rp.error;
    return false;
  };
  if (trace.steps.empty()) {
    if (error != nullptr) *error = "empty trace";
    return false;
  }
  for (size_t k = 1; k < trace.steps.size(); ++k) {
    const ConcreteStep& st = trace.steps[k];
    if (!rp.checkSyncShape(st.via)) return setError();
    if (!rp.step(st.via, st.delay, nullptr)) return setError();
    if (rp.locs != st.d.locs || rp.vars != st.d.vars ||
        rp.clocks != st.clocks || rp.now != st.timestamp) {
      rp.error = "recorded state differs from replay at step " +
                 std::to_string(k);
      return setError();
    }
  }
  return true;
}

std::string toString(const ta::System& sys, const ConcreteTrace& trace) {
  std::ostringstream os;
  Options opts;  // only needed to construct a label helper
  SuccessorGenerator gen(sys, opts);
  for (size_t k = 1; k < trace.steps.size(); ++k) {
    const ConcreteStep& st = trace.steps[k];
    if (st.delay > 0) os << "Delay(" << st.delay << ")\n";
    os << "t=" << st.timestamp << "  " << gen.label(st.via) << "\n";
  }
  return os.str();
}

}  // namespace engine
