#include "engine/trace.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "engine/simulator.hpp"
#include "engine/successors.hpp"

namespace engine {

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
  const auto fail = [&](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };
  if (trace.steps.empty()) return fail("empty trace");
  Simulator sim(sys);
  std::string why;
  for (size_t k = 1; k < trace.steps.size(); ++k) {
    const ConcreteStep& st = trace.steps[k];
    if (!sim.fire(st.via, st.delay, &why)) {
      return fail("step " + std::to_string(k) + ": " + why);
    }
    if (sim.locations() != st.d.locs || sim.variables() != st.d.vars ||
        sim.clocks() != st.clocks || sim.time() != st.timestamp) {
      return fail("recorded state differs from replay at step " +
                  std::to_string(k));
    }
  }
  return true;
}

std::string toString(const ta::System& sys, const ConcreteTrace& trace) {
  std::ostringstream os;
  for (size_t k = 1; k < trace.steps.size(); ++k) {
    const ConcreteStep& st = trace.steps[k];
    if (st.delay > 0) os << "Delay(" << st.delay << ")\n";
    os << "t=" << st.timestamp << "  " << label(sys, st.via) << "\n";
  }
  return os.str();
}

}  // namespace engine
