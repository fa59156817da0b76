#include "ta/bounds_analysis.hpp"

#include <algorithm>
#include <cassert>

namespace ta {

namespace {

/// Fold one constraint's constants into the L/U rows (indexed by the
/// automaton's local clock slots) of the location it is observable at.
/// A constraint x_i - x_j ≺ c acts as an upper-type bound on x_i
/// (constant c) and a lower-type bound on x_j (constant -c); either
/// side is clamped at 0 — a negative constant constrains nothing a
/// nonnegative clock can distinguish, but the clock was still compared,
/// so the bound becomes 0 rather than staying at the "never observed"
/// -1.
void foldConstraint(const ClockConstraint& cc, const LocalClocks& local,
                    dbm::value_t* lo, dbm::value_t* up) {
  const dbm::value_t c = dbm::boundValue(cc.bound);
  if (cc.i != 0) {
    auto& u = up[local.slot(cc.i)];
    u = std::max(u, std::max<dbm::value_t>(c, 0));
  }
  if (cc.j != 0) {
    auto& l = lo[local.slot(cc.j)];
    l = std::max(l, std::max<dbm::value_t>(-c, 0));
  }
}

}  // namespace

RemainingTimeTable analyzeMinRemainingTime(
    const System& sys, const std::vector<std::vector<LocId>>& targets) {
  assert(sys.finalized() && "System::finalize() must run before analysis");
  assert(targets.size() == sys.numAutomata());
  constexpr int64_t kInf = kUnreachableRemaining;

  RemainingTimeTable table;
  table.entry_.resize(sys.numAutomata());
  table.from_.resize(sys.numAutomata());
  table.hasTargets_.resize(sys.numAutomata());

  for (size_t pi = 0; pi < sys.numAutomata(); ++pi) {
    const Automaton& a = sys.automaton(static_cast<ProcId>(pi));
    const size_t nLocs = a.numLocations();
    auto& entry = table.entry_[pi];
    auto& from = table.from_[pi];
    table.hasTargets_[pi] = !targets[pi].empty();
    if (targets[pi].empty()) {
      // Unconstrained automaton: zero everywhere, never prunes.
      entry.assign(nLocs, 0);
      from.assign(nLocs, 0);
      continue;
    }

    // fresh[l * dim + x]: the clock in local slot x is provably 0
    // whenever l is entered — every incoming edge resets it to 0, and
    // reaching the initial location "from the start" (all clocks 0)
    // counts as a resetting entry. Only the clocks of lower-bound
    // guards get slots: no other clock's freshness is read.
    const auto& edges = a.edges();
    LocalClocks local;
    for (const Edge& e : edges) {
      for (const ClockConstraint& cc : e.clockGuard) {
        if (cc.i == 0 && cc.j != 0) local.add(cc.j);
      }
    }
    local.seal();
    const size_t dim = local.dimension();
    std::vector<uint8_t> fresh(nLocs * dim, 1);
    for (const Edge& e : edges) {
      uint8_t* f = &fresh[static_cast<size_t>(e.dst) * dim];
      for (uint32_t x = 1; x < dim; ++x) {
        const bool zeroed = std::any_of(
            e.resets.begin(), e.resets.end(), [&](const ClockReset& r) {
              return r.clock == local.clock(x) && r.value == 0;
            });
        if (!zeroed) f[x] = 0;
      }
    }
    // A location no edge enters and that is not initial is unreachable;
    // its freshness is irrelevant. (The initial location's virtual
    // entry satisfies every freshness claim.)

    // wait[e]: time that must pass inside src(e) before edge e can
    // fire, from lower-bound guards x >= c / x > c on fresh clocks.
    std::vector<int64_t> wait(edges.size(), 0);
    for (size_t ei = 0; ei < edges.size(); ++ei) {
      const uint8_t* f = &fresh[static_cast<size_t>(edges[ei].src) * dim];
      for (const ClockConstraint& cc : edges[ei].clockGuard) {
        if (cc.i != 0 || cc.j == 0) continue;  // not a lower bound
        if (f[local.slot(cc.j)] == 0) continue;
        const int64_t c = -dbm::boundValue(cc.bound);
        if (c > wait[ei]) wait[ei] = c;
      }
    }

    // Backward Bellman fixpoint for entry(): targets at 0, everything
    // else the min over outgoing edges of wait + entry(dst). Values
    // only decrease from kInf and are bounded below by 0, so the
    // iteration terminates (each pass that changes anything lowers at
    // least one location; paths are finite).
    std::vector<int64_t> d(nLocs, kInf);
    for (LocId t : targets[pi]) d[static_cast<size_t>(t)] = 0;
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t ei = 0; ei < edges.size(); ++ei) {
        const auto src = static_cast<size_t>(edges[ei].src);
        if (d[src] == 0) continue;  // targets stay 0
        const int64_t dd = d[static_cast<size_t>(edges[ei].dst)];
        if (dd == kInf) continue;
        const int64_t via = std::min(kInf, wait[ei] + dd);
        if (via < d[src]) {
          d[src] = via;
          changed = true;
        }
      }
    }

    // from(): the current state may already have dwelt at l with the
    // guard clocks grown past their bounds, so its own wait must be
    // dropped — only the successors' entry() values survive.
    entry.assign(nLocs, 0);
    from.assign(nLocs, 0);
    for (size_t li = 0; li < nLocs; ++li) {
      entry[li] = static_cast<dbm::value_t>(d[li]);
      if (d[li] == 0) {
        from[li] = 0;
        continue;
      }
      int64_t best = kInf;
      for (int32_t ei : a.outgoing(static_cast<LocId>(li))) {
        const int64_t dd =
            d[static_cast<size_t>(edges[static_cast<size_t>(ei)].dst)];
        if (dd < best) best = dd;
      }
      from[li] = static_cast<dbm::value_t>(best);
    }
  }
  return table;
}

LUTable analyzeClockBounds(const System& sys) {
  assert(sys.finalized() && "System::finalize() must run before analysis");

  LUTable table;
  table.rows_.resize(sys.numAutomata());

  for (size_t pi = 0; pi < sys.numAutomata(); ++pi) {
    const Automaton& a = sys.automaton(static_cast<ProcId>(pi));
    const size_t nLocs = a.numLocations();
    const std::vector<Edge>& edges = a.edges();

    // The automaton's own clocks: those its invariants, guards and
    // resets name. No other clock can get a bound in its rows.
    LocalClocks local;
    for (size_t li = 0; li < nLocs; ++li) {
      local.add(a.location(static_cast<LocId>(li)).invariant);
    }
    for (const Edge& e : edges) {
      local.add(e.clockGuard);
      for (const ClockReset& r : e.resets) local.add(r.clock);
    }
    local.seal();
    const size_t dim = local.dimension();

    // Location-major working arrays over the local slots; -1 = no
    // observable bound. resets[e * dim + x]: edge e resets slot x.
    std::vector<dbm::value_t> lo(nLocs * dim, -1), up(nLocs * dim, -1);
    std::vector<uint8_t> resets(edges.size() * dim, 0);

    // Local contributions: invariants and outgoing guards. A nonzero
    // reset x := v floors both bounds of x at v in the destination —
    // the clock holds v outright there and extrapolation must keep the
    // value observable (mirrors the reset handling of the global
    // maxBounds computation).
    for (size_t li = 0; li < nLocs; ++li) {
      for (const ClockConstraint& cc :
           a.location(static_cast<LocId>(li)).invariant) {
        foldConstraint(cc, local, &lo[li * dim], &up[li * dim]);
      }
    }
    for (size_t ei = 0; ei < edges.size(); ++ei) {
      const Edge& e = edges[ei];
      const auto src = static_cast<size_t>(e.src);
      const auto dst = static_cast<size_t>(e.dst);
      for (const ClockConstraint& cc : e.clockGuard) {
        foldConstraint(cc, local, &lo[src * dim], &up[src * dim]);
      }
      for (const ClockReset& r : e.resets) {
        const size_t x = local.slot(r.clock);
        resets[ei * dim + x] = 1;
        if (r.value > 0) {
          auto& l = lo[dst * dim + x];
          auto& u = up[dst * dim + x];
          l = std::max(l, r.value);
          u = std::max(u, r.value);
        }
      }
    }

    // Backward fixpoint: bounds observable at the destination of an
    // edge are observable at its source for every clock the edge does
    // not reset (a reset severs observability — the post-reset value
    // is what later guards see).
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t ei = 0; ei < edges.size(); ++ei) {
        const size_t src = static_cast<size_t>(edges[ei].src) * dim;
        const size_t dst = static_cast<size_t>(edges[ei].dst) * dim;
        for (size_t x = 1; x < dim; ++x) {
          if (resets[ei * dim + x] != 0) continue;
          if (lo[dst + x] > lo[src + x]) {
            lo[src + x] = lo[dst + x];
            changed = true;
          }
          if (up[dst + x] > up[src + x]) {
            up[src + x] = up[dst + x];
            changed = true;
          }
        }
      }
    }

    // Sparse rows: only clocks this automaton observes at the location,
    // in global clock order (the local slots are sorted by clock id).
    auto& rows = table.rows_[pi];
    rows.resize(nLocs);
    for (size_t li = 0; li < nLocs; ++li) {
      for (size_t x = 1; x < dim; ++x) {
        const dbm::value_t l = lo[li * dim + x];
        const dbm::value_t u = up[li * dim + x];
        if (l >= 0 || u >= 0) {
          rows[li].push_back(
              ClockLU{local.clock(static_cast<uint32_t>(x)), l, u});
        }
      }
    }
  }
  return table;
}

}  // namespace ta
