// Properties of the best-first heuristic (analyzeMinRemainingTime):
//
//  - Admissibility: for random systems with a never-reset makespan
//    clock, the table's bound at the initial state never exceeds the
//    true optimal makespan (established independently by bounded
//    reachability probes — the binary-search oracle).
//  - Consistency at the table level: from() is the min over outgoing
//    entry() values, entry() dominates from(), targets sit at zero —
//    the Bellman fixpoint inequalities h rests on.
//  - Freshness: a guard only contributes wait time when every incoming
//    edge resets the guarded clock; the conservative cases pin this,
//    and the tables match a dense all-clocks reference computation.
#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/reachability.hpp"
#include "plant/plant.hpp"
#include "ta/bounds_analysis.hpp"
#include "ta/system.hpp"

namespace ta {
namespace {

struct RandomModel {
  ta::System sys;
  ClockId gtime = -1;  ///< never-reset makespan clock
  std::vector<ProcId> procs;
  std::vector<LocId> targets;  ///< one terminal location per process
};

/// A random network of 1-2 forward-chain automata: each hop guards
/// `x >= c` on a clock usually (not always) reset by the previous hop,
/// plus occasional forward skip edges. Always feasible — the chain
/// itself reaches the final location.
RandomModel buildRandom(std::mt19937_64& rng) {
  RandomModel m;
  m.gtime = m.sys.addClock("g");
  const size_t nProcs = 1 + rng() % 2;
  for (size_t p = 0; p < nProcs; ++p) {
    const ClockId x = m.sys.addClock("x" + std::to_string(p));
    const ProcId pid = m.sys.addAutomaton("R" + std::to_string(p));
    m.procs.push_back(pid);
    auto& a = m.sys.automaton(pid);
    const size_t nLocs = 2 + rng() % 4;
    std::vector<LocId> locs;
    for (size_t l = 0; l < nLocs; ++l) {
      locs.push_back(a.addLocation("l" + std::to_string(l)));
    }
    a.setInitial(locs[0]);
    m.targets.push_back(locs.back());
    for (size_t l = 0; l + 1 < nLocs; ++l) {
      auto e = m.sys.edge(pid, locs[l], locs[l + 1])
                   .when(ccGe(x, static_cast<int32_t>(rng() % 6)));
      if (rng() % 4 != 0) e.reset(x);  // mostly fresh, sometimes not
      // Forward skip: a cheaper alternative route the Bellman min must
      // account for.
      if (l + 2 < nLocs && rng() % 3 == 0) {
        m.sys.edge(pid, locs[l], locs[l + 2])
            .when(ccGe(x, static_cast<int32_t>(rng() % 6)))
            .reset(x);
      }
    }
  }
  m.sys.finalize();
  return m;
}

engine::Goal goalOf(const RandomModel& m) {
  engine::Goal g;
  for (size_t p = 0; p < m.procs.size(); ++p) {
    g.locations.push_back({m.procs[p], m.targets[p]});
  }
  return g;
}

/// True optimal makespan by linear probing of `gtime <= B` — the same
/// oracle the binary-search optimizer trusts, minus the bisection.
int32_t optimalMakespan(const RandomModel& m, int32_t maxBound) {
  for (int32_t b = 0; b <= maxBound; ++b) {
    engine::Goal g = goalOf(m);
    g.clockConstraints.push_back(ccLe(m.gtime, b));
    engine::Options opts;
    engine::Reachability checker(m.sys, opts);
    if (checker.run(g).reachable) return b;
  }
  ADD_FAILURE() << "target unreachable within bound " << maxBound;
  return -1;
}

std::vector<std::vector<LocId>> targetsOf(const RandomModel& m) {
  std::vector<std::vector<LocId>> t(m.sys.numAutomata());
  for (size_t p = 0; p < m.procs.size(); ++p) {
    t[static_cast<size_t>(m.procs[p])].push_back(m.targets[p]);
  }
  return t;
}

TEST(HeuristicProperty, AdmissibleAtTheInitialState) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    std::mt19937_64 rng(seed);
    const RandomModel m = buildRandom(rng);
    const RemainingTimeTable rt =
        analyzeMinRemainingTime(m.sys, targetsOf(m));
    std::vector<LocId> init;
    for (size_t p = 0; p < m.sys.numAutomata(); ++p) {
      init.push_back(m.sys.automaton(static_cast<ProcId>(p)).initial());
    }
    const dbm::value_t h = rt.lowerBound(init);
    ASSERT_LT(h, kUnreachableRemaining) << "seed " << seed;
    const int32_t opt = optimalMakespan(m, 64);
    ASSERT_GE(opt, 0) << "seed " << seed;
    EXPECT_LE(h, opt) << "seed " << seed
                      << ": heuristic overestimates the optimum";
  }
}

TEST(HeuristicProperty, TableIsABellmanFixpoint) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    std::mt19937_64 rng(seed);
    const RandomModel m = buildRandom(rng);
    const RemainingTimeTable rt =
        analyzeMinRemainingTime(m.sys, targetsOf(m));
    for (size_t pi = 0; pi < m.procs.size(); ++pi) {
      const ProcId p = m.procs[pi];
      const Automaton& a = m.sys.automaton(p);
      ASSERT_TRUE(rt.hasTargets(p));
      EXPECT_EQ(rt.entry(p, m.targets[pi]), 0) << "seed " << seed;
      EXPECT_EQ(rt.from(p, m.targets[pi]), 0) << "seed " << seed;
      for (LocId l = 0; l < static_cast<LocId>(a.numLocations()); ++l) {
        // A state may have dwelt arbitrarily long: from() must not
        // exceed the fresh-entry estimate...
        EXPECT_LE(rt.from(p, l), rt.entry(p, l)) << "seed " << seed;
        // ...and is the min over successors' entry() values — the
        // consistency inequality of the search ordering.
        for (const int32_t ei : a.outgoing(l)) {
          const Edge& e = a.edges()[static_cast<size_t>(ei)];
          EXPECT_LE(rt.from(p, l), rt.entry(p, e.dst))
              << "seed " << seed << " proc " << pi << " edge " << ei;
        }
      }
    }
  }
}

TEST(HeuristicProperty, GuardOnUnfreshClockContributesNoWait) {
  // A --(no reset)--> B --(x >= 5)--> C: x may already be large when B
  // is entered, so the analysis must not charge the 5.
  ta::System sys;
  const ClockId x = sys.addClock("x");
  const ProcId p = sys.addAutomaton("A");
  auto& a = sys.automaton(p);
  const LocId la = a.addLocation("a");
  const LocId lb = a.addLocation("b");
  const LocId lc = a.addLocation("c");
  a.setInitial(la);
  sys.edge(p, la, lb);  // no reset: x stale at b
  sys.edge(p, lb, lc).when(ccGe(x, 5));
  sys.finalize();
  const RemainingTimeTable rt = analyzeMinRemainingTime(sys, {{lc}});
  EXPECT_EQ(rt.entry(p, lb), 0);
  EXPECT_EQ(rt.entry(p, la), 0);
}

TEST(HeuristicProperty, GuardOnFreshClockChargesTheWait) {
  ta::System sys;
  const ClockId x = sys.addClock("x");
  const ProcId p = sys.addAutomaton("A");
  auto& a = sys.automaton(p);
  const LocId la = a.addLocation("a");
  const LocId lb = a.addLocation("b");
  const LocId lc = a.addLocation("c");
  a.setInitial(la);
  sys.edge(p, la, lb).reset(x);
  sys.edge(p, lb, lc).when(ccGe(x, 5));
  sys.finalize();
  const RemainingTimeTable rt = analyzeMinRemainingTime(sys, {{lc}});
  EXPECT_EQ(rt.entry(p, lb), 5);
  EXPECT_EQ(rt.entry(p, la), 5);
  EXPECT_EQ(rt.entry(p, lc), 0);
  // Initial locations count as fresh entries (the virtual entry resets
  // everything — all clocks start at 0), so waits chain from the start:
  ta::System sys2;
  const ClockId y = sys2.addClock("y");
  const ProcId q = sys2.addAutomaton("B");
  auto& b = sys2.automaton(q);
  const LocId m0 = b.addLocation("m0");
  const LocId m1 = b.addLocation("m1");
  b.setInitial(m0);
  sys2.edge(q, m0, m1).when(ccGe(y, 7));
  sys2.finalize();
  const RemainingTimeTable rt2 = analyzeMinRemainingTime(sys2, {{m1}});
  EXPECT_EQ(rt2.entry(q, m0), 7);
}

TEST(HeuristicProperty, UnreachableLocationsReportTheSentinel) {
  ta::System sys;
  const ProcId p = sys.addAutomaton("A");
  auto& a = sys.automaton(p);
  const LocId la = a.addLocation("a");
  const LocId lb = a.addLocation("b");
  const LocId trap = a.addLocation("trap");
  a.setInitial(la);
  sys.edge(p, la, lb);
  sys.edge(p, la, trap);  // dead end: no way back to b
  sys.finalize();
  const RemainingTimeTable rt = analyzeMinRemainingTime(sys, {{lb}});
  EXPECT_EQ(rt.entry(p, trap), kUnreachableRemaining);
  const std::vector<LocId> dead{trap};
  EXPECT_EQ(rt.lowerBound(dead), kUnreachableRemaining);
}

/// Reference tables: analyzeMinRemainingTime as it was before it
/// indexed freshness by the guard clocks only, with location x
/// all-clocks freshness arrays and a scan of every clock per edge.
struct DenseRemaining {
  std::vector<std::vector<dbm::value_t>> entry, from;
};

DenseRemaining denseMinRemainingTime(
    const System& sys, const std::vector<std::vector<LocId>>& targets) {
  const size_t dim = sys.dbmDimension();
  constexpr int64_t kInf = kUnreachableRemaining;
  DenseRemaining table;
  table.entry.resize(sys.numAutomata());
  table.from.resize(sys.numAutomata());
  for (size_t pi = 0; pi < sys.numAutomata(); ++pi) {
    const Automaton& a = sys.automaton(static_cast<ProcId>(pi));
    const size_t nLocs = a.numLocations();
    auto& entry = table.entry[pi];
    auto& from = table.from[pi];
    if (targets[pi].empty()) {
      entry.assign(nLocs, 0);
      from.assign(nLocs, 0);
      continue;
    }
    std::vector<std::vector<bool>> fresh(nLocs,
                                         std::vector<bool>(dim, true));
    for (const Edge& e : a.edges()) {
      auto& f = fresh[static_cast<size_t>(e.dst)];
      for (size_t x = 1; x < dim; ++x) {
        const bool zeroed = std::any_of(
            e.resets.begin(), e.resets.end(), [&](const ClockReset& r) {
              return static_cast<size_t>(r.clock) == x && r.value == 0;
            });
        if (!zeroed) f[x] = false;
      }
    }
    const auto& edges = a.edges();
    std::vector<int64_t> wait(edges.size(), 0);
    for (size_t ei = 0; ei < edges.size(); ++ei) {
      const auto& f = fresh[static_cast<size_t>(edges[ei].src)];
      for (const ClockConstraint& cc : edges[ei].clockGuard) {
        if (cc.i != 0 || cc.j == 0) continue;
        if (!f[static_cast<size_t>(cc.j)]) continue;
        const int64_t c = -dbm::boundValue(cc.bound);
        if (c > wait[ei]) wait[ei] = c;
      }
    }
    std::vector<int64_t> d(nLocs, kInf);
    for (LocId t : targets[pi]) d[static_cast<size_t>(t)] = 0;
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t ei = 0; ei < edges.size(); ++ei) {
        const auto src = static_cast<size_t>(edges[ei].src);
        if (d[src] == 0) continue;
        const int64_t dd = d[static_cast<size_t>(edges[ei].dst)];
        if (dd == kInf) continue;
        const int64_t via = std::min(kInf, wait[ei] + dd);
        if (via < d[src]) {
          d[src] = via;
          changed = true;
        }
      }
    }
    entry.assign(nLocs, 0);
    from.assign(nLocs, 0);
    for (size_t li = 0; li < nLocs; ++li) {
      entry[li] = static_cast<dbm::value_t>(d[li]);
      if (d[li] == 0) continue;
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

void expectMatchesDense(const System& sys,
                        const std::vector<std::vector<LocId>>& targets,
                        const std::string& what) {
  const RemainingTimeTable rt = analyzeMinRemainingTime(sys, targets);
  const DenseRemaining dense = denseMinRemainingTime(sys, targets);
  for (size_t p = 0; p < sys.numAutomata(); ++p) {
    const auto proc = static_cast<ProcId>(p);
    for (size_t l = 0; l < dense.entry[p].size(); ++l) {
      const auto loc = static_cast<LocId>(l);
      ASSERT_EQ(rt.entry(proc, loc), dense.entry[p][l])
          << what << ": entry, process " << p << ", location " << l;
      ASSERT_EQ(rt.from(proc, loc), dense.from[p][l])
          << what << ": from, process " << p << ", location " << l;
    }
  }
}

TEST(HeuristicProperty, SparseFreshnessMatchesDense) {
  std::mt19937_64 rng(0x5eed2u);
  const auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  for (int seed = 0; seed < 300; ++seed) {
    System sys;
    const int numClocks = pick(1, 40);
    for (int c = 0; c < numClocks; ++c) {
      sys.addClock("c" + std::to_string(c));
    }
    const int numProcs = pick(1, 4);
    std::vector<std::vector<LocId>> targets(static_cast<size_t>(numProcs));
    for (int pi = 0; pi < numProcs; ++pi) {
      const ProcId p = sys.addAutomaton("P" + std::to_string(pi));
      auto& a = sys.automaton(p);
      // A few clocks per automaton, drawn from all of them: guards,
      // diagonals and resets (to 0 and to other values) on shared and
      // on own clocks.
      std::vector<ClockId> own(static_cast<size_t>(pick(1, 4)));
      for (ClockId& c : own) c = pick(1, numClocks);
      const auto clock = [&] {
        return own[static_cast<size_t>(
            pick(0, static_cast<int>(own.size()) - 1))];
      };
      const auto guard = [&]() -> ClockConstraint {
        const dbm::value_t c = pick(-3, 9);
        const dbm::raw_t b =
            pick(0, 1) != 0 ? dbm::boundStrict(c) : dbm::boundWeak(c);
        switch (pick(0, 3)) {
          case 0: return {clock(), 0, b};
          case 1:
          case 2: return {0, clock(), b};
          default: {
            const ClockId x = clock();
            const ClockId y = clock();
            return x == y ? ClockConstraint{0, x, b}
                          : ClockConstraint{x, y, b};
          }
        }
      };
      const int numLocs = pick(1, 7);
      for (int l = 0; l < numLocs; ++l) {
        a.addLocation("l" + std::to_string(l));
      }
      for (int e = pick(0, 12); e > 0; --e) {
        auto eb = sys.edge(p, pick(0, numLocs - 1), pick(0, numLocs - 1));
        for (int k = pick(0, 3); k > 0; --k) eb.when(guard());
        for (int k = pick(0, 2); k > 0; --k) {
          eb.reset(clock(), pick(0, 2) != 0 ? 0 : pick(1, 9));
        }
      }
      for (int l = 0; l < numLocs; ++l) {
        if (pick(0, 3) == 0) targets[static_cast<size_t>(pi)].push_back(l);
      }
    }
    sys.finalize();
    ASSERT_NO_FATAL_FAILURE(
        expectMatchesDense(sys, targets, "random system " + std::to_string(seed)));
  }

  // The 45-batch plant with optimize_makespan's targets: every automaton
  // that has a "done"/"alldone" location.
  plant::PlantConfig cfg;
  cfg.order = plant::standardOrder(45);
  cfg.guides = plant::GuideLevel::kAll;
  const auto plant = plant::buildPlant(cfg);
  std::vector<std::vector<LocId>> targets(plant->sys.numAutomata());
  size_t withTargets = 0;
  for (size_t i = 0; i < plant->sys.numAutomata(); ++i) {
    const Automaton& a = plant->sys.automaton(static_cast<ProcId>(i));
    for (const char* name : {"done", "alldone"}) {
      const LocId l = a.findLocation(name);
      if (l >= 0) {
        targets[i].push_back(l);
        ++withTargets;
        break;
      }
    }
  }
  ASSERT_GT(withTargets, 45u);
  expectMatchesDense(plant->sys, targets, "45-batch all-guides plant");
}

}  // namespace
}  // namespace ta
