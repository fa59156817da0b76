// Unit tests of the static per-location LU-bound analysis
// (ta/bounds_analysis.hpp) on hand-built automata with known tables:
// guard/invariant contributions, backward propagation across
// non-resetting edges, severing at resets, nonzero-reset flooring,
// loops, diagonal constraints and the refinement relation against the
// global max-bounds; and the analysis over each automaton's own clocks
// against the dense all-clocks version it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "plant/plant.hpp"
#include "ta/bounds_analysis.hpp"
#include "ta/system.hpp"

namespace ta {
namespace {

TEST(BoundsAnalysis, GuardsContributeAtSourceAndPropagateBackward) {
  System sys;
  const ClockId x = sys.addClock("x");
  const ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const LocId l0 = a.addLocation("l0");
  const LocId l1 = a.addLocation("l1");
  const LocId l2 = a.addLocation("l2");
  sys.edge(p, l0, l1).when(ccGe(x, 3));
  sys.edge(p, l1, l2).when(ccLe(x, 7));
  sys.finalize();

  const LUTable lu = analyzeClockBounds(sys);
  ASSERT_EQ(lu.numAutomata(), 1u);

  // l1 observes its own outgoing upper guard only.
  EXPECT_EQ(lu.lower(p, l1, x), -1);
  EXPECT_EQ(lu.upper(p, l1, x), 7);
  // l0 observes its own lower guard plus l1's bounds (no reset between).
  EXPECT_EQ(lu.lower(p, l0, x), 3);
  EXPECT_EQ(lu.upper(p, l0, x), 7);
  // Nothing is observable from the sink.
  EXPECT_TRUE(lu.at(p, l2).empty());
}

TEST(BoundsAnalysis, ResetSeversBackwardPropagation) {
  System sys;
  const ClockId x = sys.addClock("x");
  const ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const LocId l0 = a.addLocation("l0");
  const LocId l1 = a.addLocation("l1");
  const LocId l2 = a.addLocation("l2");
  sys.edge(p, l0, l1).reset(x);
  sys.edge(p, l1, l2).when(ccGe(x, 5));
  sys.finalize();

  const LUTable lu = analyzeClockBounds(sys);
  EXPECT_EQ(lu.lower(p, l1, x), 5);
  // The guard on x at l1 is unobservable from l0: the connecting edge
  // resets x, so whatever value x has at l0 is never compared again.
  EXPECT_TRUE(lu.at(p, l0).empty());
}

TEST(BoundsAnalysis, NonzeroResetFloorsDestinationBounds) {
  System sys;
  const ClockId x = sys.addClock("x");
  const ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const LocId l0 = a.addLocation("l0");
  const LocId l1 = a.addLocation("l1");
  const LocId l2 = a.addLocation("l2");
  sys.edge(p, l0, l1).reset(x, 9);
  sys.edge(p, l1, l2).reset(x, 0);
  sys.finalize();

  const LUTable lu = analyzeClockBounds(sys);
  // x := 9 means x holds 9 outright at l1; both bounds floor at 9 so
  // extrapolation cannot erase the value.
  EXPECT_EQ(lu.lower(p, l1, x), 9);
  EXPECT_EQ(lu.upper(p, l1, x), 9);
  // A reset to zero contributes nothing.
  EXPECT_TRUE(lu.at(p, l2).empty());
  EXPECT_TRUE(lu.at(p, l0).empty());
}

TEST(BoundsAnalysis, InvariantContributesLocallyAndUpstream) {
  System sys;
  const ClockId x = sys.addClock("x");
  const ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const LocId l0 = a.addLocation("l0");
  const LocId l1 = a.addLocation("l1");
  a.setInvariant(l1, {ccLe(x, 4)});
  sys.edge(p, l0, l1);
  sys.finalize();

  const LUTable lu = analyzeClockBounds(sys);
  EXPECT_EQ(lu.upper(p, l1, x), 4);
  EXPECT_EQ(lu.lower(p, l1, x), -1);
  // Observable one step earlier: the edge does not reset x.
  EXPECT_EQ(lu.upper(p, l0, x), 4);
}

TEST(BoundsAnalysis, LoopReachesFixpoint) {
  System sys;
  const ClockId x = sys.addClock("x");
  const ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const LocId l0 = a.addLocation("l0");
  const LocId l1 = a.addLocation("l1");
  sys.edge(p, l0, l1);
  sys.edge(p, l1, l0).when(ccGe(x, 2));
  sys.finalize();

  const LUTable lu = analyzeClockBounds(sys);
  // The cycle carries the bound around without resets; the fixpoint
  // must terminate with the same bound at both locations.
  EXPECT_EQ(lu.lower(p, l0, x), 2);
  EXPECT_EQ(lu.lower(p, l1, x), 2);
  EXPECT_EQ(lu.upper(p, l0, x), -1);
  EXPECT_EQ(lu.upper(p, l1, x), -1);
}

TEST(BoundsAnalysis, DiagonalConstraintFoldsAsymmetrically) {
  System sys;
  const ClockId x = sys.addClock("x");
  const ClockId y = sys.addClock("y");
  const ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const LocId l0 = a.addLocation("l0");
  const LocId l1 = a.addLocation("l1");
  sys.edge(p, l0, l1).when(ccDiffLe(x, y, 3)).reset(x).reset(y);
  sys.finalize();

  const LUTable lu = analyzeClockBounds(sys);
  // x - y <= 3 is an upper-type bound on x (constant 3) and a
  // lower-type bound on y with constant -3, clamped at 0: y was
  // compared, so its bound is 0 rather than the "never observed" -1.
  EXPECT_EQ(lu.upper(p, l0, x), 3);
  EXPECT_EQ(lu.lower(p, l0, x), -1);
  EXPECT_EQ(lu.lower(p, l0, y), 0);
  EXPECT_EQ(lu.upper(p, l0, y), -1);
}

TEST(BoundsAnalysis, NegativeDiagonalConstantClampsToZero) {
  System sys;
  const ClockId x = sys.addClock("x");
  const ClockId y = sys.addClock("y");
  const ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const LocId l0 = a.addLocation("l0");
  const LocId l1 = a.addLocation("l1");
  sys.edge(p, l0, l1).when(ccDiffLe(x, y, -2)).reset(x).reset(y);
  sys.finalize();

  const LUTable lu = analyzeClockBounds(sys);
  // x - y <= -2: upper side clamps to 0, lower side of y becomes 2.
  EXPECT_EQ(lu.upper(p, l0, x), 0);
  EXPECT_EQ(lu.lower(p, l0, y), 2);
}

TEST(BoundsAnalysis, RefinesGlobalMaxBounds) {
  System sys;
  const ClockId x = sys.addClock("x");
  const ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const LocId l0 = a.addLocation("l0");
  const LocId l1 = a.addLocation("l1");
  const LocId l2 = a.addLocation("l2");
  sys.edge(p, l0, l1).when(ccLe(x, 10)).reset(x);
  sys.edge(p, l1, l2).when(ccLe(x, 2));
  sys.finalize();

  const LUTable lu = analyzeClockBounds(sys);
  // Global Extra_M must keep every zone distinct up to M(x) = 10
  // everywhere; the per-location table knows l1 only ever compares x
  // against 2 again — a strictly coarser abstraction at l1.
  EXPECT_EQ(sys.maxBounds()[static_cast<size_t>(x)], 10);
  EXPECT_EQ(lu.upper(p, l0, x), 10);
  EXPECT_EQ(lu.upper(p, l1, x), 2);
  for (const LocId l : {l0, l1, l2}) {
    for (const ClockLU& e : lu.at(p, l)) {
      const auto m = sys.maxBounds()[static_cast<size_t>(e.clock)];
      EXPECT_LE(e.lower, m);
      EXPECT_LE(e.upper, m);
    }
  }
}

TEST(BoundsAnalysis, ForeignClocksAbsentFromRows) {
  System sys;
  const ClockId x = sys.addClock("x");
  const ClockId y = sys.addClock("y");
  const ProcId p = sys.addAutomaton("P");
  const ProcId q = sys.addAutomaton("Q");
  auto& a = sys.automaton(p);
  auto& b = sys.automaton(q);
  const LocId pl0 = a.addLocation("l0");
  const LocId pl1 = a.addLocation("l1");
  const LocId ql0 = b.addLocation("m0");
  const LocId ql1 = b.addLocation("m1");
  sys.edge(p, pl0, pl1).when(ccGe(x, 6));
  sys.edge(q, ql0, ql1).when(ccLe(y, 8));
  sys.finalize();

  const LUTable lu = analyzeClockBounds(sys);
  ASSERT_EQ(lu.numAutomata(), 2u);
  // Each automaton's rows mention only the clocks it observes; the
  // engine combines rows across the location vector by pointwise max.
  ASSERT_EQ(lu.at(p, pl0).size(), 1u);
  EXPECT_EQ(lu.at(p, pl0)[0].clock, x);
  EXPECT_EQ(lu.lower(p, pl0, y), -1);
  ASSERT_EQ(lu.at(q, ql0).size(), 1u);
  EXPECT_EQ(lu.at(q, ql0)[0].clock, y);
  EXPECT_EQ(lu.upper(q, ql0, x), -1);
}

TEST(BoundsAnalysis, BranchingTakesPointwiseMax) {
  System sys;
  const ClockId x = sys.addClock("x");
  const ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const LocId l0 = a.addLocation("l0");
  const LocId l1 = a.addLocation("l1");
  const LocId l2 = a.addLocation("l2");
  // Two futures from l0: one compares x against 1, the other against 6.
  sys.edge(p, l0, l1).when(ccGe(x, 1));
  sys.edge(p, l0, l2).when(ccGe(x, 6));
  sys.finalize();

  const LUTable lu = analyzeClockBounds(sys);
  // l0 must keep the larger constant: abstraction by the smaller one
  // could merge zones the x >= 6 branch still distinguishes.
  EXPECT_EQ(lu.lower(p, l0, x), 6);
}

// -- The dense all-clocks analysis, as an oracle ---------------------------

using LURow = std::vector<std::tuple<ClockId, dbm::value_t, dbm::value_t>>;

/// `analyzeClockBounds` as it ran before it kept each automaton's own
/// clocks only: location x all-clocks arrays and a fixpoint over every
/// clock. Returns rows[proc][loc] as (clock, L, U) triples.
std::vector<std::vector<LURow>> denseClockBounds(const System& sys) {
  const size_t dim = sys.dbmDimension();
  const auto fold = [](const ClockConstraint& cc,
                       std::vector<dbm::value_t>& lo,
                       std::vector<dbm::value_t>& up) {
    const dbm::value_t c = dbm::boundValue(cc.bound);
    if (cc.i != 0) {
      auto& u = up[static_cast<size_t>(cc.i)];
      u = std::max(u, std::max<dbm::value_t>(c, 0));
    }
    if (cc.j != 0) {
      auto& l = lo[static_cast<size_t>(cc.j)];
      l = std::max(l, std::max<dbm::value_t>(-c, 0));
    }
  };
  std::vector<std::vector<LURow>> out(sys.numAutomata());
  for (size_t pi = 0; pi < sys.numAutomata(); ++pi) {
    const Automaton& a = sys.automaton(static_cast<ProcId>(pi));
    const size_t nLocs = a.numLocations();
    std::vector<std::vector<dbm::value_t>> lo(
        nLocs, std::vector<dbm::value_t>(dim, -1));
    std::vector<std::vector<dbm::value_t>> up = lo;
    for (size_t li = 0; li < nLocs; ++li) {
      for (const ClockConstraint& cc :
           a.location(static_cast<LocId>(li)).invariant) {
        fold(cc, lo[li], up[li]);
      }
    }
    for (const Edge& e : a.edges()) {
      const auto src = static_cast<size_t>(e.src);
      const auto dst = static_cast<size_t>(e.dst);
      for (const ClockConstraint& cc : e.clockGuard) {
        fold(cc, lo[src], up[src]);
      }
      for (const ClockReset& r : e.resets) {
        if (r.value > 0) {
          auto& l = lo[dst][static_cast<size_t>(r.clock)];
          auto& u = up[dst][static_cast<size_t>(r.clock)];
          l = std::max(l, r.value);
          u = std::max(u, r.value);
        }
      }
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (const Edge& e : a.edges()) {
        const auto src = static_cast<size_t>(e.src);
        const auto dst = static_cast<size_t>(e.dst);
        for (size_t x = 1; x < dim; ++x) {
          const bool isReset = std::any_of(
              e.resets.begin(), e.resets.end(), [&](const ClockReset& r) {
                return static_cast<size_t>(r.clock) == x;
              });
          if (isReset) continue;
          if (lo[dst][x] > lo[src][x]) {
            lo[src][x] = lo[dst][x];
            changed = true;
          }
          if (up[dst][x] > up[src][x]) {
            up[src][x] = up[dst][x];
            changed = true;
          }
        }
      }
    }
    out[pi].resize(nLocs);
    for (size_t li = 0; li < nLocs; ++li) {
      for (size_t x = 1; x < dim; ++x) {
        if (lo[li][x] >= 0 || up[li][x] >= 0) {
          out[pi][li].emplace_back(static_cast<ClockId>(x), lo[li][x],
                                   up[li][x]);
        }
      }
    }
  }
  return out;
}

/// Every row of `analyzeClockBounds(sys)` equals the dense oracle's.
void expectMatchesDense(const System& sys, const std::string& what) {
  const LUTable lu = analyzeClockBounds(sys);
  const std::vector<std::vector<LURow>> dense = denseClockBounds(sys);
  ASSERT_EQ(lu.numAutomata(), dense.size()) << what;
  for (size_t p = 0; p < dense.size(); ++p) {
    for (size_t l = 0; l < dense[p].size(); ++l) {
      LURow got;
      for (const ClockLU& e :
           lu.at(static_cast<ProcId>(p), static_cast<LocId>(l))) {
        got.emplace_back(e.clock, e.lower, e.upper);
      }
      ASSERT_EQ(got, dense[p][l])
          << what << ": process " << p << ", location " << l;
    }
  }
}

TEST(BoundsAnalysis, SparseMatchesDenseOracle) {
  std::mt19937_64 rng(0x5eed1u);
  const auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  for (int seed = 0; seed < 200; ++seed) {
    System sys;
    const int numClocks = pick(1, 70);
    for (int c = 0; c < numClocks; ++c) {
      sys.addClock("c" + std::to_string(c));
    }
    const int numProcs = pick(1, 4);
    for (int pi = 0; pi < numProcs; ++pi) {
      const ProcId p = sys.addAutomaton("P" + std::to_string(pi));
      auto& a = sys.automaton(p);
      // Each automaton compares a few clocks drawn from all of them, so
      // its clock set is sparse and shares clocks with its neighbors.
      std::vector<ClockId> own(static_cast<size_t>(pick(1, 4)));
      for (ClockId& c : own) c = pick(1, numClocks);
      const auto clock = [&] {
        return own[static_cast<size_t>(
            pick(0, static_cast<int>(own.size()) - 1))];
      };
      const auto constraint = [&]() -> ClockConstraint {
        const dbm::value_t c = pick(-4, 12);
        const dbm::raw_t b =
            pick(0, 1) != 0 ? dbm::boundStrict(c) : dbm::boundWeak(c);
        switch (pick(0, 2)) {
          case 0: return {clock(), 0, b};
          case 1: return {0, clock(), b};
          default: {
            const ClockId x = clock();
            const ClockId y = clock();
            return x == y ? ClockConstraint{x, 0, b}
                          : ClockConstraint{x, y, b};
          }
        }
      };
      const int numLocs = pick(1, 6);
      for (int l = 0; l < numLocs; ++l) {
        const LocId loc = a.addLocation("l" + std::to_string(l));
        for (int k = pick(0, 2); k > 0; --k) a.addInvariant(loc, constraint());
      }
      for (int e = pick(0, 10); e > 0; --e) {
        auto eb = sys.edge(p, pick(0, numLocs - 1), pick(0, numLocs - 1));
        for (int k = pick(0, 3); k > 0; --k) eb.when(constraint());
        for (int k = pick(0, 2); k > 0; --k) {
          eb.reset(clock(), pick(0, 1) != 0 ? 0 : pick(1, 9));
        }
      }
    }
    sys.finalize();
    ASSERT_NO_FATAL_FAILURE(
        expectMatchesDense(sys, "random system " + std::to_string(seed)));
  }

  plant::PlantConfig cfg;
  cfg.order = plant::standardOrder(45);
  cfg.guides = plant::GuideLevel::kAll;
  const auto plant = plant::buildPlant(cfg);
  expectMatchesDense(plant->sys, "45-batch all-guides plant");
}

}  // namespace
}  // namespace ta
