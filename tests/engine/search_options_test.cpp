// Tests of the engine's search configurations: BFS / DFS / randomized
// DFS / bit-state hashing, reductions, cut-offs.
#include <gtest/gtest.h>

#include "engine/best_first.hpp"
#include "engine/reachability.hpp"
#include "engine/trace.hpp"
#include "ta/system.hpp"

namespace engine {
namespace {

using ta::ccGe;
using ta::ccLe;

/// A "diamond grid" model: two independent counters stepped by timed
/// self-loops — a classic interleaving state space with a known size
/// ((kMax+1)^2 discrete states) and a reachable corner. With
/// `costClock`, a never-reset clock `t` serves as best-first's cost.
struct Grid {
  static constexpr int kMax = 6;
  ta::System sys;
  ta::ProcId pa, pb;
  ta::VarId a, b;
  ta::ClockId t = 0;

  explicit Grid(bool costClock = false) {
    a = sys.addVar("a", 0);
    b = sys.addVar("b", 0);
    pa = sys.addAutomaton("A");
    pb = sys.addAutomaton("B");
    const ta::ClockId x = sys.addClock("x");
    const ta::ClockId y = sys.addClock("y");
    if (costClock) t = sys.addClock("t");
    auto& aa = sys.automaton(pa);
    auto& ab = sys.automaton(pb);
    const ta::LocId la = aa.addLocation("l");
    const ta::LocId lb = ab.addLocation("l");
    (void)la;
    (void)lb;
    sys.edge(pa, 0, 0).guard(sys.rd(a) < kMax).when(ccGe(x, 1)).reset(x)
        .assign(a, sys.rd(a) + 1);
    sys.edge(pb, 0, 0).guard(sys.rd(b) < kMax).when(ccGe(y, 1)).reset(y)
        .assign(b, sys.rd(b) + 1);
    sys.finalize();
  }

  [[nodiscard]] Goal corner() {
    return Goal{{}, ((sys.rd(a) == kMax) && (sys.rd(b) == kMax)).ref(), {}};
  }
  [[nodiscard]] Goal unreachable() {
    return Goal{{}, (sys.rd(a) == kMax + 5).ref(), {}};
  }
};

TEST(SearchOptions, AllOrdersAgreeOnReachability) {
  for (const SearchOrder order :
       {SearchOrder::kBfs, SearchOrder::kDfs, SearchOrder::kRandomDfs}) {
    Grid g;
    Options o;
    o.order = order;
    Reachability checker(g.sys, o);
    EXPECT_TRUE(checker.run(g.corner()).reachable)
        << "order " << static_cast<int>(order);
    Grid g2;
    Reachability checker2(g2.sys, o);
    const Result neg = checker2.run(g2.unreachable());
    EXPECT_FALSE(neg.reachable);
    EXPECT_TRUE(neg.exhausted);
  }
}

TEST(SearchOptions, BfsFindsShortestTrace) {
  Grid g;
  Options o;
  o.order = SearchOrder::kBfs;
  Reachability checker(g.sys, o);
  const Result res = checker.run(g.corner());
  ASSERT_TRUE(res.reachable);
  // Shortest path: 2 * kMax steps plus the initial pseudo-step.
  EXPECT_EQ(res.trace.steps.size(), 2u * Grid::kMax + 1);
}

TEST(SearchOptions, DfsTraceIsValidEvenIfLonger) {
  Grid g;
  Options o;
  o.order = SearchOrder::kDfs;
  Reachability checker(g.sys, o);
  const Result res = checker.run(g.corner());
  ASSERT_TRUE(res.reachable);
  EXPECT_GE(res.trace.steps.size(), 2u * Grid::kMax + 1);
  std::string err;
  const auto ct = concretize(g.sys, res.trace, &err);
  ASSERT_TRUE(ct.has_value()) << err;
  EXPECT_TRUE(validate(g.sys, *ct, &err)) << err;
}

TEST(SearchOptions, RandomDfsIsDeterministicPerSeed) {
  const auto runWith = [](uint64_t seed) {
    Grid g;
    Options o;
    o.order = SearchOrder::kRandomDfs;
    o.seed = seed;
    Reachability checker(g.sys, o);
    return checker.run(g.corner()).stats.statesExplored;
  };
  EXPECT_EQ(runWith(7), runWith(7));
  EXPECT_EQ(runWith(3), runWith(3));
}

TEST(SearchOptions, DfsReverseChangesExplorationNotAnswer) {
  Grid g;
  Options o;
  o.order = SearchOrder::kDfs;
  o.dfsReverse = true;
  Reachability checker(g.sys, o);
  EXPECT_TRUE(checker.run(g.corner()).reachable);
}

TEST(SearchOptions, BitstateHashingFindsGoal) {
  Grid g;
  Options o;
  o.order = SearchOrder::kDfs;
  o.bitstateHashing = true;
  o.hashBits = 20;
  Reachability checker(g.sys, o);
  const Result res = checker.run(g.corner());
  EXPECT_TRUE(res.reachable);
  EXPECT_EQ(res.stats.storedZones, 0u) << "BSH stores no zones";
}

TEST(SearchOptions, BitstateNegativeIsInconclusive) {
  Grid g;
  Options o;
  o.order = SearchOrder::kDfs;
  o.bitstateHashing = true;
  o.hashBits = 20;
  Reachability checker(g.sys, o);
  const Result res = checker.run(g.unreachable());
  EXPECT_FALSE(res.reachable);
  EXPECT_FALSE(res.exhausted)
      << "a completed bit-state search may have pruned real states";
}

TEST(SearchOptions, TinyHashTableCanPruneTheGoal) {
  // With a 2^3-bit table nearly every state collides; the search may
  // or may not reach the corner, but it must terminate and must not
  // claim exhaustiveness.
  Grid g;
  Options o;
  o.order = SearchOrder::kDfs;
  o.bitstateHashing = true;
  o.hashBits = 3;
  Reachability checker(g.sys, o);
  const Result res = checker.run(g.corner());
  EXPECT_FALSE(res.exhausted);
}

TEST(SearchOptions, TimeCutoffReported) {
  Grid g;
  Options o;
  o.maxSeconds = 1e-9;
  Reachability checker(g.sys, o);
  const Result res = checker.run(g.corner());
  EXPECT_FALSE(res.reachable);
  EXPECT_EQ(res.stats.cutoff, Cutoff::kTime);
  EXPECT_FALSE(res.exhausted);
}

TEST(SearchOptions, StateCutoffReported) {
  // maxStates means the same on every engine: the search stops once it
  // has expanded more than maxStates states, so a sequential engine
  // expands exactly maxStates + 1.
  for (const SearchOrder order :
       {SearchOrder::kBfs, SearchOrder::kDfs, SearchOrder::kRandomDfs}) {
    Grid g;
    Options o;
    o.order = order;
    o.maxStates = 5;
    Reachability checker(g.sys, o);
    const Result res = checker.run(g.corner());
    EXPECT_FALSE(res.reachable) << "order " << static_cast<int>(order);
    EXPECT_EQ(res.stats.cutoff, Cutoff::kStates)
        << "order " << static_cast<int>(order);
    EXPECT_EQ(res.stats.statesExplored, o.maxStates + 1)
        << "order " << static_cast<int>(order);
  }
  Grid g(/*costClock=*/true);
  Options o;
  o.maxStates = 5;
  BestFirst bf(g.sys, o, g.t);
  const BestFirstResult res = bf.run(g.corner());
  EXPECT_FALSE(res.reachable) << "best-first";
  EXPECT_FALSE(res.optimal) << "best-first";
  EXPECT_EQ(res.stats.cutoff, Cutoff::kStates) << "best-first";
  EXPECT_EQ(res.stats.statesExplored, o.maxStates + 1) << "best-first";
}

TEST(SearchOptions, MemoryCutoffReported) {
  Grid g;
  Options o;
  o.maxMemoryBytes = 512;  // absurdly small
  Reachability checker(g.sys, o);
  const Result res = checker.run(g.corner());
  EXPECT_FALSE(res.reachable);
  EXPECT_EQ(res.stats.cutoff, Cutoff::kMemory);
}

TEST(SearchOptions, StatsAreMonotone) {
  Grid g;
  Options o;
  Reachability checker(g.sys, o);
  const Result res = checker.run(g.corner());
  EXPECT_GT(res.stats.statesExplored, 0u);
  EXPECT_GE(res.stats.statesGenerated, res.stats.statesExplored - 1);
  EXPECT_GT(res.stats.peakBytes, 0u);
  EXPECT_GE(res.stats.seconds, 0.0);
}

TEST(SearchOptions, ExtrapolationOffDivergesWithoutBound) {
  // A single clock reset-loop: without extrapolation every delay bound
  // creates a fresh zone, so the search only terminates via cutoff.
  ta::System sys;
  const ta::ClockId x = sys.addClock("x");
  const ta::ClockId y = sys.addClock("y");
  (void)y;  // after k loop iterations y - x == k: pairwise incomparable
  const ta::ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const ta::LocId l = a.addLocation("l");
  a.setInvariant(l, {ccLe(x, 1)});  // each iteration takes exactly 1
  sys.edge(p, 0, 0).when(ccGe(x, 1)).reset(x);
  sys.finalize();
  Options o;
  o.extrapolation = Extrapolation::kNone;
  // The active-clock reduction would free the dead clock y and mask
  // the divergence this test demonstrates.
  o.activeClockReduction = false;
  o.maxStates = 2000;
  Reachability checker(sys, o);
  Goal never{{}, (sys.lit(0)).ref(), {}};
  const Result res = checker.run(never);
  EXPECT_EQ(res.stats.cutoff, Cutoff::kStates)
      << "without extrapolation the zone graph must be infinite here";

  // With extrapolation the same search exhausts in a handful of states.
  ta::System sys2;
  const ta::ClockId x2 = sys2.addClock("x");
  (void)sys2.addClock("y");
  const ta::ProcId p2 = sys2.addAutomaton("P");
  const ta::LocId l2 = sys2.automaton(p2).addLocation("l");
  sys2.automaton(p2).setInvariant(l2, {ccLe(x2, 1)});
  sys2.edge(p2, 0, 0).when(ccGe(x2, 1)).reset(x2);
  sys2.finalize();
  Options o2;
  o2.activeClockReduction = false;
  o2.maxStates = 2000;
  Reachability checker2(sys2, o2);
  Goal never2{{}, (sys2.lit(0)).ref(), {}};
  const Result res2 = checker2.run(never2);
  EXPECT_TRUE(res2.exhausted);
  EXPECT_LT(res2.stats.statesExplored, 10u);
}

}  // namespace
}  // namespace engine
