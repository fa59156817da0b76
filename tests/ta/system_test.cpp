// Tests of System construction, finalize() derivations (max bounds,
// active clocks, channel receiver index) and pretty-printing.
#include <gtest/gtest.h>

#include "ta/printer.hpp"
#include "ta/system.hpp"

namespace ta {
namespace {

TEST(System, ClockIdsAreOneBased) {
  System sys;
  EXPECT_EQ(sys.addClock("x"), 1);
  EXPECT_EQ(sys.addClock("y"), 2);
  EXPECT_EQ(sys.numClocks(), 2u);
  EXPECT_EQ(sys.dbmDimension(), 3u);
  EXPECT_EQ(sys.clockName(1), "x");
  EXPECT_EQ(sys.clockName(2), "y");
}

TEST(System, ArraysFlattenWithCellNames) {
  System sys;
  const VarId a = sys.addArray("pos", 3, 7);
  EXPECT_EQ(sys.numVars(), 3u);
  EXPECT_EQ(sys.varName(a), "pos[0]");
  EXPECT_EQ(sys.varName(a + 2), "pos[2]");
  EXPECT_EQ(sys.initialVars(), (std::vector<int32_t>{7, 7, 7}));
  sys.setVarInit(a + 1, 9);
  EXPECT_EQ(sys.initialVars()[1], 9);
}

TEST(System, MaxBoundsFromGuardsInvariantsAndResets) {
  System sys;
  const ClockId x = sys.addClock("x");
  const ClockId y = sys.addClock("y");
  const ClockId z = sys.addClock("z");
  const ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const LocId l0 = a.addLocation("l0");
  const LocId l1 = a.addLocation("l1");
  a.setInvariant(l0, {ccLe(x, 11)});
  sys.edge(p, l0, l1).when(ccGe(y, 4)).reset(z, 9);
  sys.finalize();
  const auto& mb = sys.maxBounds();
  EXPECT_EQ(mb[0], 0);
  EXPECT_EQ(mb[static_cast<size_t>(x)], 11);
  EXPECT_EQ(mb[static_cast<size_t>(y)], 4);
  EXPECT_EQ(mb[static_cast<size_t>(z)], 9) << "reset values count";
}

TEST(System, UnusedClockHasNoBound) {
  System sys;
  (void)sys.addClock("dead");
  const ProcId p = sys.addAutomaton("P");
  (void)sys.automaton(p).addLocation("l");
  sys.finalize();
  EXPECT_EQ(sys.maxBounds()[1], -1);
}

TEST(System, ActiveClockFixpoint) {
  // l0 --(reset x)--> l1 --(x >= 3)--> l2.
  // x is active at l1 (tested before any reset) but NOT at l0 (reset on
  // the only outgoing edge) and not at l2 (never used again).
  System sys;
  const ClockId x = sys.addClock("x");
  const ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const LocId l0 = a.addLocation("l0");
  const LocId l1 = a.addLocation("l1");
  const LocId l2 = a.addLocation("l2");
  sys.edge(p, l0, l1).reset(x);
  sys.edge(p, l1, l2).when(ccGe(x, 3));
  sys.finalize();
  EXPECT_TRUE(a.activeClocks(l0).empty());
  EXPECT_EQ(a.activeClocks(l1), std::vector<ClockId>{x});
  EXPECT_TRUE(a.activeClocks(l2).empty());
}

TEST(System, ActiveClockPropagatesThroughLoops) {
  // A loop where x is tested two hops away without an intervening
  // reset: activity must propagate backwards through the cycle.
  System sys;
  const ClockId x = sys.addClock("x");
  const ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const LocId l0 = a.addLocation("l0");
  const LocId l1 = a.addLocation("l1");
  sys.edge(p, l0, l1);
  sys.edge(p, l1, l0).when(ccGe(x, 2));
  sys.finalize();
  EXPECT_EQ(a.activeClocks(l0), std::vector<ClockId>{x});
  EXPECT_EQ(a.activeClocks(l1), std::vector<ClockId>{x});
}

TEST(System, ReceiverIndexBuilt) {
  System sys;
  const ChanId c = sys.addChannel("c");
  const ChanId d = sys.addChannel("d");
  const ProcId p1 = sys.addAutomaton("P1");
  const ProcId p2 = sys.addAutomaton("P2");
  auto& a1 = sys.automaton(p1);
  auto& a2 = sys.automaton(p2);
  const LocId x0 = a1.addLocation("x0");
  const LocId x1 = a1.addLocation("x1");
  const LocId y0 = a2.addLocation("y0");
  const LocId y1 = a2.addLocation("y1");
  sys.edge(p1, x0, x1).send(c);
  sys.edge(p2, y0, y1).receive(c);
  sys.edge(p2, y1, y0).receive(d);
  sys.finalize();
  ASSERT_EQ(sys.receivers(c).size(), 1u);
  EXPECT_EQ(sys.receivers(c)[0].first, p2);
  ASSERT_EQ(sys.receivers(d).size(), 1u);
}

TEST(System, GuardConjoins) {
  System sys;
  const VarId v = sys.addVar("v", 3);
  const ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const LocId l0 = a.addLocation("l0");
  const LocId l1 = a.addLocation("l1");
  auto e = sys.edge(p, l0, l1);
  e.guard(sys.rd(v) >= 2);
  e.guard(sys.rd(v) <= 5);
  sys.finalize();
  const Edge& edge = a.edges()[0];
  std::vector<int32_t> vars{3};
  EXPECT_TRUE(sys.pool().evalBool(edge.guard, vars));
  vars[0] = 1;
  EXPECT_FALSE(sys.pool().evalBool(edge.guard, vars));
  vars[0] = 6;
  EXPECT_FALSE(sys.pool().evalBool(edge.guard, vars));
}

TEST(System, DumpShowsStructure) {
  System sys;
  const ClockId x = sys.addClock("x");
  const VarId v = sys.addVar("flag", 0);
  const ChanId c = sys.addChannel("go");
  const ProcId p = sys.addAutomaton("proc");
  auto& a = sys.automaton(p);
  const LocId l0 = a.addLocation("start");
  const LocId l1 = a.addLocation("stop", false, true);
  a.setInvariant(l0, {ccLe(x, 9)});
  sys.edge(p, l0, l1).when(ccGe(x, 2)).send(c).reset(x).assign(v, 1);
  sys.finalize();
  const std::string d = printModel(sys, {});
  EXPECT_NE(d.find("process proc"), std::string::npos);
  EXPECT_NE(d.find("loc start { inv x <= 9; }"), std::string::npos);
  EXPECT_NE(d.find("committed loc stop"), std::string::npos);
  EXPECT_NE(d.find("guard x >= 2"), std::string::npos);
  EXPECT_NE(d.find("sync go!"), std::string::npos);
  EXPECT_NE(d.find("reset x;"), std::string::npos);
  EXPECT_NE(d.find("assign flag = 1"), std::string::npos);
}

TEST(System, PrintClockAtomForms) {
  System sys;
  const ClockId x = sys.addClock("x");
  const ClockId y = sys.addClock("y");
  EXPECT_EQ(printClockAtom(sys, ccLe(x, 5)), "x <= 5");
  EXPECT_EQ(printClockAtom(sys, ccLt(x, 5)), "x < 5");
  EXPECT_EQ(printClockAtom(sys, ccGe(y, 2)), "y >= 2");
  EXPECT_EQ(printClockAtom(sys, ccGt(y, 2)), "y > 2");
  EXPECT_EQ(printClockAtom(sys, ccDiffLe(x, y, 3)), "x - y <= 3");
}

TEST(System, FindLocationByName) {
  System sys;
  const ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const LocId l0 = a.addLocation("alpha");
  const LocId l1 = a.addLocation("beta");
  EXPECT_EQ(a.findLocation("alpha"), l0);
  EXPECT_EQ(a.findLocation("beta"), l1);
  EXPECT_EQ(a.findLocation("gamma"), -1);
}

}  // namespace
}  // namespace ta
