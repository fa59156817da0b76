// Deadlock-goal tests: states with no discrete successor, including the
// batch plant's caster timelocks.
#include <gtest/gtest.h>

#include "engine/reachability.hpp"
#include "plant/plant.hpp"
#include "ta/system.hpp"

namespace engine {
namespace {

using ta::ccGe;
using ta::ccLe;

TEST(Deadlock, TrivialSinkFound) {
  ta::System sys;
  const ta::ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const ta::LocId l0 = a.addLocation("l0");
  const ta::LocId sink = a.addLocation("sink");
  sys.edge(p, l0, sink);
  sys.finalize();
  Goal g;
  g.deadlock = true;
  for (const SearchOrder order : {SearchOrder::kBfs, SearchOrder::kDfs}) {
    Options o;
    o.order = order;
    Reachability checker(sys, o);
    const Result res = checker.run(g);
    ASSERT_TRUE(res.reachable);
    EXPECT_EQ(res.trace.steps.back().d.locs[0], sink);
  }
}

TEST(Deadlock, LivelockIsNotDeadlock) {
  // A self-loop always has a successor: no deadlock anywhere.
  ta::System sys;
  const ta::ProcId p = sys.addAutomaton("P");
  (void)sys.automaton(p).addLocation("l");
  sys.edge(p, 0, 0);
  sys.finalize();
  Goal g;
  g.deadlock = true;
  Reachability checker(sys, Options{});
  const Result res = checker.run(g);
  EXPECT_FALSE(res.reachable);
  EXPECT_TRUE(res.exhausted);
}

TEST(Deadlock, TimelockFound) {
  // Invariant x <= 3 with the only exit requiring x >= 5: at x == 3
  // time stops and nothing can fire.
  ta::System sys;
  const ta::ClockId x = sys.addClock("x");
  const ta::ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const ta::LocId l0 = a.addLocation("l0");
  const ta::LocId l1 = a.addLocation("l1");
  a.setInvariant(l0, {ccLe(x, 3)});
  sys.edge(p, l0, l1).when(ccGe(x, 5));
  sys.finalize();
  Goal g;
  g.deadlock = true;
  Reachability checker(sys, Options{});
  const Result res = checker.run(g);
  EXPECT_TRUE(res.reachable);
}

TEST(Deadlock, ConditionsStillApply) {
  // Two sinks distinguished by a variable; the deadlock goal with a
  // predicate must pick the right one.
  ta::System sys;
  const ta::VarId v = sys.addVar("v", 0);
  const ta::ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const ta::LocId l0 = a.addLocation("l0");
  const ta::LocId s1 = a.addLocation("s1");
  const ta::LocId s2 = a.addLocation("s2");
  sys.edge(p, l0, s1).assign(v, 1);
  sys.edge(p, l0, s2).assign(v, 2);
  sys.finalize();
  Goal g;
  g.deadlock = true;
  g.predicate = (sys.rd(v) == 2).ref();
  Reachability checker(sys, Options{});
  const Result res = checker.run(g);
  ASSERT_TRUE(res.reachable);
  EXPECT_EQ(res.trace.steps.back().d.locs[0], s2);
}

TEST(Deadlock, PlantCasterTimelockReachableUnguided) {
  // In the unguided 1-batch plant the batch can dawdle past its recipe
  // deadlines: the search must find a deadlocked (timelocked) state —
  // these are exactly the states the guides steer around.
  plant::PlantConfig cfg;
  cfg.order = {plant::qualityA()};
  cfg.guides = plant::GuideLevel::kNone;
  const auto p = plant::buildPlant(cfg);
  Goal g;
  g.deadlock = true;
  Options o;
  o.order = SearchOrder::kDfs;
  o.maxSeconds = 30.0;
  Reachability checker(p->sys, o);
  const Result res = checker.run(g);
  EXPECT_TRUE(res.reachable)
      << "the plant has deadlocks (e.g. missed recipe deadlines)";
}

TEST(Deadlock, CompletedPlantIsASinkState) {
  // The guided plant's all-done state has no successors: it shows up as
  // a (benign) deadlock matching the monitor's final location.
  plant::PlantConfig cfg;
  cfg.order = {plant::qualityA()};
  const auto p = plant::buildPlant(cfg);
  Goal g = p->goal;  // monitor at alldone
  g.deadlock = true;
  Options o;
  o.order = SearchOrder::kDfs;
  o.dfsReverse = true;
  o.maxSeconds = 60.0;
  Reachability checker(p->sys, o);
  const Result res = checker.run(g);
  EXPECT_TRUE(res.reachable);
}

}  // namespace
}  // namespace engine
