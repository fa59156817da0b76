// Differential tests of the best-first optimizer against the
// binary-search oracle: both must report the same optimal makespan —
// on Fischer's protocol (time-to-first-critical) and on the guided
// batch plant — plus unit coverage of the anytime incumbent stream,
// the initial-incumbent contract, and soft-guide penalties.
#include <vector>

#include <gtest/gtest.h>

#include "engine/best_first.hpp"
#include "engine/reachability.hpp"
#include "engine/trace.hpp"
#include "plant/plant.hpp"
#include "synthesis/schedule.hpp"
#include "ta/system.hpp"

namespace {

/// Fischer's protocol (the examples/fischer.cpp model) with an added
/// never-reset makespan clock. Optimal time to the first critical
/// section is K+1: the `x > K` guard is strict, so the integer
/// adjustment must surface.
struct Fischer {
  ta::System sys;
  ta::ClockId gtime;
  std::vector<ta::ProcId> procs;
  std::vector<ta::LocId> critical;

  Fischer(int n, int d, int k) {
    gtime = sys.addClock("g");
    const ta::VarId id = sys.addVar("id", 0);
    for (int i = 1; i <= n; ++i) {
      const ta::ClockId x = sys.addClock("x" + std::to_string(i));
      const ta::ProcId p = sys.addAutomaton("P" + std::to_string(i));
      procs.push_back(p);
      auto& a = sys.automaton(p);
      const ta::LocId idle = a.addLocation("idle");
      const ta::LocId trying = a.addLocation("trying");
      const ta::LocId waiting = a.addLocation("waiting");
      const ta::LocId crit = a.addLocation("critical");
      critical.push_back(crit);
      a.setInvariant(trying, {ta::ccLe(x, d)});
      sys.edge(p, idle, trying).guard(sys.rd(id) == 0).reset(x);
      sys.edge(p, trying, waiting)
          .when(ta::ccLe(x, d))
          .reset(x)
          .assign(id, i);
      sys.edge(p, waiting, crit)
          .when(ta::ccGt(x, k))
          .guard(sys.rd(id) == i);
      sys.edge(p, waiting, idle).guard(sys.rd(id) != i);
      sys.edge(p, crit, idle).assign(id, 0);
    }
    sys.finalize();
  }
};

TEST(BestFirstDifferential, FischerTimeToCriticalMatchesBinarySearch) {
  for (const int k : {2, 3, 5}) {
    Fischer model(3, 2, k);
    engine::Goal goal;
    goal.locations = {{model.procs[0], model.critical[0]}};
    synthesis::OptimizeOptions oo;
    oo.optimizer = synthesis::Optimizer::kBinary;
    const auto binary = synthesis::optimizeMakespan(model.sys, goal,
                                                    model.gtime, oo);
    oo.optimizer = synthesis::Optimizer::kBestFirst;
    const auto best = synthesis::optimizeMakespan(model.sys, goal,
                                                  model.gtime, oo);
    ASSERT_TRUE(binary.feasible && binary.optimal) << "K=" << k;
    ASSERT_TRUE(best.feasible && best.optimal) << "K=" << k;
    EXPECT_EQ(best.optimalMakespan, binary.optimalMakespan) << "K=" << k;
    // The strict `x > K` guard: optimum is K+1 exactly.
    EXPECT_EQ(best.optimalMakespan, k + 1) << "K=" << k;
    EXPECT_EQ(best.runs, 1u);
    EXPECT_GT(binary.runs, 1u);
  }
}

std::vector<std::vector<ta::LocId>> plantTargets(const plant::Plant& p) {
  std::vector<std::vector<ta::LocId>> targets(p.sys.numAutomata());
  for (size_t i = 0; i < p.sys.numAutomata(); ++i) {
    const ta::Automaton& a = p.sys.automaton(static_cast<ta::ProcId>(i));
    for (const char* name : {"done", "alldone"}) {
      const ta::LocId l = a.findLocation(name);
      if (l >= 0) {
        targets[i].push_back(l);
        break;
      }
    }
  }
  return targets;
}

TEST(BestFirstDifferential, GuidedPlantMakespanMatchesBinarySearch) {
  // The guided 45-batch workload is the bench gate
  // (bench/bestfirst_opt); in-test we pin the same property at sizes
  // the binary oracle exhausts in seconds.
  for (const int batches : {1, 2}) {
    plant::PlantConfig cfg;
    cfg.order = plant::standardOrder(batches);
    cfg.makespanClock = true;
    const auto p = plant::buildPlant(cfg);

    synthesis::OptimizeOptions oo;
    oo.engine.order = engine::SearchOrder::kDfs;
    oo.engine.dfsReverse = true;
    oo.engine.maxSeconds = 120.0;
    oo.heuristicTargets = plantTargets(*p);
    oo.optimizer = synthesis::Optimizer::kBinary;
    const auto binary =
        synthesis::optimizeMakespan(p->sys, p->goal, p->makespan, oo);
    oo.optimizer = synthesis::Optimizer::kBestFirst;
    const auto best =
        synthesis::optimizeMakespan(p->sys, p->goal, p->makespan, oo);

    ASSERT_TRUE(binary.feasible && binary.optimal) << batches << " batches";
    ASSERT_TRUE(best.feasible && best.optimal) << batches << " batches";
    // The probes' peak memory is folded into the binary arm's stats.
    EXPECT_GT(binary.stats.peakBytes, 0u) << batches << " batches";
    EXPECT_EQ(best.optimalMakespan, binary.optimalMakespan)
        << batches << " batches";
    EXPECT_EQ(best.cost, best.optimalMakespan) << batches << " batches";
    // Incumbents improve monotonically and end at the optimum.
    for (size_t i = 1; i < best.incumbents.size(); ++i) {
      EXPECT_LT(best.incumbents[i], best.incumbents[i - 1]);
    }
    ASSERT_FALSE(best.incumbents.empty());
    EXPECT_EQ(best.incumbents.back(), best.optimalMakespan);
    // The optimal schedule concretized and projected.
    EXPECT_EQ(best.schedule.makespan, best.optimalMakespan);
    EXPECT_FALSE(best.schedule.items.empty());
  }
}

TEST(BestFirst, AnytimeCallbackStreamsImprovingIncumbents) {
  plant::PlantConfig cfg;
  cfg.order = plant::standardOrder(2);
  cfg.makespanClock = true;
  const auto p = plant::buildPlant(cfg);
  engine::Options opts;
  engine::BestFirst bf(p->sys, opts, p->makespan);
  std::vector<int64_t> seen;
  bf.onIncumbent([&](int64_t cost, const engine::SymbolicTrace& trace) {
    seen.push_back(cost);
    EXPECT_FALSE(trace.steps.empty());
  });
  const auto res = bf.run(p->goal);
  ASSERT_TRUE(res.reachable);
  ASSERT_TRUE(res.optimal);
  ASSERT_FALSE(seen.empty());
  for (size_t i = 1; i < seen.size(); ++i) EXPECT_LT(seen[i], seen[i - 1]);
  EXPECT_EQ(seen.back(), res.cost);
  EXPECT_EQ(seen, res.stats.incumbentCosts);
}

TEST(BestFirst, InitialIncumbentPrunesOnlyStrictlyWorseSchedules) {
  plant::PlantConfig cfg;
  cfg.order = plant::standardOrder(1);
  cfg.makespanClock = true;
  const auto p = plant::buildPlant(cfg);
  engine::Options opts;
  engine::BestFirst baseline(p->sys, opts, p->makespan);
  const auto free = baseline.run(p->goal);
  ASSERT_TRUE(free.reachable && free.optimal);

  // Bootstrapping with the optimum itself: no strictly cheaper schedule
  // exists, so the run proves the bound optimal without finding one.
  engine::BestFirst bounded(p->sys, opts, p->makespan);
  bounded.setInitialIncumbent(free.cost);
  const auto res = bounded.run(p->goal);
  EXPECT_FALSE(res.reachable);
  EXPECT_TRUE(res.optimal);

  // Bootstrapping one above: the optimum is strictly cheaper and must
  // be found.
  engine::BestFirst above(p->sys, opts, p->makespan);
  above.setInitialIncumbent(free.cost + 1);
  const auto res2 = above.run(p->goal);
  ASSERT_TRUE(res2.reachable);
  EXPECT_EQ(res2.cost, free.cost);
}

TEST(BestFirst, SoftGuidePenaltyShiftsCostByWeight) {
  // A 1-batch guided schedule pours on track 1 (load balancing pins
  // it), so a "Pour2" penalty costs nothing, while a "Pour" penalty
  // matches the unavoidable Pour1 and must surface as
  // cost = makespan + weight — penalties price transitions, they never
  // forbid them.
  plant::PlantConfig cfg;
  cfg.order = plant::standardOrder(1);
  cfg.makespanClock = true;
  const auto p = plant::buildPlant(cfg);

  engine::Options plain;
  engine::BestFirst base(p->sys, plain, p->makespan);
  const auto free = base.run(p->goal);
  ASSERT_TRUE(free.reachable && free.optimal);

  engine::Options avoidable;
  avoidable.softGuides.push_back({"Pour2", 50});
  engine::BestFirst bf1(p->sys, avoidable, p->makespan);
  const auto res1 = bf1.run(p->goal);
  ASSERT_TRUE(res1.reachable && res1.optimal);
  EXPECT_EQ(res1.cost, free.cost) << "avoidable penalty was paid";

  engine::Options unavoidable;
  unavoidable.softGuides.push_back({"Pour", 50});  // matches Pour1+Pour2
  engine::BestFirst bf2(p->sys, unavoidable, p->makespan);
  const auto res2 = bf2.run(p->goal);
  ASSERT_TRUE(res2.reachable && res2.optimal);
  EXPECT_EQ(res2.cost, free.cost + 50);
}

TEST(BestFirst, UnreachableGoalIsProvenViaDeadEndPruning) {
  // The target location has no incoming edges: the remaining-time table
  // reports the sentinel everywhere, the root is pruned as a dead end,
  // and the run proves unreachability without expanding anything —
  // the heuristic doubling as a relevance filter.
  ta::System sys;
  const ta::ClockId g = sys.addClock("g");
  const ta::ProcId p = sys.addAutomaton("A");
  auto& a = sys.automaton(p);
  const ta::LocId la = a.addLocation("a");
  const ta::LocId lb = a.addLocation("b");
  const ta::LocId island = a.addLocation("island");
  a.setInitial(la);
  sys.edge(p, la, lb);
  sys.finalize();
  engine::Goal goal;
  goal.locations = {{p, island}};
  engine::Options opts;
  engine::BestFirst bf(sys, opts, g);
  const auto res = bf.run(goal);
  EXPECT_FALSE(res.reachable);
  EXPECT_TRUE(res.optimal);
  EXPECT_EQ(res.cost, -1);
  EXPECT_EQ(res.stats.statesExplored, 0u);
}

}  // namespace
