// Parallel-vs-sequential equivalence of the BFS engine: identical
// reachable/exhausted verdicts and valid, replayable traces across
// threads in {1, 2, 4} on Fischer's protocol and small batch-plant
// models, including deadlock goals and cutoff paths.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/reachability.hpp"
#include "engine/trace.hpp"
#include "plant/plant.hpp"
#include "ta/system.hpp"

namespace engine {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 4};

Options bfsOptions(size_t threads) {
  Options o;
  o.order = SearchOrder::kBfs;
  o.threads = threads;
  o.maxSeconds = 60.0;
  return o;
}

/// Fischer's timed mutual-exclusion protocol (see examples/fischer.cpp):
/// mutual exclusion holds iff K >= D.  The waiting->critical guard uses
/// the weak `x >= K+1` (equivalent to `x > K` for the violation
/// condition) so witness zones have only weak bounds and concretize.
struct Fischer {
  ta::System sys;
  std::vector<ta::ProcId> procs;
  std::vector<ta::LocId> critical;

  Fischer(int n, int d, int k) {
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
      sys.edge(p, trying, waiting).when(ta::ccLe(x, d)).reset(x).assign(id, i);
      sys.edge(p, waiting, crit).when(ta::ccGe(x, k + 1)).guard(sys.rd(id) == i);
      sys.edge(p, waiting, idle).guard(sys.rd(id) != i);
      sys.edge(p, crit, idle).assign(id, 0);
    }
    sys.finalize();
  }

  [[nodiscard]] Goal violation() const {
    Goal g;
    g.locations = {{procs[0], critical[0]}, {procs[1], critical[1]}};
    return g;
  }
};

void expectValidTrace(const ta::System& sys, const Result& res,
                      const std::string& what) {
  std::string err;
  const auto ct = concretize(sys, res.trace, &err);
  ASSERT_TRUE(ct.has_value()) << what << ": " << err;
  EXPECT_TRUE(validate(sys, *ct, &err)) << what << ": " << err;
}

TEST(ParallelReachability, FischerViolationFoundAtEveryThreadCount) {
  // K < D: mutual exclusion is violated; every thread count must find
  // it and produce a replayable witness.
  for (const size_t t : kThreadCounts) {
    Fischer m(3, 4, 1);
    Reachability checker(m.sys, bfsOptions(t));
    const Result res = checker.run(m.violation());
    ASSERT_TRUE(res.reachable) << t << " threads";
    ASSERT_FALSE(res.trace.steps.empty()) << t << " threads";
    expectValidTrace(m.sys, res, std::to_string(t) + " threads");
  }
}

TEST(ParallelReachability, FischerSafetyExhaustedAtEveryThreadCount) {
  // K >= D: unreachable, and every thread count must prove it by
  // exhausting the state space.
  for (const size_t t : kThreadCounts) {
    Fischer m(4, 2, 3);
    Reachability checker(m.sys, bfsOptions(t));
    const Result res = checker.run(m.violation());
    EXPECT_FALSE(res.reachable) << t << " threads";
    EXPECT_TRUE(res.exhausted) << t << " threads";
    EXPECT_EQ(res.stats.cutoff, Cutoff::kNone) << t << " threads";
  }
}

TEST(ParallelReachability, GuidedPlantScheduleAgrees) {
  for (const size_t t : kThreadCounts) {
    plant::PlantConfig cfg;
    cfg.order = plant::standardOrder(2);
    cfg.guides = plant::GuideLevel::kAll;
    const auto p = plant::buildPlant(cfg);
    Reachability checker(p->sys, bfsOptions(t));
    const Result res = checker.run(p->goal);
    ASSERT_TRUE(res.reachable) << t << " threads";
    expectValidTrace(p->sys, res, std::to_string(t) + " threads");
  }
}

TEST(ParallelReachability, DeadlockGoalTimelockAgrees) {
  // Invariant x <= 3 with the only exit requiring x >= 5: a timelock
  // the deadlock goal must find at every thread count.
  for (const size_t t : kThreadCounts) {
    ta::System sys;
    const ta::ClockId x = sys.addClock("x");
    const ta::ProcId p = sys.addAutomaton("P");
    auto& a = sys.automaton(p);
    const ta::LocId l0 = a.addLocation("l0");
    const ta::LocId l1 = a.addLocation("l1");
    a.setInvariant(l0, {ta::ccLe(x, 3)});
    sys.edge(p, l0, l1).when(ta::ccGe(x, 5));
    sys.finalize();
    Goal g;
    g.deadlock = true;
    Reachability checker(sys, bfsOptions(t));
    const Result res = checker.run(g);
    EXPECT_TRUE(res.reachable) << t << " threads";
  }
}

TEST(ParallelReachability, DeadlockFreeModelExhaustsEverywhere) {
  // A self-loop always has a successor: no deadlock at any thread count.
  for (const size_t t : kThreadCounts) {
    ta::System sys;
    const ta::ProcId p = sys.addAutomaton("P");
    (void)sys.automaton(p).addLocation("l");
    sys.edge(p, 0, 0);
    sys.finalize();
    Goal g;
    g.deadlock = true;
    Reachability checker(sys, bfsOptions(t));
    const Result res = checker.run(g);
    EXPECT_FALSE(res.reachable) << t << " threads";
    EXPECT_TRUE(res.exhausted) << t << " threads";
  }
}

TEST(ParallelReachability, StatesCutoffAgrees) {
  // The unguided plant blows any small state budget: every thread count
  // must report the states cutoff, not reachable, not exhausted.
  for (const size_t t : kThreadCounts) {
    plant::PlantConfig cfg;
    cfg.order = plant::standardOrder(2);
    cfg.guides = plant::GuideLevel::kNone;
    const auto p = plant::buildPlant(cfg);
    Options o = bfsOptions(t);
    o.maxStates = 500;
    Reachability checker(p->sys, o);
    const Result res = checker.run(p->goal);
    EXPECT_FALSE(res.reachable) << t << " threads";
    EXPECT_FALSE(res.exhausted) << t << " threads";
    EXPECT_EQ(res.stats.cutoff, Cutoff::kStates) << t << " threads";
  }
}

TEST(ParallelReachability, MemoryCutoffAgrees) {
  for (const size_t t : kThreadCounts) {
    plant::PlantConfig cfg;
    cfg.order = plant::standardOrder(2);
    cfg.guides = plant::GuideLevel::kNone;
    const auto p = plant::buildPlant(cfg);
    Options o = bfsOptions(t);
    o.maxMemoryBytes = 512 * 1024;
    Reachability checker(p->sys, o);
    const Result res = checker.run(p->goal);
    EXPECT_FALSE(res.reachable) << t << " threads";
    EXPECT_FALSE(res.exhausted) << t << " threads";
    EXPECT_EQ(res.stats.cutoff, Cutoff::kMemory) << t << " threads";
  }
}

TEST(ParallelReachability, PerThreadStatsAreConsistent) {
  Fischer m(4, 2, 3);
  Options o = bfsOptions(4);
  o.shardBits = 3;
  Reachability checker(m.sys, o);
  const Result res = checker.run(m.violation());
  ASSERT_EQ(res.stats.perThreadExplored.size(), 4u);
  size_t sum = 0;
  for (const size_t n : res.stats.perThreadExplored) sum += n;
  EXPECT_EQ(sum, res.stats.statesExplored);
  EXPECT_GT(res.stats.statesExplored, 0u);
}

TEST(ParallelReachability, SingleShardStillCorrect) {
  // shardBits == 0 funnels every insert through one lock — maximal
  // contention, same verdict.
  for (const size_t t : kThreadCounts) {
    Fischer m(3, 4, 1);
    Options o = bfsOptions(t);
    o.shardBits = 0;
    Reachability checker(m.sys, o);
    const Result res = checker.run(m.violation());
    EXPECT_TRUE(res.reachable) << t << " threads";
  }
}

}  // namespace
}  // namespace engine
