// Parallel-vs-sequential equivalence of the depth-first engine: the
// work-stealing explorer must report the same reachable/exhausted
// verdicts as sequential DFS across threads in {1, 2, 4} on Fischer's
// protocol and small batch-plant models, deadlock goals included; all
// three cutoff paths must fire; and positive verdicts must validate.
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

Options dfsOptions(size_t threads) {
  Options o;
  o.order = SearchOrder::kRandomDfs;
  o.seed = 1;
  o.threads = threads;
  o.maxSeconds = 60.0;
  return o;
}

/// Fischer's protocol (weak-bound variant, as in
/// parallel_reachability_test.cpp): mutual exclusion holds iff K >= D.
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

TEST(ParallelDfs, FischerViolationFoundAtEveryThreadCount) {
  for (const size_t t : kThreadCounts) {
    Fischer m(3, 4, 1);
    Reachability checker(m.sys, dfsOptions(t));
    const Result res = checker.run(m.violation());
    const std::string what = std::to_string(t) + " threads";
    ASSERT_TRUE(res.reachable) << what;
    ASSERT_FALSE(res.trace.steps.empty()) << what;
    expectValidTrace(m.sys, res, what);
  }
}

TEST(ParallelDfs, FischerSafetyExhaustedAtEveryThreadCount) {
  for (const size_t t : kThreadCounts) {
    Fischer m(4, 2, 3);
    Reachability checker(m.sys, dfsOptions(t));
    const Result res = checker.run(m.violation());
    const std::string what = std::to_string(t) + " threads";
    EXPECT_FALSE(res.reachable) << what;
    EXPECT_TRUE(res.exhausted) << what;
    EXPECT_EQ(res.stats.cutoff, Cutoff::kNone) << what;
  }
}

TEST(ParallelDfs, GuidedPlantScheduleAgrees) {
  for (const size_t t : kThreadCounts) {
    plant::PlantConfig cfg;
    cfg.order = plant::standardOrder(2);
    cfg.guides = plant::GuideLevel::kAll;
    const auto p = plant::buildPlant(cfg);
    Reachability checker(p->sys, dfsOptions(t));
    const Result res = checker.run(p->goal);
    const std::string what = std::to_string(t) + " threads";
    ASSERT_TRUE(res.reachable) << what;
    expectValidTrace(p->sys, res, what);
  }
}

TEST(ParallelDfs, DfsDeclarationOrderAgrees) {
  // Work-stealing with the plain (declaration successor order) kDfs.
  for (const size_t t : kThreadCounts) {
    Fischer m(3, 4, 1);
    Options o = dfsOptions(t);
    o.order = SearchOrder::kDfs;
    Reachability checker(m.sys, o);
    const Result res = checker.run(m.violation());
    ASSERT_TRUE(res.reachable) << t << " threads";
    expectValidTrace(m.sys, res, std::to_string(t) + " threads");
  }
}

TEST(ParallelDfs, DeadlockGoalTimelockAgrees) {
  // Invariant x <= 3 with the only exit requiring x >= 5: a timelock
  // every configuration must find.
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
    Reachability checker(sys, dfsOptions(t));
    const Result res = checker.run(g);
    EXPECT_TRUE(res.reachable) << t << " threads";
  }
}

TEST(ParallelDfs, DeadlockFreeModelExhaustsEverywhere) {
  for (const size_t t : kThreadCounts) {
    ta::System sys;
    const ta::ProcId p = sys.addAutomaton("P");
    (void)sys.automaton(p).addLocation("l");
    sys.edge(p, 0, 0);
    sys.finalize();
    Goal g;
    g.deadlock = true;
    Reachability checker(sys, dfsOptions(t));
    const Result res = checker.run(g);
    EXPECT_FALSE(res.reachable) << t << " threads";
    EXPECT_TRUE(res.exhausted) << t << " threads";
  }
}

TEST(ParallelDfs, StatesCutoffAgrees) {
  for (const size_t t : kThreadCounts) {
    plant::PlantConfig cfg;
    cfg.order = plant::standardOrder(2);
    cfg.guides = plant::GuideLevel::kNone;
    const auto p = plant::buildPlant(cfg);
    Options o = dfsOptions(t);
    o.maxStates = 500;
    Reachability checker(p->sys, o);
    const Result res = checker.run(p->goal);
    const std::string what = std::to_string(t) + " threads";
    EXPECT_FALSE(res.reachable) << what;
    EXPECT_FALSE(res.exhausted) << what;
    EXPECT_EQ(res.stats.cutoff, Cutoff::kStates) << what;
  }
}

TEST(ParallelDfs, MemoryCutoffAgrees) {
  for (const size_t t : kThreadCounts) {
    plant::PlantConfig cfg;
    cfg.order = plant::standardOrder(2);
    cfg.guides = plant::GuideLevel::kNone;
    const auto p = plant::buildPlant(cfg);
    Options o = dfsOptions(t);
    o.maxMemoryBytes = 512 * 1024;
    Reachability checker(p->sys, o);
    const Result res = checker.run(p->goal);
    const std::string what = std::to_string(t) + " threads";
    EXPECT_FALSE(res.reachable) << what;
    EXPECT_FALSE(res.exhausted) << what;
    EXPECT_EQ(res.stats.cutoff, Cutoff::kMemory) << what;
  }
}

TEST(ParallelDfs, TimeCutoffAgrees) {
  for (const size_t t : kThreadCounts) {
    plant::PlantConfig cfg;
    cfg.order = plant::standardOrder(3);
    cfg.guides = plant::GuideLevel::kNone;
    const auto p = plant::buildPlant(cfg);
    Options o = dfsOptions(t);
    // The unguided 3-batch space takes minutes to exhaust; a
    // millisecond budget must abort with the time cutoff.
    o.maxSeconds = 0.001;
    Reachability checker(p->sys, o);
    const Result res = checker.run(p->goal);
    const std::string what = std::to_string(t) + " threads";
    EXPECT_FALSE(res.exhausted) << what;
    if (!res.reachable) {
      EXPECT_EQ(res.stats.cutoff, Cutoff::kTime) << what;
    }
  }
}

TEST(ParallelDfs, PerThreadStatsAndPeakStackDepth) {
  // peakStackDepth must aggregate the per-worker maximum (regression:
  // it stayed zero), per-thread explored counts must be reported like
  // the BFS path does, and their sum must equal statesExplored.
  Fischer m(4, 2, 3);
  Reachability checker(m.sys, dfsOptions(4));
  const Result res = checker.run(m.violation());
  ASSERT_EQ(res.stats.perThreadExplored.size(), 4u);
  size_t sum = 0;
  for (const size_t n : res.stats.perThreadExplored) sum += n;
  EXPECT_EQ(sum, res.stats.statesExplored);
  EXPECT_GT(res.stats.statesExplored, 0u);
  // The Fischer state graph is deeper than one state, and every
  // parallel worker tracks its own stack/trace depth.
  EXPECT_GT(res.stats.peakStackDepth, 1u);
}

TEST(ParallelDfs, FinishedSubtreesReturnTheirZones) {
  // A frame's zone goes back to the pool once its whole subtree is
  // expanded, so after an exhaustive search no frame holds a zone: the
  // final byte count falls below the high-water mark, which counts the
  // zones that were live at the peak.
  for (const size_t t : {size_t{2}, size_t{4}}) {
    Fischer m(4, 2, 3);
    Reachability checker(m.sys, dfsOptions(t));
    const Result res = checker.run(m.violation());
    const std::string what = std::to_string(t) + " threads";
    ASSERT_TRUE(res.exhausted) << what;
    EXPECT_LT(res.stats.bytesStored, res.stats.peakBytes) << what;
  }
}

TEST(ParallelDfs, WorkStealingSingleShardStillCorrect) {
  // shardBits == 0 funnels every insert through one lock — maximal
  // contention, same verdict.
  for (const size_t t : kThreadCounts) {
    Fischer m(3, 4, 1);
    Options o = dfsOptions(t);
    o.shardBits = 0;
    Reachability checker(m.sys, o);
    const Result res = checker.run(m.violation());
    EXPECT_TRUE(res.reachable) << t << " threads";
  }
}

TEST(ParallelDfs, BitstateParallelDfsFindsViolation) {
  // Shared atomic bit table: a positive verdict is still conclusive and
  // must validate; negatives stay inconclusive (exhausted == false).
  for (const size_t t : kThreadCounts) {
    Fischer m(3, 4, 1);
    Options o = dfsOptions(t);
    o.bitstateHashing = true;
    o.hashBits = 18;
    Reachability checker(m.sys, o);
    const Result res = checker.run(m.violation());
    ASSERT_TRUE(res.reachable) << t << " threads";
    expectValidTrace(m.sys, res, std::to_string(t) + " threads (bitstate)");
  }
}

}  // namespace
}  // namespace engine
