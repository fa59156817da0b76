// Graceful degradation under a memory budget, uniformly across all five
// engines: sequential BFS, sequential (random) DFS, level-synchronous
// parallel BFS, work-stealing parallel DFS, and cost-optimal
// best-first. A breached maxMemoryBytes must come back as
// Cutoff::kMemory with partial statistics — never as
// "unreachable/exhausted", never as a crash — and a budget large enough
// for the whole search must leave the verdict untouched. Every engine
// fills the same common statistics, whether it finished or was cut off.
#include <cstddef>
#include <string>

#include <gtest/gtest.h>

#include "engine/best_first.hpp"
#include "engine/reachability.hpp"
#include "plant/plant.hpp"

namespace engine {
namespace {

struct Engine {
  const char* name;
  SearchOrder order;
  size_t threads;
  bool bestFirst;
};

constexpr Engine kEngines[] = {
    {"bfs", SearchOrder::kBfs, 1, false},
    {"dfs", SearchOrder::kRandomDfs, 1, false},
    {"parallel-bfs", SearchOrder::kBfs, 4, false},
    {"work-stealing-dfs", SearchOrder::kRandomDfs, 4, false},
    {"best-first", SearchOrder::kBfs, 1, true},
};

Options engineOptions(const Engine& e) {
  Options o;
  o.order = e.order;
  o.threads = e.threads;
  o.seed = 1;
  o.maxSeconds = 60.0;
  return o;
}

/// Build the plant for `e` (best-first gets the makespan clock as its
/// cost clock) and search it. For best-first, `exhausted` means the
/// optimum was proven without any witness.
Result runEngine(const Engine& e, plant::PlantConfig cfg, const Options& o) {
  cfg.makespanClock = e.bestFirst;
  const auto p = plant::buildPlant(cfg);
  if (!e.bestFirst) return Reachability(p->sys, o).run(p->goal);
  BestFirstResult bf = BestFirst(p->sys, o, p->makespan).run(p->goal);
  Result res;
  res.reachable = bf.reachable;
  res.exhausted = bf.optimal && !bf.reachable;
  res.stats = std::move(bf.stats);
  return res;
}

void expectCommonStats(const Stats& st, const char* name) {
  EXPECT_GT(st.statesExplored, 0u) << name;
  EXPECT_GT(st.storedZones, 0u) << name;
  EXPECT_GT(st.statesInterned, 0u) << name;
  EXPECT_GT(st.internBytes, 0u) << name;
  EXPECT_GT(st.simdKernelOps + st.scalarKernelOps, 0u) << name;
  EXPECT_GT(st.peakBytes, 0u) << name;
  EXPECT_GT(st.seconds, 0.0) << name;
}

/// The unguided 2-batch plant: big enough that a tiny byte budget is
/// breached almost immediately on every engine.
TEST(MemoryCutoff, AllFiveEnginesReportMemoryCutoff) {
  for (const Engine& e : kEngines) {
    plant::PlantConfig cfg;
    cfg.order = plant::standardOrder(2);
    cfg.guides = plant::GuideLevel::kNone;
    Options o = engineOptions(e);
    o.maxMemoryBytes = 512 * 1024;
    const Result res = runEngine(e, cfg, o);
    EXPECT_FALSE(res.reachable) << e.name;
    EXPECT_FALSE(res.exhausted) << e.name;
    EXPECT_EQ(res.stats.cutoff, Cutoff::kMemory) << e.name;
    // Partial stats must survive the cutoff: the engine did real work
    // and accounted for it before giving up.
    expectCommonStats(res.stats, e.name);
  }
}

TEST(MemoryCutoff, GenerousBudgetLeavesVerdictUntouched) {
  for (const Engine& e : kEngines) {
    plant::PlantConfig cfg;
    cfg.order = plant::standardOrder(1);
    Options o = engineOptions(e);
    o.maxMemoryBytes = size_t{4} * 1024 * 1024 * 1024;
    const Result res = runEngine(e, cfg, o);
    EXPECT_TRUE(res.reachable) << e.name;
    EXPECT_EQ(res.stats.cutoff, Cutoff::kNone) << e.name;
    expectCommonStats(res.stats, e.name);
  }
}

TEST(MemoryCutoff, TinyBudgetStopsEarly) {
  // The memory cutoff must fire promptly, not after the frontier has
  // ballooned: with a 512 KiB budget the store must hold well under the
  // unbounded search's state count.
  plant::PlantConfig cfg;
  cfg.order = plant::standardOrder(2);
  cfg.guides = plant::GuideLevel::kNone;
  const auto p = plant::buildPlant(cfg);
  Options o = engineOptions(kEngines[0]);
  o.maxMemoryBytes = 512 * 1024;
  o.maxStates = 2'000'000;
  Reachability checker(p->sys, o);
  const Result res = checker.run(p->goal);
  EXPECT_EQ(res.stats.cutoff, Cutoff::kMemory);
  EXPECT_LT(res.stats.storedZones, 200'000u);
}

}  // namespace
}  // namespace engine
