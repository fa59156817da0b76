// Golden exploration counts: how much work each search does on fixed
// models — states explored, states generated, zones stored and trace
// length. The differential matrix compares verdicts only; these numbers
// move whenever a change to a search loop moves its exploration order,
// the point at which it claims a successor, or where it checks its
// cut-offs, even if every verdict stays the same.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/best_first.hpp"
#include "engine/reachability.hpp"
#include "engine/trace.hpp"
#include "plant/plant.hpp"
#include "ta/system.hpp"

namespace engine {
namespace {

struct Counts {
  size_t explored;
  size_t generated;
  size_t stored;
  size_t traceLength;
};

void expectCounts(const Stats& st, size_t traceLength, const Counts& want) {
  EXPECT_EQ(st.statesExplored, want.explored);
  EXPECT_EQ(st.statesGenerated, want.generated);
  EXPECT_EQ(st.storedZones, want.stored);
  EXPECT_EQ(traceLength, want.traceLength);
  EXPECT_EQ(st.cutoff, Cutoff::kNone);
}

/// Fischer's protocol with N processes, D = 2, K = 3 (the variant
/// perfbench generates): mutual exclusion holds, so every search
/// exhausts the space.
struct Fischer5 {
  ta::System sys;
  Goal violation;

  Fischer5() {
    const ta::VarId id = sys.addVar("id", 0);
    std::vector<std::pair<ta::ProcId, ta::LocId>> critical;
    for (int i = 1; i <= 5; ++i) {
      const ta::ClockId x = sys.addClock("x" + std::to_string(i));
      const ta::ProcId p = sys.addAutomaton("P" + std::to_string(i));
      auto& a = sys.automaton(p);
      const ta::LocId idle = a.addLocation("idle");
      const ta::LocId trying = a.addLocation("trying");
      const ta::LocId waiting = a.addLocation("waiting");
      const ta::LocId crit = a.addLocation("critical");
      critical.push_back({p, crit});
      a.setInvariant(trying, {ta::ccLe(x, 2)});
      sys.edge(p, idle, trying).guard(sys.rd(id) == 0).reset(x);
      sys.edge(p, trying, waiting).when(ta::ccLe(x, 2)).reset(x).assign(id, i);
      sys.edge(p, waiting, crit).when(ta::ccGt(x, 3)).guard(sys.rd(id) == i);
      sys.edge(p, waiting, idle).guard(sys.rd(id) != i);
      sys.edge(p, crit, idle).assign(id, 0);
    }
    sys.finalize();
    violation.locations = {critical[0], critical[1]};
  }
};

std::unique_ptr<plant::Plant> guidedPlant(int batches, bool makespan) {
  plant::PlantConfig cfg;
  cfg.order = plant::standardOrder(batches);
  cfg.guides = plant::GuideLevel::kAll;
  cfg.makespanClock = makespan;
  return plant::buildPlant(cfg);
}

TEST(GoldenCounts, BfsFischer5) {
  Fischer5 m;
  Options o;
  o.order = SearchOrder::kBfs;
  Reachability checker(m.sys, o);
  const Result res = checker.run(m.violation);
  EXPECT_TRUE(res.exhausted);
  expectCounts(res.stats, res.trace.steps.size(), {3631, 14315, 3631, 0});
}

TEST(GoldenCounts, BitstateDfsFischer5) {
  Fischer5 m;
  Options o;
  o.order = SearchOrder::kDfs;
  o.bitstateHashing = true;
  o.hashBits = 20;
  Reachability checker(m.sys, o);
  const Result res = checker.run(m.violation);
  EXPECT_FALSE(res.reachable);
  expectCounts(res.stats, res.trace.steps.size(), {3631, 14315, 0, 0});
}

TEST(GoldenCounts, ReverseDfsGuidedPlant10) {
  const auto p = guidedPlant(10, false);
  Options o;
  o.order = SearchOrder::kDfs;
  o.dfsReverse = true;
  Reachability checker(p->sys, o);
  const Result res = checker.run(p->goal);
  EXPECT_TRUE(res.reachable);
  expectCounts(res.stats, res.trace.steps.size(), {963, 1181, 827, 372});
}

TEST(GoldenCounts, RandomDfsGuidedPlant3) {
  const auto p = guidedPlant(3, false);
  Options o;
  o.order = SearchOrder::kRandomDfs;
  o.seed = 1;
  Reachability checker(p->sys, o);
  const Result res = checker.run(p->goal);
  EXPECT_TRUE(res.reachable);
  expectCounts(res.stats, res.trace.steps.size(), {212, 264, 205, 113});
}

/// The 3-batch makespan optimization as perfbench's optimize-3 runs it:
/// a reverse-DFS first-found bootstrap sets the initial incumbent, then
/// best-first with the plant's "done"/"alldone" heuristic targets.
TEST(GoldenCounts, BestFirstMakespan3) {
  const auto p = guidedPlant(3, true);
  Options o;
  o.order = SearchOrder::kDfs;
  o.dfsReverse = true;
  o.maxSeconds = 60.0;
  o.maxMemoryBytes = size_t{1536} << 20;

  Reachability first(p->sys, o);
  const Result boot = first.run(p->goal);
  ASSERT_TRUE(boot.reachable);
  expectCounts(boot.stats, boot.trace.steps.size(), {219, 257, 191, 113});
  const auto ct = concretize(p->sys, boot.trace);
  ASSERT_TRUE(ct.has_value());
  EXPECT_EQ(ct->makespan(), 128);

  std::vector<std::vector<ta::LocId>> targets(p->sys.numAutomata());
  for (size_t i = 0; i < targets.size(); ++i) {
    const ta::Automaton& a = p->sys.automaton(static_cast<ta::ProcId>(i));
    for (const char* name : {"done", "alldone"}) {
      const ta::LocId l = a.findLocation(name);
      if (l >= 0) {
        targets[i].push_back(l);
        break;
      }
    }
  }
  BestFirst bf(p->sys, o, p->makespan);
  bf.setInitialIncumbent(ct->makespan());
  bf.setHeuristicTargets(targets);
  const BestFirstResult res = bf.run(p->goal);
  EXPECT_TRUE(res.optimal);
  EXPECT_EQ(res.cost, 121);
  EXPECT_EQ(res.stats.incumbentCosts, std::vector<int64_t>{121});
  EXPECT_EQ(res.stats.reopenings, 74880u);
  expectCounts(res.stats, res.trace.steps.size(), {94667, 218053, 19787, 113});
}

}  // namespace
}  // namespace engine
