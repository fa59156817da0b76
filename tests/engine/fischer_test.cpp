// Fischer's timed mutual-exclusion protocol as an engine correctness
// benchmark: the safety property holds exactly when K >= D, across
// process counts and search configurations.
#include <gtest/gtest.h>

#include <vector>

#include "engine/reachability.hpp"
#include "ta/system.hpp"

namespace engine {
namespace {

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

  [[nodiscard]] bool violationReachable(Options opts) {
    for (size_t i = 0; i < procs.size(); ++i) {
      for (size_t j = i + 1; j < procs.size(); ++j) {
        Goal bad;
        bad.locations = {{procs[i], critical[i]}, {procs[j], critical[j]}};
        Reachability checker(sys, opts);
        const Result res = checker.run(bad);
        if (res.reachable) return true;
        EXPECT_TRUE(res.exhausted);
      }
    }
    return false;
  }
};

struct FischerCase {
  int n, d, k;
};

class FischerSweep : public ::testing::TestWithParam<FischerCase> {};

TEST_P(FischerSweep, MutexHoldsIffKGreaterThanD) {
  const FischerCase c = GetParam();
  Fischer f(c.n, c.d, c.k);
  Options opts;
  opts.maxSeconds = 60.0;
  EXPECT_EQ(f.violationReachable(opts), c.k < c.d)
      << "n=" << c.n << " D=" << c.d << " K=" << c.k;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FischerSweep,
    ::testing::Values(FischerCase{2, 2, 3}, FischerCase{2, 2, 2},
                      FischerCase{3, 2, 3}, FischerCase{3, 3, 2}, FischerCase{3, 2, 1},
                      FischerCase{4, 1, 2}, FischerCase{4, 2, 2},
                      FischerCase{5, 2, 3}),
    [](const ::testing::TestParamInfo<FischerCase>& info) {
      return "n" + std::to_string(info.param.n) + "_d" +
             std::to_string(info.param.d) + "_k" +
             std::to_string(info.param.k);
    });

TEST(Fischer, AllSearchOrdersAgree) {
  for (const SearchOrder order :
       {SearchOrder::kBfs, SearchOrder::kDfs, SearchOrder::kRandomDfs}) {
    Fischer holds(3, 2, 3);
    Options o;
    o.order = order;
    o.maxSeconds = 60.0;
    EXPECT_FALSE(holds.violationReachable(o));
    Fischer broken(3, 3, 2);
    EXPECT_TRUE(broken.violationReachable(o));
  }
}

TEST(Fischer, ViolationWitnessConcretizes) {
  Fischer broken(2, 3, 2);
  Goal bad;
  bad.locations = {{broken.procs[0], broken.critical[0]},
                   {broken.procs[1], broken.critical[1]}};
  Reachability checker(broken.sys, Options{});
  const Result res = checker.run(bad);
  ASSERT_TRUE(res.reachable);
}

}  // namespace
}  // namespace engine
