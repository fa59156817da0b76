// Property-style sweeps over the plant model: for every batch count and
// guide level in range, schedules exist, concretize, validate, satisfy
// the plant's ordering invariants, and replay inside the unguided model
// (the paper's guide-soundness property).
#include <gtest/gtest.h>

#include "engine/simulator.hpp"
#include "engine/trace.hpp"
#include "plant/plant.hpp"
#include "synthesis/schedule.hpp"

namespace plant {
namespace {

engine::Options fastDfs() {
  engine::Options o;
  o.order = engine::SearchOrder::kDfs;
  o.dfsReverse = true;
  o.maxSeconds = 90.0;
  return o;
}

class BatchSweep : public ::testing::TestWithParam<int> {};

TEST_P(BatchSweep, ScheduleExistsAndValidates) {
  PlantConfig cfg;
  cfg.order = standardOrder(GetParam());
  const auto p = buildPlant(cfg);
  engine::Reachability checker(p->sys, fastDfs());
  const engine::Result res = checker.run(p->goal);
  ASSERT_TRUE(res.reachable);
  std::string err;
  const auto ct = engine::concretize(p->sys, res.trace, &err);
  ASSERT_TRUE(ct.has_value()) << err;
  EXPECT_TRUE(engine::validate(p->sys, *ct, &err)) << err;
}

TEST_P(BatchSweep, CastingHappensInOrderAndContinuously) {
  const int n = GetParam();
  PlantConfig cfg;
  cfg.order = standardOrder(n);
  const auto p = buildPlant(cfg);
  engine::Reachability checker(p->sys, fastDfs());
  const engine::Result res = checker.run(p->goal);
  ASSERT_TRUE(res.reachable);
  std::string err;
  const auto ct = engine::concretize(p->sys, res.trace, &err);
  ASSERT_TRUE(ct.has_value()) << err;
  const synthesis::Schedule sched = synthesis::project(p->sys, *ct);

  std::vector<int64_t> castStarts(static_cast<size_t>(n), -1);
  for (const synthesis::ScheduleItem& item : sched.items) {
    if (item.unit == "Caster" && item.command.rfind("Start", 0) == 0) {
      const int b = std::atoi(item.command.c_str() + 5) - 1;
      ASSERT_GE(b, 0);
      ASSERT_LT(b, n);
      castStarts[static_cast<size_t>(b)] = item.time;
    }
  }
  for (int b = 0; b < n; ++b) {
    ASSERT_GE(castStarts[static_cast<size_t>(b)], 0)
        << "batch " << b << " never cast";
    if (b > 0) {
      // In production order and exactly back-to-back (castGap == 0).
      EXPECT_EQ(castStarts[static_cast<size_t>(b)] -
                    castStarts[static_cast<size_t>(b - 1)],
                cfg.tcast);
    }
  }
}

TEST_P(BatchSweep, EveryBatchDeadlineRespected) {
  const int n = GetParam();
  PlantConfig cfg;
  cfg.order = standardOrder(n);
  const auto p = buildPlant(cfg);
  engine::Reachability checker(p->sys, fastDfs());
  const engine::Result res = checker.run(p->goal);
  ASSERT_TRUE(res.reachable);
  std::string err;
  const auto ct = engine::concretize(p->sys, res.trace, &err);
  ASSERT_TRUE(ct.has_value()) << err;
  const synthesis::Schedule sched = synthesis::project(p->sys, *ct);

  std::vector<int64_t> pour(static_cast<size_t>(n), -1);
  std::vector<int64_t> castStart(static_cast<size_t>(n), -1);
  for (const synthesis::ScheduleItem& item : sched.items) {
    if (item.unit.rfind("Load", 0) == 0 &&
        item.command.rfind("Pour", 0) == 0) {
      pour[static_cast<size_t>(std::atoi(item.unit.c_str() + 4) - 1)] =
          item.time;
    }
    if (item.unit == "Caster" && item.command.rfind("Start", 0) == 0) {
      castStart[static_cast<size_t>(std::atoi(item.command.c_str() + 5) -
                                    1)] = item.time;
    }
  }
  for (int b = 0; b < n; ++b) {
    ASSERT_GE(pour[static_cast<size_t>(b)], 0);
    // Cast must END within rtotal of pouring.
    EXPECT_LE(castStart[static_cast<size_t>(b)] + cfg.tcast -
                  pour[static_cast<size_t>(b)],
              cfg.rtotal)
        << "batch " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(UpToSix, BatchSweep, ::testing::Values(1, 2, 3, 4, 6));

class GuideSoundness : public ::testing::TestWithParam<int> {};

TEST_P(GuideSoundness, GuidedScheduleReplaysInOriginalModel) {
  // "any schedule generated for a guided model is indeed also a valid
  // schedule of the original model" — checked by firing the guided
  // trace's labelled transitions inside the unguided model, first
  // symbolically (the order of actions), then concretely (the timed
  // schedule itself).
  PlantConfig cfg;
  cfg.order = standardOrder(GetParam());
  const auto guided = buildPlant(cfg);
  engine::Reachability checker(guided->sys, fastDfs());
  const engine::Result res = checker.run(guided->goal);
  ASSERT_TRUE(res.reachable);
  std::string err;
  const auto ct = engine::concretize(guided->sys, res.trace, &err);
  ASSERT_TRUE(ct.has_value()) << err;

  cfg.guides = GuideLevel::kNone;
  const auto plain = buildPlant(cfg);
  engine::Options opts;
  engine::SuccessorGenerator gPlain(plain->sys, opts);
  engine::SymbolicState cur = gPlain.initial();
  for (size_t k = 1; k < ct->steps.size(); ++k) {
    const std::string want = engine::label(guided->sys, ct->steps[k].via);
    bool found = false;
    for (engine::Successor& suc : gPlain.successors(cur)) {
      if (engine::label(plain->sys, suc.via) == want) {
        cur = std::move(suc.state);
        found = true;
        break;
      }
    }
    ASSERT_TRUE(found) << "guided action '" << want
                       << "' unavailable in the original model (step " << k
                       << ")";
  }

  // The timed schedule: each step's delay, then the transition with the
  // guided step's label. The two models share automata, locations and
  // clocks (the guides add only variables), so the unguided run must
  // reach the same times, locations and clock values.
  ASSERT_EQ(guided->sys.dbmDimension(), plain->sys.dbmDimension());
  engine::Simulator sim(plain->sys);
  for (size_t k = 1; k < ct->steps.size(); ++k) {
    const engine::ConcreteStep& st = ct->steps[k];
    ASSERT_TRUE(sim.delay(st.delay))
        << "step " << k << ": delay " << st.delay << " refused; "
        << sim.describe();
    const std::string want = engine::label(guided->sys, st.via);
    ASSERT_TRUE(sim.fireLabeled(want))
        << "step " << k << ": '" << want << "' not fireable; "
        << sim.describe();
    ASSERT_EQ(sim.time(), st.timestamp) << "step " << k;
    ASSERT_EQ(sim.locations(), st.d.locs) << "step " << k;
    ASSERT_EQ(sim.clocks(), st.clocks) << "step " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(UpToFour, GuideSoundness, ::testing::Values(1, 3, 4));

TEST(PlantProperty, SomeGuidesAreBetweenNoneAndAll) {
  // State-count ordering on a 2-batch instance: All <= Some (guides
  // only remove behaviour), and the unguided space is the largest.
  const auto explored = [](GuideLevel g, double budget) -> size_t {
    PlantConfig cfg;
    cfg.order = standardOrder(2);
    cfg.guides = g;
    const auto p = buildPlant(cfg);
    engine::Options o;
    o.order = engine::SearchOrder::kBfs;  // full breadth = space size
    o.maxSeconds = budget;
    engine::Goal impossible;  // exhaust the space
    impossible.predicate = (p->sys.lit(0)).ref();
    engine::Reachability checker(p->sys, o);
    return checker.run(impossible).stats.statesExplored;
  };
  const size_t all = explored(GuideLevel::kAll, 60.0);
  const size_t some = explored(GuideLevel::kSome, 60.0);
  EXPECT_LE(all, some);
}

}  // namespace
}  // namespace plant
