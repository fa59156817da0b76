// Cross-validation of three components against each other: a schedule
// computed by the symbolic engine and concretized by the
// forward/backward pass must be replayable step-for-step in the
// concrete-state Simulator, with identical variables, clocks and time.
#include <gtest/gtest.h>

#include "engine/simulator.hpp"
#include "engine/trace.hpp"
#include "plant/plant.hpp"

namespace {

class SimulatorReplay : public ::testing::TestWithParam<int> {};

TEST_P(SimulatorReplay, ConcreteTraceStepsThroughSimulator) {
  plant::PlantConfig cfg;
  cfg.order = plant::standardOrder(GetParam());
  const auto p = plant::buildPlant(cfg);

  engine::Options opts;
  opts.order = engine::SearchOrder::kDfs;
  opts.dfsReverse = true;
  opts.maxSeconds = 90.0;
  engine::Reachability checker(p->sys, opts);
  const engine::Result res = checker.run(p->goal);
  ASSERT_TRUE(res.reachable);
  std::string err;
  const auto ct = engine::concretize(p->sys, res.trace, &err);
  ASSERT_TRUE(ct.has_value()) << err;

  engine::Simulator sim(p->sys);
  for (size_t k = 1; k < ct->steps.size(); ++k) {
    const engine::ConcreteStep& step = ct->steps[k];
    ASSERT_TRUE(sim.delay(step.delay))
        << "step " << k << ": simulator refused delay " << step.delay;
    const std::string want = engine::label(p->sys, step.via);
    ASSERT_TRUE(sim.fireLabeled(want))
        << "step " << k << ": '" << want << "' not fireable; state "
        << sim.describe();
    EXPECT_EQ(sim.time(), step.timestamp) << "step " << k;
    EXPECT_EQ(sim.variables(), step.d.vars) << "step " << k;
    // Clock agreement (the simulator's clock vector mirrors the
    // concretizer's, index 0 = reference).
    for (size_t c = 1; c < step.clocks.size(); ++c) {
      EXPECT_EQ(sim.clocks()[c], step.clocks[c])
          << "step " << k << " clock " << c;
    }
    // Locations agree.
    EXPECT_EQ(sim.locations(), step.d.locs) << "step " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Batches, SimulatorReplay, ::testing::Values(1, 2, 3));

}  // namespace
