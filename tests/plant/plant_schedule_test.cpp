// End-to-end scheduling tests: the guided plant model must yield valid
// schedules that concretize and validate.
#include <gtest/gtest.h>

#include "engine/trace.hpp"
#include "plant/plant.hpp"

namespace plant {
namespace {

engine::Options dfs() {
  engine::Options o;
  o.order = engine::SearchOrder::kDfs;
  o.maxSeconds = 60.0;
  return o;
}

TEST(PlantSchedule, OneBatchGuided) {
  PlantConfig cfg;
  cfg.order = {qualityAB()};
  const auto p = buildPlant(cfg);
  engine::Reachability checker(p->sys, dfs());
  const engine::Result res = checker.run(p->goal);
  ASSERT_TRUE(res.reachable) << "no schedule found for a single batch";
  std::string err;
  const auto ct = engine::concretize(p->sys, res.trace, &err);
  ASSERT_TRUE(ct.has_value()) << err;
  EXPECT_TRUE(engine::validate(p->sys, *ct, &err)) << err;
  // The batch's deadline must be respected in the concrete timing.
  EXPECT_LE(ct->makespan(), 2 * cfg.rtotal);
}

TEST(PlantSchedule, OneBatchEachQuality) {
  for (const Quality& q :
       {qualityAB(), qualityA(), qualityB(), qualityC(), qualityBC()}) {
    PlantConfig cfg;
    cfg.order = {q};
    const auto p = buildPlant(cfg);
    engine::Reachability checker(p->sys, dfs());
    const engine::Result res = checker.run(p->goal);
    EXPECT_TRUE(res.reachable)
        << "no schedule for a quality with " << q.size() << " stages";
  }
}

TEST(PlantSchedule, TwoBatchesGuidedDfs) {
  PlantConfig cfg;
  cfg.order = standardOrder(2);
  const auto p = buildPlant(cfg);
  engine::Reachability checker(p->sys, dfs());
  const engine::Result res = checker.run(p->goal);
  ASSERT_TRUE(res.reachable);
  std::string err;
  const auto ct = engine::concretize(p->sys, res.trace, &err);
  ASSERT_TRUE(ct.has_value()) << err;
  EXPECT_TRUE(engine::validate(p->sys, *ct, &err)) << err;
}

TEST(PlantSchedule, ThreeBatchesAllGuides) {
  PlantConfig cfg;
  cfg.order = standardOrder(3);
  cfg.guides = GuideLevel::kAll;
  const auto p = buildPlant(cfg);
  engine::Reachability checker(p->sys, dfs());
  const engine::Result res = checker.run(p->goal);
  ASSERT_TRUE(res.reachable);
}

TEST(PlantSchedule, CastingContinuityShowsInTimestamps) {
  // With strict continuity, consecutive Caster.Start events must be
  // exactly tcast apart.
  PlantConfig cfg;
  cfg.order = standardOrder(2);
  const auto p = buildPlant(cfg);
  engine::Reachability checker(p->sys, dfs());
  const engine::Result res = checker.run(p->goal);
  ASSERT_TRUE(res.reachable);
  std::string err;
  const auto ct = engine::concretize(p->sys, res.trace, &err);
  ASSERT_TRUE(ct.has_value()) << err;

  std::vector<int64_t> castStarts;
  for (const engine::ConcreteStep& st : ct->steps) {
    if (engine::label(p->sys, st.via).find("Caster.Start") !=
        std::string::npos) {
      castStarts.push_back(st.timestamp);
    }
  }
  ASSERT_EQ(castStarts.size(), 2u);
  EXPECT_EQ(castStarts[1] - castStarts[0], cfg.tcast)
      << "second ladle must enter the caster the moment the first leaves";
}

TEST(PlantSchedule, UnGuidedOneBatchStillSchedulable) {
  PlantConfig cfg;
  cfg.order = {qualityA()};
  cfg.guides = GuideLevel::kNone;
  const auto p = buildPlant(cfg);
  engine::Reachability checker(p->sys, dfs());
  const engine::Result res = checker.run(p->goal);
  EXPECT_TRUE(res.reachable)
      << "guides must not be necessary for feasibility, only tractability";
}

TEST(PlantSchedule, GuidedScheduleIsValidInUnguidedModel) {
  // The paper's soundness property: "any schedule generated for a
  // guided model is indeed also a valid schedule of the original
  // model."  We check it by replaying the guided schedule's plant
  // actions inside the unguided model.
  PlantConfig cfg;
  cfg.order = standardOrder(2);
  cfg.guides = GuideLevel::kAll;
  const auto guided = buildPlant(cfg);
  engine::Reachability checker(guided->sys, dfs());
  const engine::Result res = checker.run(guided->goal);
  ASSERT_TRUE(res.reachable);
  std::string err;
  const auto ct = engine::concretize(guided->sys, res.trace, &err);
  ASSERT_TRUE(ct.has_value()) << err;

  cfg.guides = GuideLevel::kNone;
  const auto plain = buildPlant(cfg);
  // Replay by matching edge labels: walk the unguided model, firing at
  // each step a transition with the same label and delay.
  engine::Options opts;
  engine::SuccessorGenerator gPlain(plain->sys, opts);
  engine::SymbolicState cur = gPlain.initial();
  size_t matched = 0;
  for (size_t k = 1; k < ct->steps.size(); ++k) {
    const std::string want = engine::label(guided->sys, ct->steps[k].via);
    bool found = false;
    for (engine::Successor& suc : gPlain.successors(cur)) {
      if (engine::label(plain->sys, suc.via) == want) {
        cur = std::move(suc.state);
        found = true;
        ++matched;
        break;
      }
    }
    ASSERT_TRUE(found) << "guided action '" << want
                       << "' not available in the unguided model at step "
                       << k;
  }
  EXPECT_EQ(matched + 1, ct->steps.size());
}

}  // namespace
}  // namespace plant
