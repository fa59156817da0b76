// Structural tests of the generated plant model.
#include <gtest/gtest.h>

#include "plant/plant.hpp"
#include "ta/lint.hpp"
#include "ta/printer.hpp"

namespace plant {
namespace {

TEST(PlantBuild, AutomatonAndClockCounts) {
  // 2N+4 automata, 3N+3 clocks (183 clocks at 60 batches, §5).
  for (const int32_t n : {1, 2, 5, 60}) {
    PlantConfig cfg;
    cfg.order = standardOrder(n);
    const auto p = buildPlant(cfg);
    EXPECT_EQ(p->numAutomata(), static_cast<size_t>(2 * n + 4));
    EXPECT_EQ(p->numClocks(), static_cast<uint32_t>(3 * n + 3));
  }
}

TEST(PlantBuild, SixtyBatchClockCountMatchesPaper) {
  PlantConfig cfg;
  cfg.order = standardOrder(60);
  const auto p = buildPlant(cfg);
  EXPECT_EQ(p->numClocks(), 183u) << "paper: 183 real-valued clocks";
}

TEST(PlantBuild, GuideLevelsChangeVariableCount) {
  PlantConfig cfg;
  cfg.order = standardOrder(3);
  cfg.guides = GuideLevel::kNone;
  const auto none = buildPlant(cfg);
  cfg.guides = GuideLevel::kSome;
  const auto some = buildPlant(cfg);
  cfg.guides = GuideLevel::kAll;
  const auto all = buildPlant(cfg);
  // Guides are implemented "by introducing a number of new variables".
  EXPECT_LT(none->sys.numVars(), some->sys.numVars());
  EXPECT_LT(some->sys.numVars(), all->sys.numVars());
}

TEST(PlantBuild, HandlesAreConsistent) {
  PlantConfig cfg;
  cfg.order = standardOrder(4);
  const auto p = buildPlant(cfg);
  EXPECT_EQ(p->batches.size(), 4u);
  EXPECT_EQ(p->recipes.size(), 4u);
  EXPECT_EQ(p->cranes.size(), 2u);
  EXPECT_GE(p->caster, 0);
  EXPECT_GE(p->monitor, 0);
  EXPECT_TRUE(p->sys.finalized());
  EXPECT_EQ(p->goal.locations.size(), 1u);
}

TEST(PlantBuild, DeclaresOnlyChannelsSomeEdgeUses) {
  PlantConfig cfg;
  cfg.order = standardOrder(15);
  cfg.guides = GuideLevel::kAll;
  const auto p = buildPlant(cfg);
  std::vector<ta::Diagnostic> diags;
  ta::runLints(p->sys, &diags);
  // L003 covers unused and one-sided (sent-only or received-only)
  // channels alike.
  size_t unused = 0;
  for (const ta::Diagnostic& d : diags) {
    if (d.code == ta::DiagCode::kUnusedChannel) ++unused;
  }
  EXPECT_EQ(unused, 0u) << ta::renderDiagnostics(diags);
}

TEST(PlantBuild, MachineCatalogue) {
  EXPECT_EQ(machineOn(1, MachineType::kA), 1);
  EXPECT_EQ(machineOn(1, MachineType::kB), 2);
  EXPECT_EQ(machineOn(1, MachineType::kC), 3);
  EXPECT_EQ(machineOn(2, MachineType::kA), 4);
  EXPECT_EQ(machineOn(2, MachineType::kB), 5);
  EXPECT_EQ(machineOn(2, MachineType::kC), -1);
}

TEST(PlantBuild, DumpMentionsKeyStructure) {
  PlantConfig cfg;
  cfg.order = {qualityAB()};
  const auto p = buildPlant(cfg);
  const std::string d = ta::printModel(p->sys, {});
  EXPECT_NE(d.find("process load1"), std::string::npos);
  EXPECT_NE(d.find("process recipe0"), std::string::npos);
  EXPECT_NE(d.find("process crane1"), std::string::npos);
  EXPECT_NE(d.find("process caster"), std::string::npos);
  EXPECT_NE(d.find("next0"), std::string::npos) << "guide variable present";
}

TEST(PlantBuild, UngUidedDumpHasNoGuideVariables) {
  PlantConfig cfg;
  cfg.order = {qualityAB()};
  cfg.guides = GuideLevel::kNone;
  const auto p = buildPlant(cfg);
  const std::string d = ta::printModel(p->sys, {});
  EXPECT_EQ(d.find("next0"), std::string::npos);
  EXPECT_EQ(d.find("nextbatch"), std::string::npos);
  EXPECT_EQ(d.find("cranereq"), std::string::npos);
}

}  // namespace
}  // namespace plant
