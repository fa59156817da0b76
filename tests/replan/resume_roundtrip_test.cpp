// Crash-restart recovery round trips (the PR's satellite 3): a seeded
// mid-batch fatal deviation produces a snapshot; synthesis::resumeFrom
// lifts it into a model whose initial state validates against the
// concrete plant state and yields an executable repair schedule; and
// the closed-loop controller (replan/controller.hpp) splices that
// schedule back in and finishes runs the open loop loses.
#include <gtest/gtest.h>

#include "replan/controller.hpp"
#include "replan/lift.hpp"
#include "replan/resume.hpp"
#include "replan_test_util.hpp"

namespace replan {
namespace {

using replan_test::crashPlan;
using replan_test::findMidBatchFatalSeed;
using replan_test::hardenedCodegen;
using replan_test::kSlackTicks;
using replan_test::kTpu;
using replan_test::runClassified;
using replan_test::solveSchedule;

plant::PlantConfig oneBatch() {
  plant::PlantConfig cfg;
  cfg.order = {plant::qualityA()};
  return cfg;
}

synthesis::ResumeOptions quickResume() {
  synthesis::ResumeOptions o;
  o.strictMaxStates = 150'000;
  o.relaxedMaxStates = 400'000;
  return o;
}

/// The concrete place -> model location mapping the lift guarantees
/// (kept in sync with replan/lift.cpp by this test).
std::string expectedLoc(const rcx::LoadSnapshot& l) {
  using Place = rcx::LoadSnapshot::Place;
  const auto num = [](int32_t v) { return std::to_string(v); };
  switch (l.place) {
    case Place::kNotPoured: return "src";
    case Place::kExited: return "done";
    case Place::kInCaster: return "in_cast";
    case Place::kOnCrane: return "carried_c" + num(l.crane + 1);
    case Place::kGround:
      switch (l.groundK) {
        case plant::kOverT1Out: return "t1_" + num(plant::kT1Out);
        case plant::kOverBuffer: return "at_buf";
        case plant::kOverT2Out: return "t2_" + num(plant::kT2Out);
        case plant::kOverHold: return "at_hold";
        case plant::kOverCastOut: return "at_castout";
        default: return "at_store";
      }
    case Place::kTrack:
      if (l.treatingMachine > 0) return "busy_m" + num(l.treatingMachine);
      return "t" + num(l.track) + "_" + num(l.slot);
  }
  return "?";
}

std::string initialLoc(const ta::System& sys, ta::ProcId p) {
  const auto& aut = sys.automaton(p);
  return aut.location(aut.initial()).name;
}

int64_t clockInit(const ta::System& sys, const std::string& name) {
  for (ta::ClockId c = 1; c <= static_cast<ta::ClockId>(sys.numClocks());
       ++c) {
    if (sys.clockName(c) == name) return sys.initialClock(c);
  }
  return 0;
}

TEST(ResumeRoundTrip, SnapshotLiftsBackToValidatedModel) {
  const auto cfg = oneBatch();
  const auto sched = solveSchedule(cfg);
  ASSERT_FALSE(sched.items.empty());
  const uint64_t seed = findMidBatchFatalSeed(sched, cfg, crashPlan(), 50);
  ASSERT_LT(seed, 50u);
  const rcx::SimResult r = runClassified(sched, cfg, crashPlan(), seed);
  ASSERT_TRUE(r.snapshot.has_value());
  const rcx::PlantSnapshot& snap = *r.snapshot;

  const synthesis::ResumeOutcome out =
      synthesis::resumeFrom(snap, cfg, quickResume());
  ASSERT_TRUE(out.feasible) << "a quiesced crash state must be repairable";
  EXPECT_LE(out.ladderLevel, 1);
  EXPECT_GE(out.stats.statesExplored, 1u);
  if (out.ladderLevel == 0) {
    EXPECT_GE(out.makespan, 0);
  }

  // Round trip: re-lift under the configuration the repair runs under
  // and check the model's initial state against the concrete one.
  const LiftMode mode =
      out.ladderLevel == 0 ? LiftMode::kStrict : LiftMode::kRelaxed;
  const Lifted lifted = liftSnapshot(snap, out.repairCfg, mode);
  ASSERT_TRUE(lifted.report.feasible);
  const ta::System& sys = lifted.plant->sys;
  for (int32_t b = 0; b < snap.numBatches(); ++b) {
    const rcx::LoadSnapshot& l = snap.loads[static_cast<size_t>(b)];
    EXPECT_EQ(initialLoc(sys, lifted.plant->batches[static_cast<size_t>(b)]),
              expectedLoc(l))
        << "batch " << b;
    if (l.pourTick >= 0 && b >= snap.caster.castsDone) {
      // Deadline clock: ceil of the concrete elapsed time, clamped to
      // the repair config's deadline.
      const int64_t elapsed = snap.tick - l.pourTick;
      const int64_t tot = clockInit(sys, "tot" + std::to_string(b));
      EXPECT_GE(tot * kTpu + kTpu, elapsed) << "batch " << b;
      EXPECT_LE(tot, out.repairCfg.rtotal) << "batch " << b;
    }
  }
  for (int32_t c = 0; c < plant::kNumCranes; ++c) {
    const std::string shape = snap.cranes[c].carrying >= 0 ? "f" : "e";
    EXPECT_EQ(initialLoc(sys, lifted.plant->cranes[static_cast<size_t>(c)]),
              shape + std::to_string(snap.cranes[c].pos))
        << "crane " << c;
  }
  if (snap.caster.castingBatch >= 0 && !snap.caster.castComplete) {
    // Progress clock: floor, so the model never believes the cast is
    // further along than the metal.
    const int64_t elapsed = snap.tick - snap.caster.castStartTick;
    EXPECT_LE(clockInit(sys, "k") * kTpu, elapsed);
  }
}

TEST(ResumeRoundTrip, SkipStrictGoesStraightToRelaxed) {
  const auto cfg = oneBatch();
  const auto sched = solveSchedule(cfg);
  ASSERT_FALSE(sched.items.empty());
  const uint64_t seed = findMidBatchFatalSeed(sched, cfg, crashPlan(), 50);
  ASSERT_LT(seed, 50u);
  const rcx::SimResult r = runClassified(sched, cfg, crashPlan(), seed);
  ASSERT_TRUE(r.snapshot.has_value());
  auto opts = quickResume();
  // A one-state budget cuts the strict rung off before any schedule.
  opts.strictMaxStates = 1;
  const synthesis::ResumeOutcome out =
      synthesis::resumeFrom(*r.snapshot, cfg, opts);
  ASSERT_TRUE(out.feasible);
  EXPECT_EQ(out.ladderLevel, 1);
  EXPECT_FALSE(out.optimal);
}

ControllerOptions closedLoopOpts(uint64_t seed) {
  ControllerOptions opts;
  opts.sim.messageLossProb = 0.0;
  opts.sim.faults = crashPlan();
  opts.sim.seed = seed;
  opts.sim.slackTicks = kSlackTicks;
  opts.codegen = hardenedCodegen();
  opts.ticksPerTimeUnit = kTpu;
  opts.maxReplans = 4;
  opts.resume = quickResume();
  return opts;
}

TEST(ResumeRoundTrip, ClosedLoopRescuesACrashedRun) {
  const auto cfg = oneBatch();
  const auto sched = solveSchedule(cfg);
  ASSERT_FALSE(sched.items.empty());
  bool rescued = false;
  for (uint64_t seed = 0; seed < 50 && !rescued; ++seed) {
    const rcx::SimResult open = runClassified(sched, cfg, crashPlan(), seed);
    if (!open.snapshot.has_value()) continue;  // open loop survived
    const RunReport rep =
        runWithReplanning(cfg, sched, closedLoopOpts(seed));
    // Structural invariants of every closed-loop run.
    EXPECT_EQ(rep.replanLatencySeconds.size(),
              static_cast<size_t>(rep.replans));
    if (rep.success) {
      EXPECT_TRUE(rep.finalResult.ok());
      EXPECT_FALSE(rep.safeStopped);
    }
    if (rep.success && rep.replans >= 1) rescued = true;
  }
  EXPECT_TRUE(rescued)
      << "no seed in [0, 50) was rescued by replanning although the "
         "open loop lost it";
}

TEST(ResumeRoundTrip, ZeroBudgetSafeStops) {
  const auto cfg = oneBatch();
  const auto sched = solveSchedule(cfg);
  ASSERT_FALSE(sched.items.empty());
  auto opts = closedLoopOpts(1);
  opts.sim.faults = rcx::FaultPlan::iidLoss(1.0);  // guaranteed fatal
  opts.maxReplans = 0;
  const RunReport rep = runWithReplanning(cfg, sched, opts);
  EXPECT_FALSE(rep.success);
  EXPECT_TRUE(rep.safeStopped);
  EXPECT_NE(rep.safeStopReason.find("budget"), std::string::npos)
      << rep.safeStopReason;
  EXPECT_EQ(rep.replans, 0);
  ASSERT_EQ(rep.segments.size(), 1u);
  EXPECT_TRUE(rcx::isFatal(rep.segments[0].deviation));
}

}  // namespace
}  // namespace replan
