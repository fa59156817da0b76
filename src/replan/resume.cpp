#include "replan/resume.hpp"

#include <chrono>

#include "engine/reachability.hpp"
#include "engine/trace.hpp"

namespace synthesis {

namespace {

/// Level 0: best-first makespan optimization on the strictly lifted
/// model. Returns true when a schedule was found (optimal or anytime
/// incumbent under the state budget).
bool tryStrict(const rcx::PlantSnapshot& snap, const plant::PlantConfig& cfg,
               const ResumeOptions& opts, ResumeOutcome* out) {
  plant::PlantConfig strictCfg = cfg;
  strictCfg.makespanClock = true;  // cost clock for the priced search
  replan::Lifted lifted =
      replan::liftSnapshot(snap, strictCfg, replan::LiftMode::kStrict);
  out->lift = lifted.report;
  if (!lifted.report.feasible) return false;

  OptimizeOptions oo;
  oo.optimizer = Optimizer::kBestFirst;
  oo.engine = opts.engine;
  oo.engine.order = engine::SearchOrder::kDfs;
  oo.engine.dfsReverse = true;  // the guided model's fast direction
  oo.engine.maxStates = opts.strictMaxStates;
  const OptimizeResult res = optimizeMakespan(
      lifted.plant->sys, lifted.plant->goal, lifted.plant->makespan, oo);
  out->stats = res.stats;
  if (!res.feasible) return false;

  out->feasible = true;
  out->ladderLevel = 0;
  out->optimal = res.optimal;
  out->makespan = res.optimalMakespan;
  out->schedule = res.schedule;
  out->repairCfg = cfg;
  return true;
}

/// Level 1: first-found depth-first schedule on the relaxed model.
bool tryRelaxed(const rcx::PlantSnapshot& snap, const plant::PlantConfig& cfg,
                const ResumeOptions& opts, ResumeOutcome* out) {
  const plant::PlantConfig rcfg = replan::relaxedConfig(cfg);
  replan::Lifted lifted =
      replan::liftSnapshot(snap, rcfg, replan::LiftMode::kRelaxed);
  out->lift = lifted.report;
  if (!lifted.report.feasible) return false;

  engine::Options eo = opts.engine;
  eo.order = engine::SearchOrder::kDfs;
  eo.dfsReverse = true;
  eo.maxStates = opts.relaxedMaxStates;
  engine::Reachability checker(lifted.plant->sys, eo);
  const engine::Result res = checker.run(lifted.plant->goal);
  out->stats = res.stats;
  if (!res.reachable) return false;

  std::string err;
  const auto ct = engine::concretize(lifted.plant->sys, res.trace, &err);
  if (!ct.has_value()) {
    out->lift.notes.push_back("relaxed trace concretization failed: " + err);
    return false;
  }
  out->feasible = true;
  out->ladderLevel = 1;
  out->optimal = false;
  out->schedule = project(lifted.plant->sys, *ct);
  out->makespan = out->schedule.makespan;
  out->repairCfg = rcfg;
  return true;
}

}  // namespace

ResumeOutcome resumeFrom(const rcx::PlantSnapshot& snap,
                         const plant::PlantConfig& cfg,
                         const ResumeOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  ResumeOutcome out;
  out.repairCfg = cfg;

  if (!tryStrict(snap, cfg, opts, &out)) {
    if (!tryRelaxed(snap, cfg, opts, &out)) {
      out.feasible = false;
      out.ladderLevel = 2;  // safe stop
    }
  }

  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

}  // namespace synthesis
