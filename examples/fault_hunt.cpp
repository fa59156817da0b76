// Reproduce paper §6: run synthesized programs against the (simulated)
// physical plant for each of the three buggy model variants the authors
// discovered by execution, show the plant catching each error, then run
// the corrected model cleanly.
//
// The corrected run takes the fault-injection surface (--loss, --burst,
// --jitter, --drift, --crash, --dup), multiple seeded trials
// (--trials, --seed), the hardened codegen profile (--hardened) and
// machine-readable per-trial output (--stats-json); the buggy variants
// always run on a perfect channel so the modelling errors stay isolated
// from channel noise.
//
// Usage: fault_hunt [--extrapolation none|global|lu]
//                   [fault/trial flags — see sim_cli.hpp]
#include <cstring>
#include <iostream>

#include "diag_util.hpp"
#include "engine/trace.hpp"
#include "plant/plant.hpp"
#include "rcx/plant_sim.hpp"
#include "sim_cli.hpp"
#include "synthesis/rcx_codegen.hpp"
#include "synthesis/schedule.hpp"

namespace {

engine::Extrapolation g_extrapolation = engine::Extrapolation::kLocationLUPlus;
examples::FrontendFlags g_frontend;

bool pipeline(const plant::PlantConfig& cfg, const char* title,
              const simcli::Options& fault) {
  std::cout << "\n--- " << title << " ---\n";
  const auto p = plant::buildPlant(cfg);
  examples::lintHandBuilt(p->sys, g_frontend, title);
  engine::Options opts;
  opts.order = engine::SearchOrder::kDfs;
  opts.dfsReverse = true;
  opts.maxSeconds = 120.0;
  opts.extrapolation = g_extrapolation;
  opts.optLevel = g_frontend.optLevel;
  engine::Reachability checker(p->sys, opts);
  const engine::Result res = checker.run(p->goal);
  if (!res.reachable) {
    std::cout << "  model checker found NO schedule\n";
    return false;
  }
  std::string err;
  const auto ct = engine::concretize(p->sys, res.trace, &err);
  if (!ct.has_value()) {
    std::cout << "  concretize failed: " << err << "\n";
    return false;
  }
  const synthesis::Schedule sched = synthesis::project(p->sys, *ct);
  const synthesis::RcxProgram prog =
      synthesis::synthesize(sched, fault.codegen(1000));
  std::cout << "  model checker: schedule with " << sched.items.size()
            << " commands (model says everything is fine)\n";

  if (fault.trials > 1 || fault.statsJson) {
    const int failures = simcli::runTrials(prog, cfg, 1000, fault);
    std::cout << "  physical plant: " << (fault.trials - failures) << "/"
              << fault.trials << " trial(s) OK\n";
    return failures == 0;
  }
  const int failures = simcli::runTrials(prog, cfg, 1000, fault);
  if (failures == 0) {
    std::cout << "  physical plant: RUN OK\n";
    return true;
  }
  std::cout << "  physical plant: RUN FAILED (errors above)\n";
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  simcli::Options fault;
  for (int i = 1; i < argc; ++i) {
    if (simcli::consume(fault, argc, argv, i)) continue;
    if (g_frontend.consume(argc, argv, i)) continue;
    if (std::strcmp(argv[i], "--extrapolation") == 0 && i + 1 < argc) {
      if (!engine::parseExtrapolation(argv[++i], &g_extrapolation)) {
        std::cerr << "unknown extrapolation mode: " << argv[i] << "\n";
        return 2;
      }
    } else {
      std::cerr << "usage: fault_hunt [--extrapolation mode] [--no-lint]"
                   " [--Werror]\n  "
                << simcli::kUsage << "\n";
      return 2;
    }
  }
  std::cout << "Hunting the paper's three modelling errors by executing "
               "synthesized programs\nin the simulated plant (§6).\n";

  const simcli::Options nominal;  // buggy variants: perfect channel
  {
    plant::PlantConfig cfg;
    cfg.order = {plant::qualityA()};
    cfg.bugNoLiftDelay = true;
    pipeline(cfg, "error 1: crane moves horizontally while the pickup runs "
                  "(missing delay in the model)",
             nominal);
  }
  {
    plant::PlantConfig cfg;
    cfg.order = {plant::qualityA()};
    cfg.bugCasterSkipsFinalEject = true;
    pipeline(cfg, "error 3: caster does not turn out the final ladle "
                  "(missing command in the model)",
             nominal);
  }
  std::cout << "\n(error 2 — tailgating cranes — is a model-level hazard: "
               "see tests/rcx/fault_injection_test)\n";
  {
    plant::PlantConfig cfg;
    cfg.order = plant::standardOrder(3);
    const bool ok =
        pipeline(cfg, "corrected model, 3 batches (all errors fixed)", fault);
    return ok ? 0 : 1;
  }
}
