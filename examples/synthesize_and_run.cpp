// The full methodology of the paper's Figure 1, end to end:
//
//   plant model --UPPAAL-style reachability--> trace
//         --projection--> schedule (Table 2)
//         --textual substitution--> RCX control program (Figure 6)
//         --execution--> (simulated) physical plant, with the plant's
//                         physical invariants checked throughout.
//
// The execution stage takes the full fault-injection surface: --loss,
// --burst, --jitter, --drift, --crash, --dup compose an adversarial
// channel; --trials runs several independently seeded executions;
// --hardened switches the codegen to the backoff + watchdog profile;
// --stats-json emits one JSON object per trial.
//
// Usage: synthesize_and_run [batches] [lossProb]
//                           [--extrapolation none|global|lu]
//                           [fault/trial flags — see sim_cli.hpp]
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "diag_util.hpp"
#include "engine/trace.hpp"
#include "plant/plant.hpp"
#include "rcx/plant_sim.hpp"
#include "sim_cli.hpp"
#include "synthesis/io.hpp"
#include "synthesis/rcx_codegen.hpp"
#include "synthesis/schedule.hpp"

int main(int argc, char** argv) {
  int batches = 3;
  engine::Extrapolation extrapolation = engine::Extrapolation::kLocationLUPlus;
  simcli::Options fault;
  fault.loss = 0.01;
  examples::FrontendFlags frontend;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (simcli::consume(fault, argc, argv, i)) continue;
    if (frontend.consume(argc, argv, i)) continue;
    if (std::strcmp(argv[i], "--extrapolation") == 0 && i + 1 < argc) {
      if (!engine::parseExtrapolation(argv[++i], &extrapolation)) {
        std::cerr << "unknown extrapolation mode: " << argv[i] << "\n";
        return 2;
      }
    } else if (positional == 0) {
      batches = std::atoi(argv[i]);
      ++positional;
    } else if (positional == 1) {
      fault.loss = std::atof(argv[i]);
      ++positional;
    } else {
      std::cerr << "usage: synthesize_and_run [batches] [lossProb]\n  "
                << simcli::kUsage << "\n";
      return 2;
    }
  }

  // 1. Model.
  plant::PlantConfig cfg;
  cfg.order = plant::standardOrder(batches);
  const auto p = plant::buildPlant(cfg);
  examples::lintHandBuilt(p->sys, frontend, "synthesize_and_run");
  std::cout << "[1] model: " << p->numAutomata() << " automata, "
            << p->numClocks() << " clocks\n";

  // 2. Schedule via guided reachability.
  engine::Options opts;
  opts.order = engine::SearchOrder::kDfs;
  opts.dfsReverse = true;
  opts.maxSeconds = 120.0;
  opts.extrapolation = extrapolation;
  opts.optLevel = frontend.optLevel;
  engine::Reachability checker(p->sys, opts);
  const engine::Result res = checker.run(p->goal);
  if (!res.reachable) {
    std::cerr << "no schedule found\n";
    return 1;
  }
  std::string err;
  const auto ct = engine::concretize(p->sys, res.trace, &err);
  if (!ct || !engine::validate(p->sys, *ct, &err)) {
    std::cerr << "trace concretization failed: " << err << "\n";
    return 1;
  }
  const synthesis::Schedule sched = synthesis::project(p->sys, *ct);
  std::cout << "[2] schedule: " << sched.items.size() << " commands, makespan "
            << sched.makespan << " time units\n";

  // 3. Control program by textual substitution.
  const synthesis::RcxProgram prog =
      synthesis::synthesize(sched, fault.codegen(1000));
  std::cout << "[3] program: " << prog.code.size() << " RCX instructions, "
            << prog.commands.size() << " commands ("
            << (fault.hardened ? "hardened" : "classic") << " segments)\n";
  if (synthesis::writeScheduleFile(sched, "schedule.txt") &&
      synthesis::writeProgramFile(prog, "program.rcx")) {
    std::cout << "    wrote schedule.txt and program.rcx\n";
  }

  // 4. Execute in the simulated LEGO plant, N seeded trials.
  std::cout << "[4] plant run: " << fault.trials << " trial(s), seed "
            << fault.seed << ", loss " << fault.loss << "\n";
  const int failures = simcli::runTrials(prog, cfg, 1000, fault);
  if (failures > 0) {
    std::cout << "plant run FAILED in " << failures << "/" << fault.trials
              << " trial(s)\n";
    return 1;
  }
  std::cout << "plant run OK — " << fault.trials
            << " trial(s) executed without physical violations\n";
  return 0;
}
