// Time-optimal schedules — the paper's future-work direction of
// synthesizing "more optimal programs".
//
// Two optimizers over the same plant model (synthesis::optimizeMakespan):
//
//  --optimizer binary     Add a never-reset global clock `gtime` to the
//                         plant, constrain the goal with `gtime <= B`,
//                         and binary-search the smallest feasible bound.
//                         (How time-optimal reachability was done with
//                         plain UPPAAL before priced timed automata.)
//  --optimizer bestfirst  One A* run over priced zones: cost-ordered
//                         expansion with the static remaining-time lower
//                         bound as heuristic and the first-found DFS
//                         schedule as the initial incumbent. Anytime —
//                         improving schedules stream as they are found.
//
// Usage: optimize_makespan [batches] [--optimizer binary|bestfirst]
//                          [--threads N] [--stats-json]
//                          [--soft-guide SUBSTR=WEIGHT ...]
//                          [--max-seconds S]
//                          [--extrapolation none|global|lu]
//
// --soft-guide adds WEIGHT to the cost of every transition whose label
// contains SUBSTR (best-first only) — the DCSynth-style soft-requirement
// mechanism: prefer schedules avoiding penalized actions, at equal
// makespan. --stats-json prints one machine-readable line with the full
// optimization statistics.
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "diag_util.hpp"
#include "plant/plant.hpp"
#include "synthesis/schedule.hpp"

namespace {

void printStatsJson(std::ostream& os, const synthesis::OptimizeResult& r,
                    const char* optimizer) {
  os << "{\"optimizer\": \"" << optimizer << "\""
     << ", \"feasible\": " << (r.feasible ? "true" : "false")
     << ", \"optimal\": " << (r.optimal ? "true" : "false")
     << ", \"firstMakespan\": " << r.firstMakespan
     << ", \"optimalMakespan\": " << r.optimalMakespan
     << ", \"cost\": " << r.cost << ", \"runs\": " << r.runs
     << ", \"statesExplored\": " << r.stats.statesExplored
     << ", \"statesGenerated\": " << r.stats.statesGenerated
     << ", \"reopenings\": " << r.stats.reopenings
     << ", \"simdKernelOps\": " << r.stats.simdKernelOps
     << ", \"scalarKernelOps\": " << r.stats.scalarKernelOps
     << ", \"seconds\": " << r.seconds << ", \"incumbents\": [";
  for (size_t i = 0; i < r.incumbents.size(); ++i) {
    os << (i ? ", " : "") << r.incumbents[i];
  }
  os << "]}\n";
}

/// Per-process terminal locations for the best-first heuristic: every
/// automaton that has a "done"/"alldone" location necessarily sits in
/// it when the monitor's goal location is reached (batches enter `done`
/// by firing the very dump! the monitor counts), so the remaining-time
/// bound may draw from all of them, not just the monitor.
std::vector<std::vector<ta::LocId>> heuristicTargets(const plant::Plant& p) {
  std::vector<std::vector<ta::LocId>> targets(p.sys.numAutomata());
  for (size_t i = 0; i < p.sys.numAutomata(); ++i) {
    const ta::Automaton& a = p.sys.automaton(static_cast<ta::ProcId>(i));
    for (const char* name : {"done", "alldone"}) {
      const ta::LocId l = a.findLocation(name);
      if (l >= 0) {
        targets[i].push_back(l);
        break;
      }
    }
  }
  return targets;
}

}  // namespace

int main(int argc, char** argv) {
  int batches = 3;
  bool statsJson = false;
  synthesis::OptimizeOptions oo;
  oo.engine.order = engine::SearchOrder::kDfs;
  oo.engine.dfsReverse = true;
  oo.engine.maxSeconds = 60.0;
  const char* optimizerName = "binary";
  examples::FrontendFlags frontend;
  for (int i = 1; i < argc; ++i) {
    if (frontend.consume(argc, argv, i)) continue;
    if (std::strcmp(argv[i], "--optimizer") == 0 && i + 1 < argc) {
      optimizerName = argv[++i];
      if (!synthesis::parseOptimizer(optimizerName, &oo.optimizer)) {
        std::cerr << "unknown optimizer: " << optimizerName << "\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      oo.engine.threads = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--max-seconds") == 0 && i + 1 < argc) {
      oo.engine.maxSeconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--stats-json") == 0) {
      statsJson = true;
    } else if (std::strcmp(argv[i], "--soft-guide") == 0 && i + 1 < argc) {
      const std::string spec = argv[++i];
      const size_t eq = spec.rfind('=');
      if (eq == std::string::npos || eq == 0) {
        std::cerr << "--soft-guide wants SUBSTR=WEIGHT, got: " << spec
                  << "\n";
        return 2;
      }
      engine::SoftGuide sg;
      sg.labelContains = spec.substr(0, eq);
      sg.weight = std::atoll(spec.c_str() + eq + 1);
      oo.engine.softGuides.push_back(std::move(sg));
    } else if (std::strcmp(argv[i], "--extrapolation") == 0 && i + 1 < argc) {
      if (!engine::parseExtrapolation(argv[++i], &oo.engine.extrapolation)) {
        std::cerr << "unknown extrapolation mode: " << argv[i] << "\n";
        return 2;
      }
    } else {
      batches = std::atoi(argv[i]);
    }
  }
  oo.engine.optLevel = frontend.optLevel;

  plant::PlantConfig cfg;
  cfg.order = plant::standardOrder(batches);
  cfg.makespanClock = true;
  const auto p = plant::buildPlant(cfg);
  // Lint against the query the optimizers run: the plant goal with a
  // bound on the makespan clock (binary search probes `gtime <= B`;
  // best-first minimizes it as the cost).
  ta::ParsedQuery query{p->goal.locations, p->goal.predicate,
                        p->goal.clockConstraints};
  query.clockConstraints.push_back(ta::ccLe(p->makespan, 0));
  examples::lintHandBuilt(p->sys, frontend, "optimize_makespan", {query});
  oo.heuristicTargets = heuristicTargets(*p);

  const synthesis::OptimizeResult res =
      synthesis::optimizeMakespan(p->sys, p->goal, p->makespan, oo);
  if (!res.feasible) {
    std::cerr << "no schedule at all\n";
    return 1;
  }
  std::cout << "first-found schedule: makespan " << res.firstMakespan
            << "\n";
  for (size_t i = 1; i < res.incumbents.size(); ++i) {
    std::cout << "  improved to " << res.incumbents[i] << "\n";
  }
  std::cout << "optimal makespan: " << res.optimalMakespan << " (saved "
            << res.firstMakespan - res.optimalMakespan
            << " time units over the first-found schedule, " << res.runs
            << (res.runs == 1 ? " run, " : " runs, ")
            << res.stats.statesExplored << " states)\n";
  if (!res.optimal) {
    std::cout << "  (cut off before the optimum was proven)\n";
  }
  if (statsJson) printStatsJson(std::cout, res, optimizerName);
  return 0;
}
