// Optimizer differential bench: one anytime best-first run against the
// paper's guided binary search on the 45-batch workload, both under
// bounded time and memory budgets (at this size neither certifies the
// optimum; the in-test differential pins exact equality at sizes the
// binary oracle exhausts). The smoke gate requires the best-first run
// to deliver a schedule at least as good as binary search in at most
// 0.8x its wall time; rows land in BENCH_bestfirst_opt.json.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.hpp"
#include "plant/plant.hpp"
#include "synthesis/schedule.hpp"

namespace {

std::vector<std::vector<ta::LocId>> plantTargets(const plant::Plant& p) {
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

// Accounted bytes per search. Best-first keeps a full zone per stored
// node (77 KB at 45 batches) and, left to its 60 s, outgrows a 16 GB
// host: its resident set runs ~1.7x the accounted bytes. At this budget
// it stops with a memory cut-off — an anytime answer, like a time
// cut-off — after ~20 s; binary's 24 s probes peak below it (2.9 GB
// accounted on a 4-core AVX2 host).
constexpr size_t kMemoryBudget = size_t{3} << 30;

struct RunResult {
  synthesis::OptimizeResult res;
  double wallSeconds = 0.0;
};

RunResult runOptimizer(const plant::Plant& p, synthesis::Optimizer which,
                       double budgetSeconds) {
  synthesis::OptimizeOptions oo;
  oo.optimizer = which;
  oo.engine.order = engine::SearchOrder::kDfs;
  oo.engine.dfsReverse = true;
  oo.engine.maxSeconds = budgetSeconds;
  oo.engine.maxMemoryBytes = kMemoryBudget;
  oo.heuristicTargets = plantTargets(p);
  const auto t0 = std::chrono::steady_clock::now();
  RunResult out;
  out.res = synthesis::optimizeMakespan(p.sys, p.goal, p.makespan, oo);
  out.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const bool quick = benchutil::quick();

  // Full mode: the 45-batch guided workload. Binary search gets the
  // same per-probe budget regime the EXPERIMENTS baseline used (probes
  // that exhaust neither verdict in time count as infeasible — the
  // binary result is an upper bound, like any anytime answer); the
  // best-first run gets a fraction of the binary wall time. Quick mode
  // shrinks to 2 batches, where both certify the optimum in seconds.
  const int batches = quick ? 2 : 45;
  const double probeBudget = quick ? 30.0 : 24.0;
  const double bestFirstBudget = quick ? 60.0 : 60.0;

  plant::PlantConfig cfg;
  cfg.order = plant::standardOrder(batches);
  cfg.makespanClock = true;
  const auto p = plant::buildPlant(cfg);

  // Each arm's line is printed as soon as it finishes, so a run killed
  // in the second arm still shows the first.
  const auto print = [](const char* name, const RunResult& r) {
    std::printf("  %-9s  makespan %lld%s  %zu runs  %zu states  %.1fs wall\n",
                name, static_cast<long long>(r.res.optimalMakespan),
                r.res.optimal ? "" : " (unproven)", r.res.runs,
                r.res.stats.statesExplored, r.wallSeconds);
    std::fflush(stdout);
  };
  std::printf("%d batches:\n", batches);
  const RunResult binary =
      runOptimizer(*p, synthesis::Optimizer::kBinary, probeBudget);
  print("binary", binary);
  const RunResult best =
      runOptimizer(*p, synthesis::Optimizer::kBestFirst, bestFirstBudget);
  print("bestfirst", best);

  benchutil::Report report("bestfirst_opt");
  const std::string suffix = std::to_string(batches) + "batch";
  report.add("binary-" + suffix + "-makespan" +
                 std::to_string(binary.res.optimalMakespan),
             binary.wallSeconds * 1000.0, binary.res.stats.peakBytes,
             binary.res.stats.statesExplored);
  report.add("bestfirst-" + suffix + "-makespan" +
                 std::to_string(best.res.optimalMakespan),
             best.wallSeconds * 1000.0, best.res.stats.peakBytes,
             best.res.stats.statesExplored);
  report.write();

  if (!smoke) return 0;

  int failures = 0;
  if (!binary.res.feasible || !best.res.feasible) {
    std::printf("FAIL: optimizer found no schedule at all\n");
    ++failures;
  }
  if (best.res.optimalMakespan > binary.res.optimalMakespan) {
    std::printf("FAIL: best-first makespan %lld worse than binary %lld\n",
                static_cast<long long>(best.res.optimalMakespan),
                static_cast<long long>(binary.res.optimalMakespan));
    ++failures;
  }
  if (best.wallSeconds > 0.8 * binary.wallSeconds) {
    std::printf("FAIL: best-first wall %.1fs exceeds 0.8x binary %.1fs\n",
                best.wallSeconds, binary.wallSeconds);
    ++failures;
  }
  if (quick &&
      (!binary.res.optimal || !best.res.optimal ||
       best.res.optimalMakespan != binary.res.optimalMakespan)) {
    std::printf("FAIL: quick mode expects both optimizers to certify the "
                "same optimum\n");
    ++failures;
  }
  if (failures == 0) std::printf("bestfirst_opt smoke: PASS\n");
  return failures == 0 ? 0 : 1;
}
