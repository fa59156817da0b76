// Thread-scaling of the parallel BFS engine on the paper's hardest
// tractable workload shape: No-Guides batch-plant reachability.
//
// Exhausting the unguided state space is exactly what Table 1 shows to
// be hopeless, so the workload is budget-bounded: every run explores
// the same maxStates budget of the 5-batch No-Guides model and stops on
// the states cutoff — fixed work, honest wall-clock comparison, and the
// reachability verdict must be identical across thread counts.
//
// stdout: one JSON object per line,
//   {"workload": ..., "threads": N, "seconds": S,
//    "statesExplored": E, "peakBytes": B}
// (machine-readable for the bench trajectory); the human-readable table
// goes to stderr. Exit code != 0 on verdict mismatch or — in --quick
// mode, the `perf-smoke` ctest label — gross scaling regression.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"

namespace {

struct Run {
  size_t threads;
  bool reachable;
  engine::Cutoff cutoff;
  double seconds;
  size_t explored;
  size_t peakBytes;
};

Run runWorkload(int batches, size_t maxStates, size_t threads) {
  plant::PlantConfig cfg;
  cfg.order = plant::standardOrder(batches);
  cfg.guides = plant::GuideLevel::kNone;
  const auto p = plant::buildPlant(cfg);

  engine::Options o;
  o.order = engine::SearchOrder::kBfs;
  o.threads = threads;
  o.maxStates = maxStates;
  o.maxSeconds = 900.0;
  // The full run peaks at ~1.9 GB accounted.
  o.maxMemoryBytes = size_t{4} << 30;
  engine::Reachability checker(p->sys, o);
  const engine::Result res = checker.run(p->goal);
  return Run{threads,          res.reachable,       res.stats.cutoff,
             res.stats.seconds, res.stats.statesExplored,
             res.stats.peakBytes};
}

}  // namespace

int main(int argc, char** argv) {
  bool quickMode = benchutil::quick();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quickMode = true;
  }
  const int batches = quickMode ? 3 : 5;
  const size_t maxStates = quickMode ? 30000 : 150000;
  const std::string workload =
      "noguides-" + std::to_string(batches) + "batch-" +
      std::to_string(maxStates / 1000) + "k";

  std::vector<size_t> threadCounts{1, 2, 4};
  if (!quickMode && std::thread::hardware_concurrency() >= 8) {
    threadCounts.push_back(8);
  }
  if (quickMode) threadCounts = {1, 4};

  std::fprintf(stderr, "parallel_scaling: %s\n\n", workload.c_str());
  std::fprintf(stderr, "%8s %10s %10s %12s %10s %9s\n", "threads", "seconds",
               "speedup", "explored", "peakMB", "verdict");

  int rc = 0;
  double base = 0.0;
  bool baseReachable = false;
  double speedup4 = 0.0;
  benchutil::Report report("parallel_scaling");
  for (const size_t t : threadCounts) {
    const Run r = runWorkload(batches, maxStates, t);
    report.add(workload + "-t" + std::to_string(t), r.seconds * 1000.0,
               r.peakBytes, r.explored);
    if (t == 1) {
      base = r.seconds;
      baseReachable = r.reachable;
    } else if (r.reachable != baseReachable) {
      std::fprintf(stderr, "VERDICT MISMATCH at %zu threads\n", t);
      rc = 1;
    }
    const double speedup = (t == 1 || r.seconds <= 0.0)
                               ? 1.0
                               : base / r.seconds;
    if (t == 4) speedup4 = speedup;
    std::fprintf(stderr, "%8zu %10.2f %9.2fx %12zu %10.1f %9s\n", t,
                 r.seconds, speedup, r.explored,
                 static_cast<double>(r.peakBytes) / (1024.0 * 1024.0),
                 r.reachable ? "reach" : "unreach");
    std::printf(
        "{\"workload\": \"%s\", \"threads\": %zu, \"seconds\": %.3f, "
        "\"statesExplored\": %zu, \"peakBytes\": %zu}\n",
        workload.c_str(), t, r.seconds, r.explored, r.peakBytes);
    std::fflush(stdout);
  }
  // Smoke gate: 4 workers must beat 1 by a clear margin — 2x full,
  // 1.3x quick (the tiny workload cannot amortize barriers as well).
  // The gate presumes hardware to run 4 workers on; on hosts with
  // fewer cores it degrades proportionally, down to a bounded-overhead
  // check (the 4-thread run may not collapse) on a single core, where
  // wall-clock speedup is physically impossible.
  const double hw = static_cast<double>(
      std::max(1u, std::thread::hardware_concurrency()));
  const double parallelism = std::min(4.0, hw);
  const double required =
      std::max(0.75, (quickMode ? 0.325 : 0.5) * parallelism);
  if (hw < 4.0) {
    std::fprintf(stderr,
                 "note: only %.0f hardware thread(s); scaling gate "
                 "reduced to %.2fx\n",
                 hw, required);
  }
  if (speedup4 < required) {
    std::fprintf(stderr, "scaling regression: %.2fx at 4 threads (< %.1fx)\n",
                 speedup4, required);
    rc = 1;
  }
  report.write();
  return rc;
}
