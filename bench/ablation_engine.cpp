// Ablation of the engine options the paper's experiments rely on
// (§5: the (in-)active clock reduction, plus bit-state hashing with its
// hash-size sensitivity) and of the zone-abstraction operators (global
// Extra_M, per-location Extra+_LU). The paper's compact constraint
// store is not ablated: the engine keeps one passed-store layout (see
// DESIGN.md, "Storage engine").
//
// Fixed workloads: the fully guided plant at 10 batches (depth-first)
// and Fischer's protocol at N = 7..9 (exhaustive proof of mutual
// exclusion — every stored state counts, so the abstraction's effect
// on the passed store is directly visible).
//
// `ablation_engine --smoke` runs only the abstraction gate: Fischer
// N=7 under Extra+_LU must agree with the global-M verdict while
// storing at least 20% fewer states, else exit nonzero (wired into
// ctest under the perf-smoke label).
#include <cstdio>
#include <cstring>

#include "bench_util.hpp"
#include "ta/system.hpp"

namespace {

benchutil::Report g_report("ablation_engine");

void runRow(const char* name, int batches, engine::Options opts) {
  plant::PlantConfig cfg;
  cfg.order = plant::standardOrder(batches);
  const auto p = plant::buildPlant(cfg);
  engine::Reachability checker(p->sys, opts);
  const engine::Result res = checker.run(p->goal);
  if (res.reachable) {
    std::printf("%-34s %10zu %10zu %10.3f %9.1f\n", name,
                res.stats.statesExplored, res.stats.storedZones,
                res.stats.seconds, res.stats.peakMegabytes());
    g_report.add(name, res.stats.seconds * 1000.0, res.stats.peakBytes,
                 res.stats.storedZones);
  } else {
    std::printf("%-34s %10s %10s %10s %9s   (cutoff=%d)\n", name, "-", "-",
                "-", "-", static_cast<int>(res.stats.cutoff));
  }
  std::fflush(stdout);
}

// ------------------------------------------------------------------
// Zone-abstraction ablation: Fischer's protocol, exhaustive mutex
// proof (K >= D, so the bad state is unreachable and the engine must
// visit the whole abstract zone graph).
// ------------------------------------------------------------------

/// Memory budget of every Fischer row: at least twice the largest
/// accounted peak of a row that exhausts its space in the full run
/// (Extra+_LU at N = 8, 1.5 GB; EXPERIMENTS.md, "Zone-abstraction
/// operators"). Rows that cannot finish within their time budget grow
/// until that budget or this one ends them.
constexpr size_t kFischerMemoryBytes = size_t{4} << 30;

engine::Result runFischer(int n, engine::Extrapolation ex, bool activeClocks,
                          double budget, size_t maxStates = 0) {
  const benchutil::Fischer f(n, /*d=*/2, /*k=*/3);
  engine::Options o;
  o.order = engine::SearchOrder::kBfs;  // deterministic stored counts
  o.extrapolation = ex;
  o.activeClockReduction = activeClocks;
  o.maxSeconds = budget;
  o.maxStates = maxStates;
  o.maxMemoryBytes = kFischerMemoryBytes;
  engine::Reachability checker(f.sys, o);
  return checker.run(f.mutexViolation());
}

void fischerRow(const char* name, int n, engine::Extrapolation ex,
                bool activeClocks, double budget, size_t globalStored) {
  const engine::Result res = runFischer(n, ex, activeClocks, budget);
  if (!res.exhausted) {
    std::printf("  %-32s %10s %10s %10s %9s %9.1f   (cutoff=%d)\n", name,
                "-", "-", "-", "-", res.stats.peakMegabytes(),
                static_cast<int>(res.stats.cutoff));
    return;
  }
  if (globalStored == 0) {
    // The global-M baseline itself hit a cutoff: no reference count.
    std::printf("  %-32s %10zu %10zu %10.3f %9s %9.1f\n", name,
                res.stats.statesExplored, res.stats.storedZones,
                res.stats.seconds, "n/a", res.stats.peakMegabytes());
  } else {
    const double red =
        100.0 * (1.0 - static_cast<double>(res.stats.storedZones) /
                           static_cast<double>(globalStored));
    std::printf("  %-32s %10zu %10zu %10.3f %8.1f%% %9.1f\n", name,
                res.stats.statesExplored, res.stats.storedZones,
                res.stats.seconds, red, res.stats.peakMegabytes());
  }
  std::fflush(stdout);
}

/// The acceptance gate: Extra+_LU (with the active-clock reduction)
/// must prove Fischer N=7 safe while storing at least 20% fewer zones
/// than global Extra_M. Global-M cannot exhaust N=7 in bench time, so
/// its run is truncated by a *state-count* cutoff: sequential BFS
/// makes the stored count at that point deterministic on any hardware,
/// and a truncated count only under-states the true total, so the
/// ratio test stays sound. The wall-clock budget is a backstop so a
/// pathologically slow box times the test out rather than flaking it.
int smoke() {
  constexpr int kN = 7;
  constexpr double kBudget = 480.0;
  constexpr size_t kBaseStates = 500000;
  const engine::Result base = runFischer(kN, engine::Extrapolation::kGlobalM,
                                         true, kBudget, kBaseStates);
  const engine::Result lu =
      runFischer(kN, engine::Extrapolation::kLocationLUPlus, true, kBudget);
  std::printf("fischer N=%d  globalM: stored=%zu exhausted=%d cutoff=%d  "
              "LU+: stored=%zu exhausted=%d coarsenings=%zu freed=%zu\n",
              kN, base.stats.storedZones, base.exhausted ? 1 : 0,
              static_cast<int>(base.stats.cutoff), lu.stats.storedZones,
              lu.exhausted ? 1 : 0, lu.stats.extrapolationCoarsenings,
              lu.stats.inactiveClocksFreed);
  if (!lu.exhausted) {
    std::printf("FAIL: Extra+_LU search hit a cutoff\n");
    return 1;
  }
  if (base.reachable || lu.reachable) {
    std::printf("FAIL: mutex violation claimed reachable (K >= D)\n");
    return 1;
  }
  if (!base.exhausted && base.stats.cutoff != engine::Cutoff::kStates) {
    std::printf("FAIL: global-M baseline stopped early (cutoff=%d)\n",
                static_cast<int>(base.stats.cutoff));
    return 1;
  }
  const double ratio = static_cast<double>(lu.stats.storedZones) /
                       static_cast<double>(base.stats.storedZones);
  if (ratio > 0.8) {
    std::printf("FAIL: Extra+_LU stored %.1f%% of the global-M states "
                "(need <= 80%%)\n", 100.0 * ratio);
    return 1;
  }
  std::printf("PASS: Extra+_LU stores %.1f%% of the global-M states "
              "(baseline %s)\n", 100.0 * ratio,
              base.exhausted ? "exhaustive" : "truncated lower bound");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return smoke();

  const int n = benchutil::quick() ? 5 : 10;
  const double budget = benchutil::quick() ? 10.0 : 60.0;

  std::printf("Engine-option ablation (All Guides, %d batches, DFS):\n\n", n);
  std::printf("%-34s %10s %10s %10s %9s\n", "configuration", "explored",
              "stored", "seconds", "peakMB");

  engine::Options base = benchutil::searchOptions("DFS", budget, 4096);
  runRow("baseline (full zones, inclusion)", n, base);

  {
    engine::Options o = base;
    o.activeClockReduction = false;
    runRow("no active-clock reduction", n, o);
  }
  {
    // Without extrapolation the zone graph need not be finite; the
    // budget turns divergence into a visible "-".
    engine::Options o = base;
    o.extrapolation = engine::Extrapolation::kNone;
    o.maxSeconds = benchutil::quick() ? 5.0 : 20.0;
    runRow("no max-bounds extrapolation", n, o);
  }
  {
    engine::Options o = base;
    o.extrapolation = engine::Extrapolation::kGlobalM;
    runRow("global Extra_M abstraction", n, o);
  }

  std::printf("\nZone-abstraction operators on Fischer (D=2, K=3, "
              "exhaustive mutex proof, BFS):\n\n");
  std::printf("  %-32s %10s %10s %10s %9s %9s\n", "configuration",
              "explored", "stored", "seconds", "vs glob", "peakMB");
  const int maxN = benchutil::quick() ? 7 : 9;
  const double fbudget = benchutil::quick() ? 60.0 : 300.0;
  for (int fn = 7; fn <= maxN; ++fn) {
    std::printf("  -- N = %d --\n", fn);
    const engine::Result g =
        runFischer(fn, engine::Extrapolation::kGlobalM, true, fbudget);
    const size_t gs = g.exhausted ? g.stats.storedZones : 0;
    fischerRow("global Extra_M", fn, engine::Extrapolation::kGlobalM, true,
               fbudget, gs);
    fischerRow("per-location Extra+_LU", fn,
               engine::Extrapolation::kLocationLUPlus, true, fbudget, gs);
    fischerRow("Extra+_LU, no active clocks", fn,
               engine::Extrapolation::kLocationLUPlus, false, fbudget, gs);
  }

  std::printf("\nBit-state hashing: hash-table size sensitivity "
              "(paper: \"finding suitable hash table sizes is very "
              "tedious\"):\n\n");
  std::printf("%-34s %10s %10s %10s %9s\n", "configuration", "explored",
              "stored", "seconds", "peakMB");
  for (const uint32_t bits : {16u, 19u, 21u, 23u, 25u}) {
    engine::Options o = base;
    o.bitstateHashing = true;
    o.hashBits = bits;
    // Bit-state hashing forsakes zone inclusion, which the guided model
    // depends on at this size — expect "-" rows (the paper: BSH "does
    // not improve the situation when applied to model instances with
    // guides"). Keep the budget small.
    o.maxSeconds = benchutil::quick() ? 5.0 : 15.0;
    char name[64];
    std::snprintf(name, sizeof name, "BSH, 2^%u-bit table", bits);
    runRow(name, n, o);
  }
  g_report.write();
  return 0;
}
