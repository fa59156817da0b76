// Ablation of the engine options the paper's experiments rely on
// (§5: "the compact data-structure for constraints, the
// control-structure reduction, and ... the (in-)active clock
// reduction", plus bit-state hashing with its hash-size sensitivity)
// and of the zone-abstraction operators (global Extra_M, per-location
// Extra+_LU).
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
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "engine/trace.hpp"
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
// Passed-store ablation: bytes held by the storage engine (flat store
// + interner arena) under the PR 4 knobs, on the guided plant.
// ------------------------------------------------------------------

engine::Result runStoreConfig(int batches, bool intern, bool compact,
                              bool merge, double budget) {
  plant::PlantConfig cfg;
  cfg.order = plant::standardOrder(batches);
  const auto p = plant::buildPlant(cfg);
  engine::Options o = benchutil::searchOptions("DFS", budget, 8192);
  o.internStates = intern;
  o.compactPassed = compact;
  o.mergeZones = merge;
  engine::Reachability checker(p->sys, o);
  return checker.run(p->goal);
}

void storeRow(const char* name, int batches, bool intern, bool compact,
              bool merge, double budget, size_t baselineBytes) {
  const engine::Result res =
      runStoreConfig(batches, intern, compact, merge, budget);
  if (!res.reachable) {
    std::printf("%-34s %10s %10s %10s %9s   (cutoff=%d)\n", name, "-", "-",
                "-", "-", static_cast<int>(res.stats.cutoff));
    return;
  }
  const size_t bytes = res.stats.storeBytes + res.stats.internBytes;
  if (baselineBytes == 0) {
    std::printf("%-34s %10zu %10zu %10.1f %9s\n", name,
                res.stats.storedZones, res.stats.zonesMerged,
                static_cast<double>(bytes) / (1024.0 * 1024.0), "base");
  } else {
    std::printf("%-34s %10zu %10zu %10.1f %8.1f%%\n", name,
                res.stats.storedZones, res.stats.zonesMerged,
                static_cast<double>(bytes) / (1024.0 * 1024.0),
                100.0 * static_cast<double>(bytes) /
                    static_cast<double>(baselineBytes));
  }
  g_report.add(std::string("store-") + name, res.stats.seconds * 1000.0,
               bytes, res.stats.storedZones);
  std::fflush(stdout);
}

/// The PR 4 acceptance gate: on the large guided workload the
/// interned + merged + reduced-form store must hold <= 70% of the
/// bytes of the pre-interning layout (append-only arena, full zones,
/// no merging) at the same verdict, with a trace that still validates.
/// Both runs are goal-directed DFS with the same seed, so the byte
/// counts are deterministic per build.
int storeSmoke() {
  const int batches = benchutil::quick() ? 15 : 45;
  constexpr double kBudget = 480.0;
  const engine::Result base =
      runStoreConfig(batches, false, false, false, kBudget);
  const engine::Result opt =
      runStoreConfig(batches, true, true, true, kBudget);
  const size_t baseBytes = base.stats.storeBytes + base.stats.internBytes;
  const size_t optBytes = opt.stats.storeBytes + opt.stats.internBytes;
  std::printf("guided %d-batch  baseline: reach=%d store+intern=%.1f MB  "
              "optimized: reach=%d store+intern=%.1f MB merges=%zu\n",
              batches, base.reachable ? 1 : 0,
              static_cast<double>(baseBytes) / (1024.0 * 1024.0),
              opt.reachable ? 1 : 0,
              static_cast<double>(optBytes) / (1024.0 * 1024.0),
              opt.stats.zonesMerged);
  if (!base.reachable || !opt.reachable) {
    std::printf("FAIL: schedule not found (baseline=%d optimized=%d)\n",
                base.reachable ? 1 : 0, opt.reachable ? 1 : 0);
    return 1;
  }
  // The optimized store must not change the answer's substance: the
  // trace it reconstructs still concretizes into a valid timed run.
  {
    plant::PlantConfig cfg;
    cfg.order = plant::standardOrder(batches);
    const auto p = plant::buildPlant(cfg);
    std::string err;
    const auto ct = engine::concretize(p->sys, opt.trace, &err);
    if (!ct.has_value() || !engine::validate(p->sys, *ct, &err)) {
      std::printf("FAIL: optimized-store trace invalid: %s\n", err.c_str());
      return 1;
    }
  }
  const double ratio =
      static_cast<double>(optBytes) / static_cast<double>(baseBytes);
  if (ratio > 0.7) {
    std::printf("FAIL: optimized store holds %.1f%% of baseline bytes "
                "(need <= 70%%)\n", 100.0 * ratio);
    return 1;
  }
  std::printf("PASS: optimized store holds %.1f%% of baseline bytes\n",
              100.0 * ratio);
  return 0;
}

// ------------------------------------------------------------------
// Zone-abstraction ablation: Fischer's protocol, exhaustive mutex
// proof (K >= D, so the bad state is unreachable and the engine must
// visit the whole abstract zone graph).
// ------------------------------------------------------------------

engine::Result runFischer(int n, engine::Extrapolation ex, bool activeClocks,
                          double budget, size_t maxStates = 0) {
  const benchutil::Fischer f(n, /*d=*/2, /*k=*/3);
  engine::Options o;
  o.order = engine::SearchOrder::kBfs;  // deterministic stored counts
  o.extrapolation = ex;
  o.activeClockReduction = activeClocks;
  o.maxSeconds = budget;
  o.maxStates = maxStates;
  engine::Reachability checker(f.sys, o);
  return checker.run(f.mutexViolation());
}

void fischerRow(const char* name, int n, engine::Extrapolation ex,
                bool activeClocks, double budget, size_t globalStored) {
  const engine::Result res = runFischer(n, ex, activeClocks, budget);
  if (!res.exhausted) {
    std::printf("  %-32s %10s %10s %10s %9s   (cutoff=%d)\n", name, "-", "-",
                "-", "-", static_cast<int>(res.stats.cutoff));
    return;
  }
  if (globalStored == 0) {
    // The global-M baseline itself hit a cutoff: no reference count.
    std::printf("  %-32s %10zu %10zu %10.3f %9s\n", name,
                res.stats.statesExplored, res.stats.storedZones,
                res.stats.seconds, "n/a");
  } else {
    const double red =
        100.0 * (1.0 - static_cast<double>(res.stats.storedZones) /
                           static_cast<double>(globalStored));
    std::printf("  %-32s %10zu %10zu %10.3f %8.1f%%\n", name,
                res.stats.statesExplored, res.stats.storedZones,
                res.stats.seconds, red);
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
  if (argc > 1 && std::strcmp(argv[1], "--store-smoke") == 0) {
    return storeSmoke();
  }

  const int n = benchutil::quick() ? 5 : 10;
  const double budget = benchutil::quick() ? 10.0 : 60.0;

  std::printf("Engine-option ablation (All Guides, %d batches, DFS):\n\n", n);
  std::printf("%-34s %10s %10s %10s %9s\n", "configuration", "explored",
              "stored", "seconds", "peakMB");

  engine::Options base = benchutil::searchOptions("DFS", budget, 4096);
  base.compactPassed = false;  // toggled explicitly below
  runRow("baseline (full zones, inclusion)", n, base);

  {
    engine::Options o = base;
    o.compactPassed = true;
    runRow("compact passed-list zones [9]", n, o);
  }
  {
    engine::Options o = base;
    o.activeClockReduction = false;
    runRow("no active-clock reduction", n, o);
  }
  {
    // Zone inclusion is what keeps the guided plant tractable: exact-
    // equality deduplication revisits near-identical zones endlessly.
    engine::Options o = base;
    o.inclusionChecking = false;
    o.maxSeconds = benchutil::quick() ? 5.0 : 20.0;
    runRow("no zone-inclusion checking", n, o);
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
  std::printf("  %-32s %10s %10s %10s %9s\n", "configuration", "explored",
              "stored", "seconds", "vs glob");
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

  std::printf("\nPassed-store bytes (All Guides, %d batches, DFS; "
              "store + interner arena):\n\n", n);
  std::printf("%-34s %10s %10s %10s %9s\n", "configuration", "stored",
              "merged", "MB", "vs base");
  {
    const engine::Result b = runStoreConfig(n, false, false, false, budget);
    const size_t bb =
        b.reachable ? b.stats.storeBytes + b.stats.internBytes : 0;
    if (b.reachable) {
      std::printf("%-34s %10zu %10zu %10.1f %9s\n",
                  "no interning, full zones", b.stats.storedZones,
                  b.stats.zonesMerged,
                  static_cast<double>(bb) / (1024.0 * 1024.0), "base");
      g_report.add("store-no-interning-full", b.stats.seconds * 1000.0, bb,
                   b.stats.storedZones);
    }
    storeRow("interned, full zones", n, true, false, false, budget, bb);
    storeRow("interned + merging", n, true, false, true, budget, bb);
    storeRow("interned + compact + merging", n, true, true, true, budget, bb);
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
