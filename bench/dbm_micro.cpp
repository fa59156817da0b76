// Micro-benchmarks of the DBM substrate (google-benchmark): the
// operations the reachability engine performs millions of times.
// `--simd-smoke` instead runs the roofline gate: the vectorized
// close / inclusion / batch-scan kernels must beat the forced-scalar
// baseline by >= 1.5x on hardware with a vector path, recorded in
// BENCH_dbm_micro.json (hw-aware skip elsewhere).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dbm/dbm.hpp"
#include "dbm/simd.hpp"
#include "dbm/zone_batch.hpp"

namespace {

dbm::Dbm randomZone(uint32_t dim, std::mt19937_64& rng) {
  std::uniform_int_distribution<int> clock(0, static_cast<int>(dim) - 1);
  std::uniform_int_distribution<int> val(-50, 50);
  for (;;) {
    dbm::Dbm z = dbm::Dbm::unconstrained(dim);
    for (uint32_t k = 0; k < dim; ++k) {
      const auto i = static_cast<uint32_t>(clock(rng));
      auto j = static_cast<uint32_t>(clock(rng));
      if (i == j) j = (j + 1) % dim;
      if (!z.constrain(i, j, dbm::boundWeak(val(rng)))) break;
    }
    if (!z.isEmpty()) return z;
  }
}

void BM_Close(benchmark::State& state) {
  const auto dim = static_cast<uint32_t>(state.range(0));
  std::mt19937_64 rng(7);
  dbm::Dbm z = randomZone(dim, rng);
  for (auto _ : state) {
    dbm::Dbm w = z;
    benchmark::DoNotOptimize(w.close());
  }
}
BENCHMARK(BM_Close)->Arg(8)->Arg(32)->Arg(64)->Arg(184);

void BM_Up(benchmark::State& state) {
  const auto dim = static_cast<uint32_t>(state.range(0));
  std::mt19937_64 rng(7);
  dbm::Dbm z = randomZone(dim, rng);
  for (auto _ : state) {
    dbm::Dbm w = z;
    w.up();
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_Up)->Arg(8)->Arg(32)->Arg(184);

void BM_ConstrainIncremental(benchmark::State& state) {
  const auto dim = static_cast<uint32_t>(state.range(0));
  std::mt19937_64 rng(7);
  dbm::Dbm z = randomZone(dim, rng);
  for (auto _ : state) {
    dbm::Dbm w = z;
    benchmark::DoNotOptimize(w.constrain(1, 0, dbm::boundWeak(3)));
  }
}
BENCHMARK(BM_ConstrainIncremental)->Arg(8)->Arg(32)->Arg(184);

void BM_Inclusion(benchmark::State& state) {
  const auto dim = static_cast<uint32_t>(state.range(0));
  std::mt19937_64 rng(7);
  const dbm::Dbm a = randomZone(dim, rng);
  const dbm::Dbm b = randomZone(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.includes(b));
  }
}
BENCHMARK(BM_Inclusion)->Arg(8)->Arg(32)->Arg(184);

void BM_Reset(benchmark::State& state) {
  const auto dim = static_cast<uint32_t>(state.range(0));
  std::mt19937_64 rng(7);
  dbm::Dbm z = randomZone(dim, rng);
  for (auto _ : state) {
    dbm::Dbm w = z;
    w.reset(1, 0);
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_Reset)->Arg(8)->Arg(32)->Arg(184);

void BM_Extrapolate(benchmark::State& state) {
  const auto dim = static_cast<uint32_t>(state.range(0));
  std::mt19937_64 rng(7);
  dbm::Dbm z = randomZone(dim, rng);
  std::vector<dbm::value_t> max(dim, 20);
  max[0] = 0;
  for (auto _ : state) {
    dbm::Dbm w = z;
    w.extrapolateMaxBounds(max);
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_Extrapolate)->Arg(8)->Arg(32)->Arg(184);

void BM_ExtrapolateLU(benchmark::State& state) {
  const auto dim = static_cast<uint32_t>(state.range(0));
  std::mt19937_64 rng(7);
  dbm::Dbm z = randomZone(dim, rng);
  // Asymmetric bounds with a sprinkling of "never compared" (-1)
  // entries — the shape the per-location analysis actually produces.
  std::vector<dbm::value_t> lower(dim, 20);
  std::vector<dbm::value_t> upper(dim, 20);
  lower[0] = upper[0] = 0;
  for (uint32_t i = 1; i < dim; ++i) {
    if (i % 3 == 0) lower[i] = -1;
    if (i % 4 == 0) upper[i] = 5;
  }
  for (auto _ : state) {
    dbm::Dbm w = z;
    w.extrapolateLUBounds(lower, upper);
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_ExtrapolateLU)->Arg(8)->Arg(32)->Arg(184);

void BM_FreeInactiveClocks(benchmark::State& state) {
  // The active-clock reduction keeps each zone over its live clocks
  // only: project away every clock inactive at the target location
  // vector, modelled here as a quarter of the clocks.
  const auto dim = static_cast<uint32_t>(state.range(0));
  std::mt19937_64 rng(7);
  dbm::Dbm z = randomZone(dim, rng);
  std::vector<int32_t> live;
  for (uint32_t i = 0; i < dim; ++i) {
    if (i == 0 || i % 4 != 1) live.push_back(static_cast<int32_t>(i));
  }
  for (auto _ : state) {
    dbm::Dbm w = z;
    w.remap(live);
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_FreeInactiveClocks)->Arg(8)->Arg(32)->Arg(184);

void BM_Hash(benchmark::State& state) {
  const auto dim = static_cast<uint32_t>(state.range(0));
  std::mt19937_64 rng(7);
  const dbm::Dbm z = randomZone(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(z.hash());
  }
}
BENCHMARK(BM_Hash)->Arg(8)->Arg(32)->Arg(184);

/// Fixed-iteration timings of the two hottest kernels, recorded in the
/// BENCH_dbm_micro.json trajectory (google-benchmark owns stdout; this
/// re-times a stable subset rather than parsing its reporter output).
void writeReport() {
  using Clock = std::chrono::steady_clock;
  benchutil::Report report("dbm_micro");
  std::mt19937_64 rng(7);
  for (const uint32_t dim : {32u, 184u}) {
    const dbm::Dbm z = randomZone(dim, rng);
    const dbm::Dbm w = randomZone(dim, rng);
    const int iters = dim > 100 ? 200 : 2000;

    Clock::time_point t0 = Clock::now();
    for (int k = 0; k < iters; ++k) {
      dbm::Dbm c = z;
      benchmark::DoNotOptimize(c.close());
    }
    report.add("close-dim" + std::to_string(dim) + "-x" +
                   std::to_string(iters),
               std::chrono::duration<double, std::milli>(Clock::now() - t0)
                   .count(),
               0, 0);

    t0 = Clock::now();
    for (int k = 0; k < iters * 10; ++k) {
      benchmark::DoNotOptimize(z.includes(w));
    }
    report.add("includes-dim" + std::to_string(dim) + "-x" +
                   std::to_string(iters * 10),
               std::chrono::duration<double, std::milli>(Clock::now() - t0)
                   .count(),
               0, 0);
  }
  report.write();
}

/// Best-of-three wall time of `body()` run `iters` times.
template <typename F>
double timeMs(int iters, F&& body) {
  using Clock = std::chrono::steady_clock;
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (int k = 0; k < iters; ++k) body();
    best = std::min(
        best,
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }
  return best;
}

/// Roofline gate: times the three kernel families the engines lean on —
/// Floyd–Warshall closure, pairwise inclusion, and the ZoneBatch
/// superset scan — once with dispatch forced to scalar and once at the
/// detected level, in this one binary. Returns the number of kernels
/// under the 1.5x bar (0 on scalar-only hardware: nothing to gate).
int simdSmoke() {
  namespace simd = dbm::simd;
  const simd::Level detected = simd::detectedLevel();
  benchutil::Report report("dbm_micro");
  if (detected == simd::Level::kScalar) {
    std::printf("simd-smoke: SKIP (no vector path on %s hardware)\n",
                simd::levelName(detected));
    report.add("simd-smoke-skipped", 0.0, 0, 0);
    report.write();
    return 0;
  }

  std::mt19937_64 rng(7);
  const uint32_t dim = 184;  // the 45-batch network's DBM size class
  const dbm::Dbm canon = randomZone(dim, rng);
  // close() on an already-canonical matrix still runs the full cubic
  // loop nest, so copies of one zone are a faithful workload.
  // The inclusion operand is a tightened copy: a true superset
  // relation scans every row to the end (a random pair fails on the
  // first entry and exits before the kernel can matter — the covered()
  // hot path is dominated by the scans that succeed).
  dbm::Dbm other = canon;
  other.constrain(1, 0, dbm::boundWeak(dbm::boundValue(canon.at(1, 0)) - 1));

  dbm::ZoneBatch batch(64);
  std::vector<dbm::Dbm> queries;
  {
    std::mt19937_64 brng(11);
    for (int k = 0; k < 256; ++k) batch.push(randomZone(64, brng));
    for (int k = 0; k < 64; ++k) queries.push_back(randomZone(64, brng));
  }

  struct Kernel {
    const char* name;
    int iters;
    double scalarMs = 0.0;
    double simdMs = 0.0;
  } kernels[] = {
      {"close-dim184", 40},
      {"includes-dim184", 20000},
      {"batch-superset-256x64", 200},
  };
  const auto runAll = [&](bool scalar) {
    simd::forceLevel(scalar ? simd::Level::kScalar : detected);
    double* slot = scalar ? &kernels[0].scalarMs : &kernels[0].simdMs;
    *slot = timeMs(kernels[0].iters, [&] {
      dbm::Dbm w = canon;
      benchmark::DoNotOptimize(w.close());
    });
    slot = scalar ? &kernels[1].scalarMs : &kernels[1].simdMs;
    *slot = timeMs(kernels[1].iters, [&] {
      benchmark::DoNotOptimize(canon.includes(other));
    });
    slot = scalar ? &kernels[2].scalarMs : &kernels[2].simdMs;
    *slot = timeMs(kernels[2].iters, [&] {
      for (const dbm::Dbm& q : queries) {
        benchmark::DoNotOptimize(batch.anySuperset(q.rawData()));
      }
    });
  };
  runAll(true);
  runAll(false);
  simd::forceLevel(detected);

  int failures = 0;
  for (const Kernel& k : kernels) {
    const double speedup = k.simdMs > 0.0 ? k.scalarMs / k.simdMs : 0.0;
    const bool ok = speedup >= 1.5;
    std::printf("simd-smoke: %-24s scalar %8.2f ms  %s %8.2f ms  %.2fx %s\n",
                k.name, k.scalarMs, simd::levelName(detected), k.simdMs,
                speedup, ok ? "ok" : "FAIL (< 1.5x)");
    if (!ok) ++failures;
    report.add(std::string(k.name) + "-scalar", k.scalarMs, 0, 0);
    report.add(std::string(k.name) + "-" + simd::levelName(detected),
               k.simdMs, 0, 0);
  }
  report.write();
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--simd-smoke") == 0) {
      return simdSmoke() == 0 ? 0 : 1;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  writeReport();
  return 0;
}
