// Monte-Carlo robustness campaign (paper §6): execute one synthesized
// control program against the simulated plant under a grid of channel
// and unit fault intensities — i.i.d. loss, Gilbert–Elliott bursts,
// jitter + duplication + reordering, per-unit clock drift, and
// local-controller crashes — with N independently seeded trials per
// cell, run in parallel.
//
// Per cell the campaign reports the trial success rate, the P50/P99
// completion-tick overhead versus the ideal (fault-free) run, the mean
// resend count, and watchdog halts; everything lands in
// BENCH_fault_campaign.json.
//
// Gate (--smoke and full runs alike): with the hardened codegen profile
// the program must succeed in 100% of trials on a perfect channel and
// in >= 95% of trials at 5% i.i.d. loss, and re-running a cell with the
// same seeds must reproduce identical per-trial outcomes.
//
// Usage: fault_campaign [--smoke] [--trials N] [--seed S] [--batches B]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "engine/trace.hpp"
#include "plant/plant.hpp"
#include "rcx/fault.hpp"
#include "rcx/plant_sim.hpp"
#include "synthesis/rcx_codegen.hpp"
#include "synthesis/schedule.hpp"

namespace {

constexpr int64_t kSlackTicks = 8000;
constexpr int32_t kTpu = 1000;

struct TrialResult {
  bool ok = false;
  bool watchdogHalted = false;
  int64_t ticks = 0;
  int64_t resends = 0;
};

struct Cell {
  std::string profile;  ///< fault family ("iid", "burst", ...)
  std::string codegen;  ///< "hardened" or "classic"
  double loss = 0.0;
  rcx::FaultPlan plan;
  const synthesis::RcxProgram* program = nullptr;
  int64_t idealTicks = 0;

  std::vector<TrialResult> trials;
};

struct CellSummary {
  int successes = 0;
  double successRate = 0.0;
  int64_t p50Overhead = -1;  ///< over successful trials; -1 = none
  int64_t p99Overhead = -1;
  double meanResends = 0.0;
  int watchdogHalts = 0;
};

rcx::FaultPlan makePlan(const std::string& profile, double loss) {
  rcx::FaultPlan f = rcx::FaultPlan::iidLoss(loss);
  if (profile == "burst") {
    // Bursty outages on top of the background loss: the channel turns
    // Bad on ~2% of messages and then eats 90% of traffic until it
    // recovers (expected burst length 1/0.3 ≈ 3.3 messages).
    f.burst.pGoodToBad = 0.02;
    f.burst.pBadToGood = 0.3;
    f.burst.lossGood = 0.0;
    f.burst.lossBad = 0.9;
  } else if (profile == "jitter") {
    f.jitterTicks = 40;
    f.duplicateProb = 0.05;
    f.reorderProb = 0.05;
  } else if (profile == "drift") {
    f.driftPpm = 500.0;
  } else if (profile == "crash") {
    // ~0.6 expected crashes per run (4-5 units, ~150k ticks); each
    // outage is well inside the watchdog budget.
    f.crash.crashPerTick = 1e-6;
    f.crash.downTicks = 2000;
  }
  return f;
}

TrialResult runTrial(const synthesis::RcxProgram& prog,
                     const plant::PlantConfig& cfg, const rcx::FaultPlan& plan,
                     uint64_t seed) {
  rcx::SimOptions sim;
  sim.messageLossProb = 0.0;
  sim.faults = plan;
  sim.seed = seed;
  sim.slackTicks = kSlackTicks;
  const rcx::SimResult out = rcx::runProgram(prog, cfg, kTpu, sim);
  TrialResult t;
  t.ok = out.ok();
  t.watchdogHalted = out.watchdogHalted;
  t.ticks = out.ticks;
  t.resends =
      out.commandsSent - static_cast<int64_t>(prog.commands.size());
  return t;
}

/// Run every (cell, trial) job across a worker pool. Trial `i` of any
/// cell always uses seed baseSeed + i, so the outcome of a trial is a
/// pure function of (cell plan, program, seed) — independent of the
/// thread count and of which other cells run.
void runCampaign(std::vector<Cell>& cells, const plant::PlantConfig& cfg,
                 int trials, uint64_t baseSeed) {
  struct Job {
    size_t cell;
    int trial;
  };
  std::vector<Job> jobs;
  for (size_t c = 0; c < cells.size(); ++c) {
    cells[c].trials.assign(static_cast<size_t>(trials), TrialResult{});
    for (int t = 0; t < trials; ++t) jobs.push_back(Job{c, t});
  }
  std::atomic<size_t> next{0};
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned nThreads = std::clamp(hw, 1u, 8u);
  std::vector<std::thread> pool;
  pool.reserve(nThreads);
  for (unsigned w = 0; w < nThreads; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        const size_t j = next.fetch_add(1, std::memory_order_relaxed);
        if (j >= jobs.size()) return;
        Cell& cell = cells[jobs[j].cell];
        const int t = jobs[j].trial;
        cell.trials[static_cast<size_t>(t)] =
            runTrial(*cell.program, cfg, cell.plan,
                     baseSeed + static_cast<uint64_t>(t));
      }
    });
  }
  for (std::thread& th : pool) th.join();
}

CellSummary summarize(const Cell& cell) {
  CellSummary s;
  std::vector<int64_t> overheads;
  int64_t resendSum = 0;
  for (const TrialResult& t : cell.trials) {
    resendSum += t.resends;
    if (t.watchdogHalted) ++s.watchdogHalts;
    if (t.ok) {
      ++s.successes;
      overheads.push_back(t.ticks - cell.idealTicks);
    }
  }
  const size_t n = cell.trials.size();
  s.successRate = n == 0 ? 0.0 : static_cast<double>(s.successes) /
                                     static_cast<double>(n);
  s.meanResends = n == 0 ? 0.0 : static_cast<double>(resendSum) /
                                     static_cast<double>(n);
  if (!overheads.empty()) {
    std::sort(overheads.begin(), overheads.end());
    s.p50Overhead = overheads[overheads.size() / 2];
    const size_t i99 = std::min(
        overheads.size() - 1,
        static_cast<size_t>(
            std::ceil(0.99 * static_cast<double>(overheads.size()))) -
            1);
    s.p99Overhead = overheads[i99];
  }
  return s;
}

void writeJson(const std::vector<Cell>& cells, int batches, int trials,
               uint64_t seed, double wallMs) {
  const std::filesystem::path out =
      benchutil::repoRoot() / "BENCH_fault_campaign.json";
  std::ofstream f(out);
  if (!f) return;
  f << "{\n  \"bench\": \"fault_campaign\",\n"
    << "  \"git_rev\": \"" << benchutil::gitRev() << "\",\n"
    << "  \"hostname\": \"" << benchutil::hostName() << "\",\n"
    << "  \"timestamp\": \"" << benchutil::utcTimestamp() << "\",\n"
    << "  \"batches\": " << batches << ",\n"
    << "  \"trials_per_cell\": " << trials << ",\n"
    << "  \"base_seed\": " << seed << ",\n"
    << "  \"wall_ms\": " << wallMs << ",\n  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const CellSummary s = summarize(c);
    f << "    {\"profile\": \"" << c.profile << "\", \"codegen\": \""
      << c.codegen << "\", \"loss\": " << c.loss
      << ", \"trials\": " << c.trials.size()
      << ", \"successes\": " << s.successes
      << ", \"success_rate\": " << s.successRate
      << ", \"ideal_ticks\": " << c.idealTicks
      << ", \"p50_overhead_ticks\": " << s.p50Overhead
      << ", \"p99_overhead_ticks\": " << s.p99Overhead
      << ", \"mean_resends\": " << s.meanResends
      << ", \"watchdog_halts\": " << s.watchdogHalts << "}"
      << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  f << "  ]\n}\n";
  std::printf("\nwrote %s\n", out.string().c_str());
}

const Cell* findCell(const std::vector<Cell>& cells,
                     const std::string& profile, const std::string& codegen,
                     double loss) {
  for (const Cell& c : cells) {
    if (c.profile == profile && c.codegen == codegen &&
        std::abs(c.loss - loss) < 1e-12) {
      return &c;
    }
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int trials = -1;
  int batches = -1;
  uint64_t seed = 5000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--trials") == 0 && i + 1 < argc) {
      trials = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--batches") == 0 && i + 1 < argc) {
      batches = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: fault_campaign [--smoke] [--trials N] "
                           "[--batches B] [--seed S]\n");
      return 2;
    }
  }
  if (batches < 1) batches = smoke ? 2 : 3;
  if (trials < 1) {
    trials = smoke ? 40 : (benchutil::quick() ? 12 : 50);
  }

  const auto wall0 = std::chrono::steady_clock::now();

  // 1. One schedule, synthesized once; both codegen profiles run it.
  plant::PlantConfig cfg;
  cfg.order = plant::standardOrder(batches);
  const auto p = plant::buildPlant(cfg);
  engine::Options opts;
  opts.order = engine::SearchOrder::kDfs;
  opts.dfsReverse = true;
  opts.maxSeconds = 120.0;
  // The default run peaks at ~4 MB accounted; a blow-up (say, a large
  // --batches) ends as Cutoff::kMemory instead of an OOM kill.
  opts.maxMemoryBytes = size_t{1} << 30;
  engine::Reachability checker(p->sys, opts);
  const engine::Result res = checker.run(p->goal);
  if (!res.reachable) {
    std::fputs("no schedule found\n", stderr);
    return 1;
  }
  std::string err;
  const auto ct = engine::concretize(p->sys, res.trace, &err);
  if (!ct.has_value()) {
    std::fprintf(stderr, "concretization failed: %s\n", err.c_str());
    return 1;
  }
  const synthesis::Schedule sched = synthesis::project(p->sys, *ct);

  synthesis::CodegenOptions classicCg;
  classicCg.ticksPerTimeUnit = kTpu;
  const synthesis::RcxProgram classicProg =
      synthesis::synthesize(sched, classicCg);
  const synthesis::RcxProgram hardenedProg = synthesis::synthesize(
      sched, synthesis::CodegenOptions::hardened(kTpu, kSlackTicks));

  // 2. Fault-free baselines (the "ideal schedule" the overhead
  //    percentiles are measured against).
  const TrialResult idealHardened =
      runTrial(hardenedProg, cfg, rcx::FaultPlan{}, seed);
  const TrialResult idealClassic =
      runTrial(classicProg, cfg, rcx::FaultPlan{}, seed);
  if (!idealHardened.ok || !idealClassic.ok) {
    std::fputs("FAIL: fault-free baseline run did not complete cleanly\n",
               stderr);
    return 1;
  }
  std::printf("%d batches, %zu commands; ideal ticks: hardened %lld, "
              "classic %lld; %d trials/cell\n",
              batches, hardenedProg.commands.size(),
              static_cast<long long>(idealHardened.ticks),
              static_cast<long long>(idealClassic.ticks), trials);

  // 3. The grid. Smoke keeps only the two gate cells; the full campaign
  //    sweeps every fault family and adds a classic-codegen comparison.
  std::vector<Cell> cells;
  const auto add = [&](const std::string& profile, double loss,
                       const synthesis::RcxProgram& prog,
                       const std::string& codegen, int64_t ideal) {
    Cell c;
    c.profile = profile;
    c.codegen = codegen;
    c.loss = loss;
    c.plan = makePlan(profile, loss);
    c.program = &prog;
    c.idealTicks = ideal;
    cells.push_back(std::move(c));
  };
  if (smoke) {
    add("iid", 0.0, hardenedProg, "hardened", idealHardened.ticks);
    add("iid", 0.05, hardenedProg, "hardened", idealHardened.ticks);
  } else {
    for (const char* profile : {"iid", "burst", "jitter", "drift", "crash"}) {
      for (const double loss : {0.0, 0.01, 0.05, 0.10, 0.20}) {
        add(profile, loss, hardenedProg, "hardened", idealHardened.ticks);
      }
    }
    // Classic Figure-6 codegen under the same adversary: the hardening
    // delta the EXPERIMENTS table reports.
    for (const double loss : {0.05, 0.20}) {
      add("iid", loss, classicProg, "classic", idealClassic.ticks);
    }
  }

  runCampaign(cells, cfg, trials, seed);

  // 4. Same-seed reproducibility: re-run the busiest gate cell and
  //    demand bit-identical per-trial outcomes (acceptance criterion —
  //    the split-stream channel makes trials pure functions of seed).
  {
    std::vector<Cell> again;
    Cell c;
    c.profile = "iid";
    c.codegen = "hardened";
    c.loss = smoke ? 0.05 : 0.20;
    c.plan = makePlan("iid", c.loss);
    c.program = &hardenedProg;
    c.idealTicks = idealHardened.ticks;
    again.push_back(std::move(c));
    runCampaign(again, cfg, trials, seed);
    const Cell* orig =
        findCell(cells, "iid", "hardened", again[0].loss);
    for (int t = 0; t < trials; ++t) {
      const TrialResult& a = orig->trials[static_cast<size_t>(t)];
      const TrialResult& b = again[0].trials[static_cast<size_t>(t)];
      if (a.ok != b.ok || a.ticks != b.ticks || a.resends != b.resends ||
          a.watchdogHalted != b.watchdogHalted) {
        std::fprintf(stderr,
                     "FAIL: trial %d not reproducible at identical seed "
                     "(ticks %lld vs %lld)\n",
                     t, static_cast<long long>(a.ticks),
                     static_cast<long long>(b.ticks));
        return 1;
      }
    }
    std::puts("reproducibility: identical seeds -> identical trial "
              "outcomes (checked one full cell twice)");
  }

  // 5. Report.
  std::printf("\n%8s %9s %6s %9s %12s %12s %10s %5s\n", "profile", "codegen",
              "loss", "success", "p50 ovh", "p99 ovh", "resends", "wd");
  for (const Cell& c : cells) {
    const CellSummary s = summarize(c);
    std::printf("%8s %9s %6.2f %8.1f%% %12lld %12lld %10.1f %5d\n",
                c.profile.c_str(), c.codegen.c_str(), c.loss,
                100.0 * s.successRate, static_cast<long long>(s.p50Overhead),
                static_cast<long long>(s.p99Overhead), s.meanResends,
                s.watchdogHalts);
  }
  const double wallMs = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - wall0)
                            .count();
  writeJson(cells, batches, trials, seed, wallMs);

  // 6. The robustness gate.
  const Cell* nominal = findCell(cells, "iid", "hardened", 0.0);
  const Cell* lossy = findCell(cells, "iid", "hardened", 0.05);
  const CellSummary sn = summarize(*nominal);
  const CellSummary sl = summarize(*lossy);
  bool pass = true;
  if (sn.successes != static_cast<int>(nominal->trials.size())) {
    std::printf("GATE FAIL: nominal channel success %d/%zu (need 100%%)\n",
                sn.successes, nominal->trials.size());
    pass = false;
  }
  if (sl.successRate < 0.95) {
    std::printf("GATE FAIL: 5%% i.i.d. loss success %.1f%% (need >= 95%%)\n",
                100.0 * sl.successRate);
    pass = false;
  }
  if (pass) {
    std::printf("GATE PASS: 100%% nominal, %.1f%% at 5%% i.i.d. loss "
                "(>= 95%% required)\n",
                100.0 * sl.successRate);
  }
  return pass ? 0 : 1;
}
