// Monte-Carlo closed-loop replanning campaign: the same synthesized
// schedule is executed under fault profiles harsh enough to defeat the
// hardened retry layer (long bursty outages, local-controller crashes
// that out-last the watchdog budget), once with hardened codegen alone
// and once with the full closed loop (replan/controller.hpp): fatal
// deviation -> quiesced snapshot -> state lifting -> budgeted repair
// search -> splice.
//
// Per cell the campaign reports the trial success rate, how many
// replans the closed loop spent, how many runs ended in a safe stop,
// and the wall-clock replanning latency P50/P99; everything lands in
// BENCH_replan_campaign.json with provenance fields.
//
// Gate (--smoke and full runs alike): on the burst-loss and the
// crash-restart cells the replanning arm must succeed strictly more
// often than hardened codegen alone, and re-running a replanning cell
// with the same seeds must reproduce identical per-trial outcomes
// (latencies excluded — budgets are in explored states, not seconds).
//
// Usage: replan_campaign [--smoke] [--trials N] [--seed S] [--batches B]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "engine/trace.hpp"
#include "plant/plant.hpp"
#include "rcx/fault.hpp"
#include "rcx/plant_sim.hpp"
#include "replan/controller.hpp"
#include "synthesis/rcx_codegen.hpp"
#include "synthesis/schedule.hpp"

namespace {

constexpr int64_t kSlackTicks = 8000;
constexpr int32_t kTpu = 1000;
constexpr int64_t kReplanChargeTicks = 2000;
// Budget of the schedule search and of every repair search. The
// default run peaks at ~4 MB accounted; a blow-up (say, a large
// --batches) ends as Cutoff::kMemory instead of an OOM kill.
constexpr size_t kMaxMemoryBytes = size_t{1} << 30;

struct TrialOutcome {
  bool ok = false;
  bool safeStopped = false;
  int replans = 0;
  int maxLadderLevel = -1;
  int64_t ticks = 0;
  rcx::DeviationKind firstDeviation = rcx::DeviationKind::kNone;
  std::string detail;  ///< safe-stop reason / segment trail (--verbose)
  /// Wall-clock replan latencies (seconds). Reported, never compared:
  /// the search budgets are deterministic (explored states), the wall
  /// time is not.
  std::vector<double> latencies;
};

struct Cell {
  std::string profile;  ///< "burst" or "crash"
  std::string arm;      ///< "hardened" (open loop) or "replan"
  rcx::FaultPlan plan;
  std::vector<TrialOutcome> trials;
};

/// Fault profiles sized to defeat the hardened retry layer outright:
/// the watchdog budget at this slack is 3200 polls = 64k ticks of
/// silence, so both profiles manufacture outages around or past it.
rcx::FaultPlan makePlan(const std::string& profile) {
  if (profile == "burst") {
    // Total outages with an expected length of ~50 carried messages.
    // Under the capped exponential backoff most outages out-last the
    // watchdog; the rest blow the plant's timing slack instead.
    rcx::FaultPlan f = rcx::FaultPlan::iidLoss(0.02);
    f.burst.pGoodToBad = 0.02;
    f.burst.pBadToGood = 0.02;
    f.burst.lossGood = 0.0;
    f.burst.lossBad = 1.0;
    return f;
  }
  // "crash": ~1.5 expected crashes per run, each taking the unit down
  // for longer than the watchdog budget — the open loop must halt.
  rcx::FaultPlan f = rcx::FaultPlan::iidLoss(0.01);
  f.crash.crashPerTick = 2e-6;
  f.crash.downTicks = 72'000;
  return f;
}

TrialOutcome runOpenLoop(const synthesis::RcxProgram& prog,
                         const plant::PlantConfig& cfg,
                         const rcx::FaultPlan& plan, uint64_t seed) {
  rcx::SimOptions sim;
  sim.messageLossProb = 0.0;
  sim.faults = plan;
  sim.seed = seed;
  sim.slackTicks = kSlackTicks;
  const rcx::SimResult out = rcx::runProgram(prog, cfg, kTpu, sim);
  TrialOutcome t;
  t.ok = out.ok();
  t.ticks = out.ticks;
  t.firstDeviation = out.deviation;
  return t;
}

TrialOutcome runClosedLoop(const synthesis::Schedule& sched,
                           const plant::PlantConfig& cfg,
                           const synthesis::CodegenOptions& cg,
                           const rcx::FaultPlan& plan, uint64_t seed) {
  replan::ControllerOptions opts;
  opts.sim.messageLossProb = 0.0;
  opts.sim.faults = plan;
  opts.sim.seed = seed;
  opts.sim.slackTicks = kSlackTicks;
  opts.codegen = cg;
  opts.ticksPerTimeUnit = kTpu;
  // Bursty channels can knock over several consecutive repair segments;
  // each replan is a few ms of search, so the budget is generous.
  opts.maxReplans = 8;
  opts.replanChargeTicks = kReplanChargeTicks;
  opts.resume.strictMaxStates = 150'000;
  opts.resume.relaxedMaxStates = 400'000;
  opts.resume.engine.maxMemoryBytes = kMaxMemoryBytes;
  const replan::RunReport rep = replan::runWithReplanning(cfg, sched, opts);
  TrialOutcome t;
  t.ok = rep.success;
  t.safeStopped = rep.safeStopped;
  t.replans = rep.replans;
  t.maxLadderLevel = rep.maxLadderLevel;
  t.ticks = rep.finalResult.ticks;
  if (!rep.segments.empty()) t.firstDeviation = rep.segments[0].deviation;
  t.latencies = rep.replanLatencySeconds;
  for (const replan::SegmentInfo& s : rep.segments) {
    t.detail += std::string(rcx::deviationName(s.deviation)) +
                (s.detail.empty() ? "" : "{" + s.detail + "}") +
                (s.replanned ? "->L" + std::to_string(s.ladderLevel) : "") +
                " @" + std::to_string(s.capturedTick) + " ";
  }
  if (rep.safeStopped) t.detail += "| " + rep.safeStopReason;
  return t;
}

void runCampaign(std::vector<Cell>& cells, const synthesis::Schedule& sched,
                 const synthesis::RcxProgram& prog,
                 const plant::PlantConfig& cfg,
                 const synthesis::CodegenOptions& cg, int trials,
                 uint64_t baseSeed) {
  struct Job {
    size_t cell;
    int trial;
  };
  std::vector<Job> jobs;
  for (size_t c = 0; c < cells.size(); ++c) {
    cells[c].trials.assign(static_cast<size_t>(trials), TrialOutcome{});
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
        const uint64_t seed = baseSeed + static_cast<uint64_t>(t);
        cell.trials[static_cast<size_t>(t)] =
            cell.arm == "replan"
                ? runClosedLoop(sched, cfg, cg, cell.plan, seed)
                : runOpenLoop(prog, cfg, cell.plan, seed);
      }
    });
  }
  for (std::thread& th : pool) th.join();
}

struct CellSummary {
  int successes = 0;
  double successRate = 0.0;
  int safeStops = 0;
  int replansTotal = 0;
  double p50LatencyMs = -1.0;
  double p99LatencyMs = -1.0;
};

CellSummary summarize(const Cell& cell) {
  CellSummary s;
  std::vector<double> lat;
  for (const TrialOutcome& t : cell.trials) {
    if (t.ok) ++s.successes;
    if (t.safeStopped) ++s.safeStops;
    s.replansTotal += t.replans;
    for (double l : t.latencies) lat.push_back(l * 1000.0);
  }
  const size_t n = cell.trials.size();
  s.successRate = n == 0 ? 0.0 : static_cast<double>(s.successes) /
                                     static_cast<double>(n);
  if (!lat.empty()) {
    std::sort(lat.begin(), lat.end());
    s.p50LatencyMs = lat[lat.size() / 2];
    const size_t i99 = std::min(
        lat.size() - 1,
        static_cast<size_t>(std::ceil(0.99 * static_cast<double>(lat.size()))) -
            1);
    s.p99LatencyMs = lat[i99];
  }
  return s;
}

void writeJson(const std::vector<Cell>& cells, int batches, int trials,
               uint64_t seed, double wallMs) {
  const std::filesystem::path out =
      benchutil::repoRoot() / "BENCH_replan_campaign.json";
  std::ofstream f(out);
  if (!f) return;
  f << "{\n  \"bench\": \"replan_campaign\",\n"
    << "  \"git_rev\": \"" << benchutil::gitRev() << "\",\n"
    << "  \"hostname\": \"" << benchutil::hostName() << "\",\n"
    << "  \"timestamp\": \"" << benchutil::utcTimestamp() << "\",\n"
    << "  \"batches\": " << batches << ",\n"
    << "  \"trials_per_cell\": " << trials << ",\n"
    << "  \"base_seed\": " << seed << ",\n"
    << "  \"replan_charge_ticks\": " << kReplanChargeTicks << ",\n"
    << "  \"wall_ms\": " << wallMs << ",\n  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const CellSummary s = summarize(c);
    f << "    {\"profile\": \"" << c.profile << "\", \"arm\": \"" << c.arm
      << "\", \"trials\": " << c.trials.size()
      << ", \"successes\": " << s.successes
      << ", \"success_rate\": " << s.successRate
      << ", \"safe_stops\": " << s.safeStops
      << ", \"replans_total\": " << s.replansTotal
      << ", \"p50_replan_ms\": " << s.p50LatencyMs
      << ", \"p99_replan_ms\": " << s.p99LatencyMs << "}"
      << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  f << "  ]\n}\n";
  std::printf("\nwrote %s\n", out.string().c_str());
}

const Cell* findCell(const std::vector<Cell>& cells,
                     const std::string& profile, const std::string& arm) {
  for (const Cell& c : cells) {
    if (c.profile == profile && c.arm == arm) return &c;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool verbose = false;
  int trials = -1;
  int batches = -1;
  uint64_t seed = 7000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      verbose = true;
    } else if (std::strcmp(argv[i], "--trials") == 0 && i + 1 < argc) {
      trials = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--batches") == 0 && i + 1 < argc) {
      batches = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: replan_campaign [--smoke] [--trials N] "
                           "[--batches B] [--seed S]\n");
      return 2;
    }
  }
  if (batches < 1) batches = 2;
  if (trials < 1) {
    trials = smoke ? 10 : (benchutil::quick() ? 10 : 24);
  }

  const auto wall0 = std::chrono::steady_clock::now();

  // 1. One schedule; both arms execute it with the same hardened
  //    codegen profile (resend policy resolved the satellite way).
  plant::PlantConfig cfg;
  cfg.order = plant::standardOrder(batches);
  const auto p = plant::buildPlant(cfg);
  engine::Options eopts;
  eopts.order = engine::SearchOrder::kDfs;
  eopts.dfsReverse = true;
  eopts.maxSeconds = 120.0;
  eopts.maxMemoryBytes = kMaxMemoryBytes;
  engine::Reachability checker(p->sys, eopts);
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
  const synthesis::CodegenOptions cg = synthesis::CodegenOptions::hardened(
      kTpu, kSlackTicks,
      synthesis::CodegenOptions::resolveResend(synthesis::ResendPolicy::kAuto,
                                               0.02));
  const synthesis::RcxProgram prog = synthesis::synthesize(sched, cg);

  // Fault-free closed-loop sanity run: with a perfect channel the
  // controller must finish in segment one with zero replans.
  {
    const TrialOutcome ideal =
        runClosedLoop(sched, cfg, cg, rcx::FaultPlan{}, seed);
    if (!ideal.ok || ideal.replans != 0) {
      std::fputs("FAIL: fault-free closed-loop baseline deviated\n", stderr);
      return 1;
    }
  }
  std::printf("%d batches, %zu commands, %d trials/cell\n", batches,
              prog.commands.size(), trials);

  // 2. The grid: each profile once per arm, same seeds across arms
  //    (paired comparison).
  std::vector<Cell> cells;
  for (const char* profile : {"burst", "crash"}) {
    for (const char* arm : {"hardened", "replan"}) {
      Cell c;
      c.profile = profile;
      c.arm = arm;
      c.plan = makePlan(profile);
      cells.push_back(std::move(c));
    }
  }
  runCampaign(cells, sched, prog, cfg, cg, trials, seed);

  // 3. Same-seed reproducibility of a full replanning cell: ladder
  //    decisions, replan counts and final ticks must be bit-identical
  //    (the budgets are explored-state counts, so the search outcome is
  //    machine-independent; only wall latencies may differ).
  {
    std::vector<Cell> again;
    Cell c;
    c.profile = "burst";
    c.arm = "replan";
    c.plan = makePlan("burst");
    again.push_back(std::move(c));
    runCampaign(again, sched, prog, cfg, cg, trials, seed);
    const Cell* orig = findCell(cells, "burst", "replan");
    for (int t = 0; t < trials; ++t) {
      const TrialOutcome& a = orig->trials[static_cast<size_t>(t)];
      const TrialOutcome& b = again[0].trials[static_cast<size_t>(t)];
      if (a.ok != b.ok || a.safeStopped != b.safeStopped ||
          a.replans != b.replans || a.maxLadderLevel != b.maxLadderLevel ||
          a.ticks != b.ticks) {
        std::fprintf(stderr,
                     "FAIL: replan trial %d not reproducible at identical "
                     "seed (ticks %lld vs %lld, replans %d vs %d)\n",
                     t, static_cast<long long>(a.ticks),
                     static_cast<long long>(b.ticks), a.replans, b.replans);
        return 1;
      }
    }
    std::puts("reproducibility: identical seeds -> identical closed-loop "
              "outcomes (checked one full cell twice)");
  }

  if (verbose) {
    for (const Cell& c : cells) {
      std::printf("\n-- %s / %s --\n", c.profile.c_str(), c.arm.c_str());
      for (size_t t = 0; t < c.trials.size(); ++t) {
        const TrialOutcome& o = c.trials[t];
        std::printf("  trial %zu: %s replans=%d ladder=%d ticks=%lld %s\n", t,
                    o.ok ? "OK  " : "FAIL", o.replans, o.maxLadderLevel,
                    static_cast<long long>(o.ticks), o.detail.c_str());
      }
    }
  }

  // 4. Report.
  std::printf("\n%8s %9s %9s %6s %8s %12s %12s\n", "profile", "arm",
              "success", "stops", "replans", "p50 replan", "p99 replan");
  for (const Cell& c : cells) {
    const CellSummary s = summarize(c);
    std::printf("%8s %9s %8.1f%% %6d %8d %10.1fms %10.1fms\n",
                c.profile.c_str(), c.arm.c_str(), 100.0 * s.successRate,
                s.safeStops, s.replansTotal, s.p50LatencyMs, s.p99LatencyMs);
  }
  const double wallMs = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - wall0)
                            .count();
  writeJson(cells, batches, trials, seed, wallMs);

  // 5. The gate: closed-loop replanning must beat the open loop
  //    strictly on both fatal-fault profiles.
  bool pass = true;
  for (const char* profile : {"burst", "crash"}) {
    const CellSummary open = summarize(*findCell(cells, profile, "hardened"));
    const CellSummary closed = summarize(*findCell(cells, profile, "replan"));
    if (closed.successes <= open.successes) {
      std::printf("GATE FAIL: %s replanning %d/%d vs hardened-only %d/%d "
                  "(need strictly more successes)\n",
                  profile, closed.successes, trials, open.successes, trials);
      pass = false;
    } else {
      std::printf("GATE OK: %s replanning %.1f%% > hardened-only %.1f%% "
                  "(p99 replan latency %.1fms)\n",
                  profile, 100.0 * closed.successRate,
                  100.0 * open.successRate, closed.p99LatencyMs);
    }
  }
  return pass ? 0 : 1;
}
