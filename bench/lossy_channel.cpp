// §6-flavoured benchmark: execute one synthesized control program in
// the simulated plant under increasing message-loss rates, reporting
// retries and whether the run still satisfies the physical invariants.
// (The paper's motivation for the ack-retry code segments: "the
// communication between the RCX bricks is unreliable and slow".)
#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "engine/trace.hpp"
#include "plant/plant.hpp"
#include "rcx/plant_sim.hpp"
#include "synthesis/rcx_codegen.hpp"
#include "synthesis/schedule.hpp"

int main() {
  plant::PlantConfig cfg;
  cfg.order = plant::standardOrder(3);
  const auto p = plant::buildPlant(cfg);

  engine::Options opts;
  opts.order = engine::SearchOrder::kDfs;
  opts.dfsReverse = true;
  opts.maxSeconds = 120.0;
  // Peaks at ~4 MB accounted; a blow-up ends as Cutoff::kMemory.
  opts.maxMemoryBytes = size_t{256} << 20;
  engine::Reachability checker(p->sys, opts);
  const engine::Result res = checker.run(p->goal);
  if (!res.reachable) {
    std::puts("no schedule found");
    return 1;
  }
  std::string err;
  const auto ct = engine::concretize(p->sys, res.trace, &err);
  if (!ct.has_value()) {
    std::printf("concretization failed: %s\n", err.c_str());
    return 1;
  }
  const synthesis::Schedule sched = synthesis::project(p->sys, *ct);
  synthesis::CodegenOptions cg;
  cg.ticksPerTimeUnit = 1000;
  cg.resendAfterPolls = 5;
  const synthesis::RcxProgram prog = synthesis::synthesize(sched, cg);

  std::printf("Message-loss sweep (3 batches, %zu commands, ack-retry "
              "programs):\n\n",
              prog.commands.size());
  std::printf("%8s %10s %8s %8s %8s %12s %6s\n", "loss", "sends", "cmdLost",
              "ackLost", "dupes", "ticks", "ok");
  benchutil::Report report("lossy_channel");
  report.add("search-3batch", res.stats.seconds * 1000.0,
             res.stats.peakBytes, res.stats.storedZones);
  for (const double loss : {0.0, 0.01, 0.05, 0.10, 0.20, 0.35}) {
    rcx::SimOptions sim;
    sim.messageLossProb = loss;
    sim.slackTicks = 8000;
    sim.seed = 1234;
    const auto t0 = std::chrono::steady_clock::now();
    const rcx::SimResult out = rcx::runProgram(prog, cfg, 1000, sim);
    const double simMs = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    {
      char w[32];
      std::snprintf(w, sizeof w, "sim-loss-%.2f", loss);
      report.add(w, simMs, 0, 0);
    }
    std::printf("%8.2f %10lld %8lld %8lld %8lld %12lld %6s\n", loss,
                static_cast<long long>(out.commandsSent),
                static_cast<long long>(out.commandsLost),
                static_cast<long long>(out.acksLost),
                static_cast<long long>(out.duplicatesIgnored),
                static_cast<long long>(out.ticks), out.ok() ? "yes" : "NO");
    if (!out.ok()) {
      for (size_t e = 0; e < out.errors.size() && e < 3; ++e) {
        std::printf("         ! tick %lld: %s\n",
                    static_cast<long long>(out.errors[e].tick),
                    out.errors[e].what.c_str());
      }
    }
    std::fflush(stdout);
  }
  std::printf(
      "\nRetries keep the plant correct under moderate loss; heavy loss "
      "defers\ncommands long enough to break the timing the schedule "
      "guarantees.\n");
  report.write();
  return 0;
}
