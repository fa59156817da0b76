// Reproduction of Figure 6: an excerpt of a synthesized RCX control
// program — each schedule line becomes an in-lined send + ack-retry
// code segment, delays become PB.Wait instructions.
#include <cstdio>
#include <iostream>
#include <sstream>

#include "bench_util.hpp"
#include "engine/trace.hpp"
#include "plant/plant.hpp"
#include "synthesis/rcx_codegen.hpp"
#include "synthesis/schedule.hpp"

int main() {
  plant::PlantConfig cfg;
  cfg.order = {plant::qualityAB()};
  const auto p = plant::buildPlant(cfg);

  engine::Options opts;
  opts.order = engine::SearchOrder::kDfs;
  opts.dfsReverse = true;
  opts.maxSeconds = 60.0;
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
    std::cout << "concretization failed: " << err << "\n";
    return 1;
  }
  const synthesis::Schedule sched = synthesis::project(p->sys, *ct);
  const synthesis::RcxProgram prog = synthesis::synthesize(sched);

  std::printf("Figure 6: part of a synthesized control program "
              "(%zu instructions for %zu commands)\n\n",
              prog.code.size(), prog.commands.size());
  std::istringstream text(prog.toText());
  std::string line;
  int shown = 0;
  while (std::getline(text, line) && shown < 40) {
    std::printf("  %s\n", line.c_str());
    ++shown;
  }
  std::printf("  ...\n");
  benchutil::Report report("fig6_program");
  report.add("codegen-qualityAB", res.stats.seconds * 1000.0,
             res.stats.peakBytes, res.stats.storedZones);
  report.write();
  return 0;
}
