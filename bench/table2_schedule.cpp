// Reproduction of Table 2: an excerpt of a generated schedule — the
// projection of the model trace onto plant actions, with Delay lines.
#include <cstdio>
#include <iostream>
#include <sstream>

#include "bench_util.hpp"
#include "engine/trace.hpp"
#include "plant/plant.hpp"
#include "synthesis/schedule.hpp"

int main() {
  plant::PlantConfig cfg;
  cfg.order = plant::standardOrder(2);
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
    std::cout << "concretization failed: " << err << "\n";
    return 1;
  }
  const synthesis::Schedule sched = synthesis::project(p->sys, *ct);

  std::printf("Table 2: part of a generated schedule (2 batches, %zu "
              "commands, makespan %lld)\n\n",
              sched.items.size(),
              static_cast<long long>(sched.makespan));
  std::istringstream text(sched.toText());
  std::string line;
  int shown = 0;
  while (std::getline(text, line) && shown < 24) {
    std::printf("  %s\n", line.c_str());
    ++shown;
  }
  std::printf("  ...\n");
  benchutil::Report report("table2_schedule");
  report.add("schedule-2batch", res.stats.seconds * 1000.0,
             res.stats.peakBytes, res.stats.storedZones);
  report.write();
  return 0;
}
