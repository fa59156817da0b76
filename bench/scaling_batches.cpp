// Reproduction of the §5 scaling claim: schedules for as many as 60
// batches (125 timed automata, 183 clocks in the paper; 2N+4 automata
// and 3N+3 clocks here — 124 / 183 at N = 60).
//
// Prints the growth of search effort with the number of batches for the
// fully guided model under depth-first search.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"

int main() {
  const std::vector<int> sizes = benchutil::quick()
                                     ? std::vector<int>{5, 10, 20}
                                     : std::vector<int>{5, 10, 20, 30, 40,
                                                        50, 60};
  std::printf("Scaling of guided scheduling (All Guides, DFS):\n\n");
  std::printf("%8s %10s %8s %10s %10s %10s %9s\n", "batches", "automata",
              "clocks", "explored", "stored", "seconds", "peakMB");
  benchutil::Report report("scaling_batches");
  for (const int n : sizes) {
    plant::PlantConfig cfg;
    cfg.order = plant::standardOrder(n);
    const auto p = plant::buildPlant(cfg);
    engine::Options opts = benchutil::searchOptions("DFS", 300.0, 8192);
    engine::Reachability checker(p->sys, opts);
    const engine::Result res = checker.run(p->goal);
    std::printf("%8d %10zu %8u %10zu %10zu %10.2f %9.0f\n", n,
                p->numAutomata(), p->numClocks(), res.stats.statesExplored,
                res.stats.storedZones, res.stats.seconds,
                res.stats.peakMegabytes());
    std::fflush(stdout);
    if (!res.reachable) {
      std::printf("  (no schedule within budget — stopping)\n");
      break;
    }
    report.add("allguides-" + std::to_string(n) + "batch",
               res.stats.seconds * 1000.0, res.stats.peakBytes,
               res.stats.storedZones);
  }
  report.write();
  return 0;
}
