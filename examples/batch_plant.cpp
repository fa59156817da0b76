// Schedule the SIDMAR batch plant: build the timed-automata model for a
// production order, run guided reachability, and print the resulting
// schedule statistics and (optionally) the schedule itself.
//
// Usage: batch_plant [batches] [guides: all|some|none] [search: dfs|bfs|rdfs]
//                    [seconds] [--trace] [--threads N]
//                    [--extrapolation none|global|lu]
//                    [--no-lint] [--Werror]
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "diag_util.hpp"
#include "engine/trace.hpp"
#include "plant/plant.hpp"

int main(int argc, char** argv) {
  int batches = 2;
  plant::GuideLevel guides = plant::GuideLevel::kAll;
  engine::Options opts;
  opts.order = engine::SearchOrder::kDfs;
  opts.maxSeconds = 120.0;
  bool showTrace = false;

  if (argc > 1) batches = std::atoi(argv[1]);
  if (argc > 2) {
    const std::string g = argv[2];
    guides = g == "none"   ? plant::GuideLevel::kNone
             : g == "some" ? plant::GuideLevel::kSome
                           : plant::GuideLevel::kAll;
  }
  if (argc > 3) {
    const std::string s = argv[3];
    opts.order = s == "bfs"    ? engine::SearchOrder::kBfs
                 : s == "rdfs" ? engine::SearchOrder::kRandomDfs
                               : engine::SearchOrder::kDfs;
  }
  if (argc > 4) opts.maxSeconds = std::atof(argv[4]);
  examples::FrontendFlags frontend;
  for (int i = 5; i < argc; ++i) {
    if (frontend.consume(argc, argv, i)) continue;
    if (std::string(argv[i]) == "--trace") showTrace = true;
    if (std::string(argv[i]) == "--reverse") opts.dfsReverse = true;
    if (std::string(argv[i]) == "--threads" && i + 1 < argc) {
      opts.threads = static_cast<size_t>(std::atoi(argv[++i]));
    }
    if (std::string(argv[i]) == "--extrapolation" && i + 1 < argc) {
      if (!engine::parseExtrapolation(argv[++i], &opts.extrapolation)) {
        std::cerr << "unknown extrapolation mode: " << argv[i] << "\n";
        return 2;
      }
    }
  }
  if (const char* s = std::getenv("SEED")) opts.seed = std::atoi(s);
  if (const char* m = std::getenv("MAX_MB")) opts.maxMemoryBytes = std::atoll(m) * 1024 * 1024;
  opts.optLevel = frontend.optLevel;

  plant::PlantConfig cfg;
  cfg.order = plant::standardOrder(batches);
  cfg.guides = guides;
  if (const char* gap = std::getenv("CAST_GAP")) cfg.castGap = std::atoi(gap);
  const auto p = plant::buildPlant(cfg);
  examples::lintHandBuilt(p->sys, frontend, "batch_plant");
  std::cout << "plant: " << p->numAutomata() << " automata, "
            << p->numClocks() << " clocks, " << p->sys.numVars()
            << " variables (" << plant::toString(guides) << ")\n";

  engine::Reachability checker(p->sys, opts);
  const engine::Result res = checker.run(p->goal);
  std::cout << "reachable=" << res.reachable
            << " explored=" << res.stats.statesExplored
            << " generated=" << res.stats.statesGenerated
            << " stored=" << res.stats.storedZones << " peakMB="
            << res.stats.peakMegabytes() << " sec=" << res.stats.seconds
            << " cutoff=" << static_cast<int>(res.stats.cutoff) << "\n";
  if (opts.threads > 1) {
    std::cout << "threads=" << opts.threads << " steals="
              << res.stats.chunkSteals + res.stats.frameSteals
              << " peakStack=" << res.stats.peakStackDepth << "\n";
  }
  if (!res.reachable) return 1;

  std::string err;
  const auto ct = engine::concretize(p->sys, res.trace, &err);
  if (!ct.has_value()) {
    std::cerr << "concretize failed: " << err << "\n";
    return 2;
  }
  if (!engine::validate(p->sys, *ct, &err)) {
    std::cerr << "validate failed: " << err << "\n";
    return 3;
  }
  std::cout << "schedule: " << ct->steps.size() << " steps, makespan "
            << ct->makespan() << " time units\n";
  if (showTrace) std::cout << engine::toString(p->sys, *ct);
  return 0;
}
