// Command-line model checker: load a textual model (see ta/parser.hpp
// for the format), run its `query reach ...` lines, print verdicts and
// timed witness traces — the UPPAAL-shaped entry point of the library.
//
// Usage: check_model <model-file> [bfs|dfs|rdfs] [--trace] [--threads N]
//                    [--extrapolation none|global|lu]
//                    [--stats-json]
//                    [--opt-level N] [--no-lint] [--Werror]
//
// --threads N parallelizes whichever order is selected (level-
// synchronous BFS, work-stealing DFS). --extrapolation selects the
// zone-abstraction operator (default: per-location Extra+_LU).
// --opt-level selects the pre-exploration optimizer level (0 explores
// the model exactly as built; default 2 runs the full pass pipeline);
// when the pipeline did anything, a one-line summary of its work is
// printed per query. --stats-json prints one JSON object per query
// with the full engine statistics, including the per-pass optimizer
// counters.
//
// Frontend diagnostics are cumulative: a malformed model reports every
// error (file:line:col, with notes) before exiting, and lint warnings
// from the static-analysis passes print unless --no-lint. --Werror
// turns those warnings into exit status 3.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "diag_util.hpp"
#include "engine/reachability.hpp"
#include "engine/trace.hpp"
#include "ta/parser.hpp"

namespace {

/// The full Stats block as a single-line JSON object (stable keys, so
/// scripts can diff runs across configurations).
void printStatsJson(std::ostream& os, size_t query, bool reachable,
                    const engine::Stats& s, int opt) {
  os << "{\"query\": " << query << ", \"reachable\": "
     << (reachable ? "true" : "false")
     << ", \"statesExplored\": " << s.statesExplored
     << ", \"statesGenerated\": " << s.statesGenerated
     << ", \"storedZones\": " << s.storedZones
     << ", \"bytesStored\": " << s.bytesStored
     << ", \"peakBytes\": " << s.peakBytes
     << ", \"peakStackDepth\": " << s.peakStackDepth
     << ", \"seconds\": " << s.seconds
     << ", \"cutoff\": " << static_cast<int>(s.cutoff)
     << ", \"extrapolationCoarsenings\": " << s.extrapolationCoarsenings
     << ", \"inactiveClocksFreed\": " << s.inactiveClocksFreed
     << ", \"statesInterned\": " << s.statesInterned
     << ", \"internHits\": " << s.internHits
     << ", \"internBytes\": " << s.internBytes
     << ", \"storeLookups\": " << s.storeLookups
     << ", \"storeProbeSteps\": " << s.storeProbeSteps
     << ", \"storeBytes\": " << s.storeBytes
     << ", \"reopenings\": " << s.reopenings
     << ", \"simdKernelOps\": " << s.simdKernelOps
     << ", \"scalarKernelOps\": " << s.scalarKernelOps
     << ", \"lockContention\": " << s.lockContention
     << ", \"chunkSteals\": " << s.chunkSteals
     << ", \"frameSteals\": " << s.frameSteals
     << ", \"optLevel\": " << opt
     << ", \"foldedExprs\": " << s.foldedExprs
     << ", \"removedLocations\": " << s.removedLocations
     << ", \"removedEdges\": " << s.removedEdges
     << ", \"elidedVars\": " << s.elidedVars
     << ", \"unifiedClocks\": " << s.unifiedClocks
     << ", \"optSeconds\": " << s.optSeconds
     << ", \"perThreadExplored\": [";
  for (size_t i = 0; i < s.perThreadExplored.size(); ++i) {
    os << (i ? ", " : "") << s.perThreadExplored[i];
  }
  os << "]}\n";
}

/// One line of optimizer provenance — only the passes that did work
/// ("optimizer: folded 12 exprs, removed 3 locations, unified 2
/// clocks"); empty when the pipeline found nothing to do.
std::string passSummary(const engine::Stats& s) {
  std::ostringstream out;
  const auto item = [&out](size_t n, const char* verb, const char* noun) {
    if (n == 0) return;
    out << (out.tellp() > 0 ? ", " : "") << verb << ' ' << n << ' ' << noun
        << (n == 1 ? "" : "s");
  };
  item(s.foldedExprs, "folded", "expr");
  item(s.removedLocations, "removed", "location");
  item(s.removedEdges, "removed", "edge");
  item(s.elidedVars, "elided", "var");
  item(s.unifiedClocks, "unified", "clock");
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: check_model <model-file> [bfs|dfs|rdfs] [--trace]"
                 " [--threads N]"
                 " [--extrapolation none|global|lu]"
                 " [--stats-json]"
                 " [--opt-level N] [--no-lint] [--Werror]\n";
    return 2;
  }
  // Frontend flags are scanned up front: loading happens before the
  // engine flag loop runs.
  examples::FrontendFlags frontend;
  for (int i = 2; i < argc; ++i) frontend.consume(argc, argv, i);

  const ta::FrontendResult parsed =
      examples::loadModelOrExit(argv[1], frontend);
  std::cout << "model: " << parsed.system->numAutomata() << " automata, "
            << parsed.system->numClocks() << " clocks, "
            << parsed.system->numVars() << " variables\n";

  engine::Options opts;
  opts.optLevel = frontend.optLevel;
  bool showTrace = false;
  bool statsJson = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "dfs") opts.order = engine::SearchOrder::kDfs;
    if (a == "rdfs") opts.order = engine::SearchOrder::kRandomDfs;
    if (a == "--trace") showTrace = true;
    if (a == "--stats-json") statsJson = true;
    if (a == "--threads" && i + 1 < argc) {
      opts.threads = static_cast<size_t>(std::atoi(argv[++i]));
    }
    if (a == "--extrapolation" && i + 1 < argc) {
      if (!engine::parseExtrapolation(argv[++i], &opts.extrapolation)) {
        std::cerr << "unknown extrapolation mode: " << argv[i] << "\n";
        return 2;
      }
    }
  }

  if (parsed.queries.empty()) {
    std::cout << "no queries in the model file\n";
    return 0;
  }
  int failures = 0;
  for (size_t q = 0; q < parsed.queries.size(); ++q) {
    const ta::ParsedQuery& pq = parsed.queries[q];
    engine::Goal goal{pq.locations, pq.predicate, pq.clockConstraints};
    engine::Reachability checker(*parsed.system, opts);
    const engine::Result res = checker.run(goal);
    std::cout << "query " << q + 1 << ": "
              << (res.reachable ? "REACHABLE" : "unreachable") << "  ("
              << res.stats.statesExplored << " states, " << res.stats.seconds
              << " s)\n";
    if (const std::string opt = passSummary(res.stats); !opt.empty()) {
      std::cout << "  optimizer: " << opt << "\n";
    }
    if (statsJson) {
      printStatsJson(std::cout, q + 1, res.reachable, res.stats,
                     opts.optLevel);
    }
    if (res.reachable && showTrace) {
      std::string err;
      const auto ct = engine::concretize(*parsed.system, res.trace, &err);
      if (ct.has_value()) {
        std::cout << engine::toString(*parsed.system, *ct);
      } else {
        std::cout << "  (trace concretization failed: " << err << ")\n";
        ++failures;
      }
    }
  }
  return failures == 0 ? 0 : 1;
}
