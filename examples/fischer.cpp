// Fischer's timed mutual-exclusion protocol — the classic UPPAAL demo,
// here to show the library on a model that is not the batch plant.
//
// Each process i:
//   idle --(id==0)-- set x:=0 --> trying (inv x<=D)
//   trying --(x<=D) id:=i, x:=0--> waiting
//   waiting --(x>K && id==i)--> critical
//   waiting --(id!=i)--> idle (retry)
//   critical --> idle, id:=0
//
// Mutual exclusion holds iff K >= D (the write must settle before
// anyone re-reads).  We verify both directions.
//
// Usage: fischer [processes] [D] [K] [--threads N] [--dfs|--rdfs]
//                [--extrapolation none|global|lu]
//                [--no-lint] [--Werror]
//
// The default order is BFS; --dfs / --rdfs switch to the depth-first
// orders, which --threads N parallelizes with the work-stealing
// explorer.
// --extrapolation selects the zone-abstraction operator (default: the
// per-location Extra+_LU; Fischer is where it shines — try
// `fischer 7 --extrapolation global` versus the default).
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <vector>

#include "diag_util.hpp"
#include "engine/reachability.hpp"
#include "ta/system.hpp"

namespace {

struct Fischer {
  ta::System sys;
  std::vector<ta::ProcId> procs;
  std::vector<ta::LocId> critical;

  Fischer(int n, int d, int k) {
    const ta::VarId id = sys.addVar("id", 0);
    for (int i = 1; i <= n; ++i) {
      const ta::ClockId x = sys.addClock("x" + std::to_string(i));
      const ta::ProcId p = sys.addAutomaton("P" + std::to_string(i));
      procs.push_back(p);
      auto& a = sys.automaton(p);
      const ta::LocId idle = a.addLocation("idle");
      const ta::LocId trying = a.addLocation("trying");
      const ta::LocId waiting = a.addLocation("waiting");
      const ta::LocId crit = a.addLocation("critical");
      critical.push_back(crit);
      a.setInvariant(trying, {ta::ccLe(x, d)});
      sys.edge(p, idle, trying).guard(sys.rd(id) == 0).reset(x);
      sys.edge(p, trying, waiting)
          .when(ta::ccLe(x, d))
          .reset(x)
          .assign(id, i);
      sys.edge(p, waiting, crit)
          .when(ta::ccGt(x, k))
          .guard(sys.rd(id) == i);
      sys.edge(p, waiting, idle).guard(sys.rd(id) != i);
      sys.edge(p, crit, idle).assign(id, 0);
    }
    sys.finalize();
  }
};

}  // namespace

int main(int argc, char** argv) {
  size_t threads = 1;
  engine::SearchOrder order = engine::SearchOrder::kBfs;
  engine::Extrapolation extrapolation = engine::Extrapolation::kLocationLUPlus;
  std::vector<int> positional;
  examples::FrontendFlags frontend;
  for (int i = 1; i < argc; ++i) {
    if (frontend.consume(argc, argv, i)) continue;
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--dfs") == 0) {
      order = engine::SearchOrder::kDfs;
    } else if (std::strcmp(argv[i], "--rdfs") == 0) {
      order = engine::SearchOrder::kRandomDfs;
    } else if (std::strcmp(argv[i], "--extrapolation") == 0 && i + 1 < argc) {
      if (!engine::parseExtrapolation(argv[++i], &extrapolation)) {
        std::cerr << "unknown extrapolation mode: " << argv[i] << "\n";
        return 2;
      }
    } else {
      positional.push_back(std::atoi(argv[i]));
    }
  }
  const int n = positional.size() > 0 ? positional[0] : 4;
  const int d = positional.size() > 1 ? positional[1] : 2;
  const int k = positional.size() > 2 ? positional[2] : 3;

  std::cout << "Fischer's protocol, " << n << " processes, D=" << d
            << " K=" << k << ", " << threads << " thread(s), "
            << (order == engine::SearchOrder::kBfs ? "bfs"
                : order == engine::SearchOrder::kDfs ? "dfs" : "rdfs")
            << ", "
            << engine::extrapolationName(extrapolation)
            << " extrapolation\n";

  Fischer model(n, d, k);
  examples::lintHandBuilt(model.sys, frontend, "fischer");

  // Violation query: any two processes simultaneously critical.
  bool violated = false;
  for (size_t i = 0; i < model.procs.size() && !violated; ++i) {
    for (size_t j = i + 1; j < model.procs.size() && !violated; ++j) {
      engine::Goal bad;
      bad.locations = {{model.procs[i], model.critical[i]},
                       {model.procs[j], model.critical[j]}};
      engine::Options opts;
      opts.maxSeconds = 60.0;
      opts.threads = threads;
      opts.order = order;
      opts.extrapolation = extrapolation;
      opts.optLevel = frontend.optLevel;
      engine::Reachability checker(model.sys, opts);
      const engine::Result res = checker.run(bad);
      if (res.reachable) {
        violated = true;
        std::cout << "MUTUAL EXCLUSION VIOLATED (P" << i + 1 << ", P"
                  << j + 1 << " both critical) — " << res.trace.steps.size()
                  << "-step witness, " << res.stats.statesExplored
                  << " states explored\n";
      }
    }
  }
  if (!violated) {
    std::cout << "mutual exclusion HOLDS (full state space explored)\n";
  }
  std::cout << "expected: " << (k >= d ? "holds (K >= D)" : "violated (K < D)")
            << "\n";
  return violated == (k >= d) ? 1 : 0;
}
