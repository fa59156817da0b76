// Pre-exploration optimizer ablation: the same reachability queries at
// --opt-level 0 (the model exactly as built) and --opt-level 2 (full
// ta/ir.hpp pass pipeline), reporting per-workload statesExplored /
// storedZones / wall_ms deltas plus the pass counters that explain
// them.
//
// Workloads:
//   fischer-n7        exhaustive mutex proof on a model with nothing
//                     to remove: no pass fires and the optimized run
//                     explores the model as built — the honest
//                     "nothing to gain" baseline.
//   fischer-instr     the same protocol carrying typical debugging
//                     instrumentation: a bounded global event counter
//                     (written on every edge, read by nothing) and a
//                     per-process debug clock reset alongside x. Both
//                     are dead weight for the mutex query — dead-store
//                     elision collapses the counter's 8-way state
//                     blowup and clock unification halves the DBM
//                     dimension, so this is where exploration and wall
//                     time actually drop.
//   plant-guided-45   the paper's guided 45-batch schedule synthesis
//                     (6 batches under BENCH_QUICK=1).
//   random-<seed>     five generator models from the differential
//                     suite's seed range where the pipeline finds
//                     foldable guards and removable edges/locations —
//                     verdict-equivalence coverage; never-enabled
//                     edges produce no states, so exploration counts
//                     stay put by construction.
//
// Writes BENCH_ir_opt.json at the repo root. `--smoke` (the
// `ir_opt_smoke` perf-smoke ctest entry) additionally enforces the
// gate: identical verdicts on every workload and >= 10% statesExplored
// reduction on at least one.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "../tests/engine/random_model.hpp"
#include "bench_util.hpp"

namespace {

struct Cell {
  bool reachable = false;
  size_t explored = 0;
  size_t storedZones = 0;
  double wallMs = 0.0;
  engine::Stats stats;
};

struct WorkloadRow {
  std::string name;
  Cell opt0;
  Cell opt2;

  [[nodiscard]] bool verdictMatch() const {
    return opt0.reachable == opt2.reachable;
  }
  /// Fraction of opt-level-0 exploration saved by the pipeline.
  [[nodiscard]] double exploredReduction() const {
    if (opt0.explored == 0) return 0.0;
    return 1.0 - static_cast<double>(opt2.explored) /
                     static_cast<double>(opt0.explored);
  }
};

Cell runOnce(const ta::System& sys, const engine::Goal& goal,
             engine::Options opts, int level) {
  opts.optLevel = level;
  // The full run peaks at ~850 MB accounted (the 45-batch plant).
  opts.maxMemoryBytes = size_t{2} << 30;
  engine::Reachability checker(sys, opts);
  const engine::Result res = checker.run(goal);
  Cell c;
  c.reachable = res.reachable;
  c.explored = res.stats.statesExplored;
  c.storedZones = res.stats.storedZones;
  c.wallMs = res.stats.seconds * 1e3;
  c.stats = res.stats;
  return c;
}

WorkloadRow runWorkload(std::string name, const ta::System& sys,
                        const engine::Goal& goal,
                        const engine::Options& opts) {
  WorkloadRow row;
  row.name = std::move(name);
  row.opt0 = runOnce(sys, goal, opts, 0);
  row.opt2 = runOnce(sys, goal, opts, 2);
  std::fprintf(stderr,
               "%-18s opt0: %8zu explored %8zu zones %9.2f ms   "
               "opt2: %8zu explored %8zu zones %9.2f ms   (-%.1f%%)\n",
               row.name.c_str(), row.opt0.explored, row.opt0.storedZones,
               row.opt0.wallMs, row.opt2.explored, row.opt2.storedZones,
               row.opt2.wallMs, row.exploredReduction() * 100.0);
  return row;
}

/// The ablation_engine bench's Fischer protocol (N processes, D=2,
/// K=3: the violation is unreachable, forcing an exhaustive proof).
struct Fischer {
  ta::System sys;
  std::vector<ta::ProcId> procs;
  std::vector<ta::LocId> critical;

  /// `instrumented` adds the debug scaffolding described in the file
  /// comment: a global `events` counter bumped (mod 8) on every edge
  /// and a per-process `dbg<i>` clock reset wherever x<i> is.
  explicit Fischer(int n, bool instrumented = false, int d = 2, int k = 3) {
    const ta::VarId id = sys.addVar("id", 0);
    const ta::VarId events =
        instrumented ? sys.addVar("events", 0) : ta::VarId{-1};
    const auto bump = [&](ta::EdgeBuilder eb) {
      if (instrumented) eb.assign(events, (sys.rd(events) + 1) % sys.lit(8));
    };
    for (int i = 1; i <= n; ++i) {
      const ta::ClockId x = sys.addClock("x" + std::to_string(i));
      const ta::ClockId dbg =
          instrumented ? sys.addClock("dbg" + std::to_string(i)) : 0;
      const ta::ProcId p = sys.addAutomaton("P" + std::to_string(i));
      procs.push_back(p);
      auto& a = sys.automaton(p);
      const ta::LocId idle = a.addLocation("idle");
      const ta::LocId trying = a.addLocation("trying");
      const ta::LocId waiting = a.addLocation("waiting");
      const ta::LocId crit = a.addLocation("critical");
      critical.push_back(crit);
      a.setInvariant(trying, {ta::ccLe(x, d)});
      auto e1 = sys.edge(p, idle, trying).guard(sys.rd(id) == 0).reset(x);
      if (instrumented) e1.reset(dbg);
      bump(e1);
      auto e2 = sys.edge(p, trying, waiting)
                    .when(ta::ccLe(x, d))
                    .reset(x)
                    .assign(id, i);
      if (instrumented) e2.reset(dbg);
      bump(e2);
      bump(sys.edge(p, waiting, crit)
               .when(ta::ccGt(x, k))
               .guard(sys.rd(id) == i));
      bump(sys.edge(p, waiting, idle).guard(sys.rd(id) != i));
      bump(sys.edge(p, crit, idle).assign(id, 0));
      (void)dbg;
    }
    sys.finalize();
  }

  [[nodiscard]] engine::Goal mutexViolation() const {
    engine::Goal bad;
    bad.locations = {{procs[0], critical[0]}, {procs[1], critical[1]}};
    return bad;
  }
};

void writeReport(const std::vector<WorkloadRow>& rows) {
  const std::filesystem::path out =
      benchutil::repoRoot() / "BENCH_ir_opt.json";
  std::ofstream f(out);
  if (!f) return;
  f << "{\n  \"bench\": \"ir_opt\",\n  \"git_rev\": \"" << benchutil::gitRev()
    << "\",\n  \"hostname\": \"" << benchutil::hostName()
    << "\",\n  \"timestamp\": \"" << benchutil::utcTimestamp()
    << "\",\n  \"workloads\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const WorkloadRow& r = rows[i];
    const auto cell = [&f](const char* level, const Cell& c) {
      f << "\"" << level << "\": {\"reachable\": "
        << (c.reachable ? "true" : "false") << ", \"wall_ms\": " << c.wallMs
        << ", \"statesExplored\": " << c.explored
        << ", \"storedZones\": " << c.storedZones;
      f << ", \"foldedExprs\": " << c.stats.foldedExprs
        << ", \"removedLocations\": " << c.stats.removedLocations
        << ", \"removedEdges\": " << c.stats.removedEdges
        << ", \"elidedVars\": " << c.stats.elidedVars
        << ", \"unifiedClocks\": " << c.stats.unifiedClocks
        << ", \"optSeconds\": " << c.stats.optSeconds << "}";
    };
    f << "    {\"workload\": \"" << r.name << "\", ";
    cell("opt0", r.opt0);
    f << ", ";
    cell("opt2", r.opt2);
    f << ", \"explored_reduction\": " << r.exploredReduction() << "}"
      << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  f << "  ]\n}\n";
  std::fprintf(stderr, "wrote %s\n", out.string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const bool quick = smoke || benchutil::quick();

  std::vector<WorkloadRow> rows;

  {
    const int n = quick ? 5 : 7;
    Fischer f(n);
    engine::Options o;
    o.order = engine::SearchOrder::kBfs;
    o.maxSeconds = 600.0;
    rows.push_back(runWorkload("fischer-n" + std::to_string(n), f.sys,
                               f.mutexViolation(), o));
  }

  {
    const int n = quick ? 4 : 6;
    Fischer f(n, /*instrumented=*/true);
    engine::Options o;
    o.order = engine::SearchOrder::kBfs;
    o.maxSeconds = 600.0;
    rows.push_back(runWorkload("fischer-instr-n" + std::to_string(n), f.sys,
                               f.mutexViolation(), o));
  }

  {
    const int batches = quick ? 6 : 45;
    plant::PlantConfig cfg;
    cfg.order = plant::standardOrder(batches);
    cfg.guides = plant::GuideLevel::kAll;
    const auto p = plant::buildPlant(cfg);
    engine::Options o;
    o.order = engine::SearchOrder::kDfs;
    o.dfsReverse = true;
    o.maxSeconds = 600.0;
    rows.push_back(runWorkload(
        "plant-guided-" + std::to_string(batches), p->sys, p->goal, o));
  }

  // Seeds where the pipeline has real work (dead edges, removable
  // locations, foldable guards) — picked from the differential suite's
  // 1..40 range by inspecting pass counters.
  for (const uint64_t seed : {3ULL, 7ULL, 11ULL, 19ULL, 31ULL}) {
    engine::RandomModel m(seed);
    engine::Options o;
    o.order = engine::SearchOrder::kBfs;
    o.maxSeconds = 60.0;
    rows.push_back(runWorkload("random-" + std::to_string(seed), *m.sys,
                               m.goal, o));
  }

  writeReport(rows);

  if (smoke) {
    // Gate: the optimizer must never flip a verdict, and must cut
    // exploration by >= 10% somewhere.
    bool ok = true;
    double best = 0.0;
    for (const WorkloadRow& r : rows) {
      if (!r.verdictMatch()) {
        std::fprintf(stderr, "FAIL: %s verdict flipped by optimization\n",
                     r.name.c_str());
        ok = false;
      }
      best = std::max(best, r.exploredReduction());
    }
    if (best < 0.10) {
      std::fprintf(stderr,
                   "FAIL: best statesExplored reduction %.1f%% < 10%%\n",
                   best * 100.0);
      ok = false;
    }
    if (ok) {
      std::fprintf(stderr, "smoke gate passed: best reduction %.1f%%\n",
                   best * 100.0);
    }
    return ok ? 0 : 1;
  }
  return 0;
}
