// Shared helpers for the reproduction benchmarks.
#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "engine/reachability.hpp"
#include "plant/plant.hpp"
#include "ta/system.hpp"

namespace benchutil {

struct CellResult {
  bool ran = false;        ///< false: skipped because a smaller size failed
  bool reachable = false;
  double seconds = 0.0;
  double megabytes = 0.0;
  size_t peakBytes = 0;
  size_t storedStates = 0;
  engine::Cutoff cutoff = engine::Cutoff::kNone;
};

/// The repository root (nearest ancestor of the working directory
/// holding ROADMAP.md), so benchmarks launched from build trees still
/// drop their reports in one well-known place. Falls back to the
/// working directory outside a checkout.
[[nodiscard]] inline std::filesystem::path repoRoot() {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (fs::path p = fs::current_path(ec); !p.empty(); p = p.parent_path()) {
    if (fs::exists(p / "ROADMAP.md", ec)) return p;
    if (p == p.parent_path()) break;
  }
  return fs::current_path(ec);
}

/// Short revision of the checkout the benchmark actually ran in,
/// resolved at runtime from `git rev-parse` — a compile-time or
/// hand-maintained revision silently goes stale the moment the report
/// is regenerated on a different commit. Returns "unknown" outside a
/// git checkout (or when git itself is unavailable).
[[nodiscard]] inline std::string gitRev() {
  std::string rev;
#if defined(__unix__) || defined(__APPLE__)
  const std::string cmd =
      "git -C '" + repoRoot().string() + "' rev-parse --short HEAD 2>/dev/null";
  if (FILE* p = ::popen(cmd.c_str(), "r")) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof buf, p) != nullptr) rev = buf;
    ::pclose(p);
  }
#endif
  while (!rev.empty() && std::isspace(static_cast<unsigned char>(rev.back()))) {
    rev.pop_back();
  }
  for (const char c : rev) {
    if (std::isxdigit(static_cast<unsigned char>(c)) == 0) return "unknown";
  }
  return rev.empty() ? "unknown" : rev;
}

[[nodiscard]] inline std::string hostName() {
#if defined(__unix__) || defined(__APPLE__)
  char buf[256] = {};
  if (::gethostname(buf, sizeof buf - 1) == 0 && buf[0] != '\0') return buf;
#endif
  return "unknown";
}

[[nodiscard]] inline std::string utcTimestamp() {
  std::time_t now = std::time(nullptr);
  std::tm tm{};
#if defined(__unix__) || defined(__APPLE__)
  gmtime_r(&now, &tm);
#else
  tm = *std::gmtime(&now);
#endif
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// Accumulates benchmark rows and writes them as BENCH_<name>.json at
/// the repo root — the machine-readable record the bench trajectory
/// compares across PRs. One row per workload; the schema is fixed:
/// a provenance header (git_rev resolved at runtime, hostname, UTC
/// timestamp) plus workload / wall_ms / peak_bytes / stored_states.
class Report {
 public:
  explicit Report(std::string name) : name_(std::move(name)) {}

  void add(std::string workload, double wallMs, size_t peakBytes,
           size_t storedStates) {
    rows_.push_back(Row{std::move(workload), wallMs, peakBytes, storedStates});
  }

  /// Best-effort write (a read-only checkout must not fail the bench).
  void write() const {
    const std::filesystem::path out = repoRoot() / ("BENCH_" + name_ + ".json");
    std::ofstream f(out);
    if (!f) return;
    f << "{\n  \"bench\": \"" << name_ << "\",\n  \"git_rev\": \"" << gitRev()
      << "\",\n  \"hostname\": \"" << hostName() << "\",\n  \"timestamp\": \""
      << utcTimestamp() << "\",\n  \"results\": [\n";
    for (size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      f << "    {\"workload\": \"" << r.workload << "\", \"wall_ms\": "
        << r.wallMs << ", \"peak_bytes\": " << r.peakBytes
        << ", \"stored_states\": " << r.storedStates << "}"
        << (i + 1 < rows_.size() ? "," : "") << "\n";
    }
    f << "  ]\n}\n";
  }

 private:
  struct Row {
    std::string workload;
    double wallMs;
    size_t peakBytes;
    size_t storedStates;
  };
  std::string name_;
  std::vector<Row> rows_;
};

/// Fischer's timed mutual-exclusion protocol with n processes: mutual
/// exclusion holds iff k >= d, so with k >= d `mutexViolation()` is an
/// exhaustive proof over the whole abstract zone graph.
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
      sys.edge(p, trying, waiting).when(ta::ccLe(x, d)).reset(x).assign(id, i);
      sys.edge(p, waiting, crit).when(ta::ccGt(x, k)).guard(sys.rd(id) == i);
      sys.edge(p, waiting, idle).guard(sys.rd(id) != i);
      sys.edge(p, crit, idle).assign(id, 0);
    }
    sys.finalize();
  }

  /// P1 and P2 critical at once.
  [[nodiscard]] engine::Goal mutexViolation() const {
    engine::Goal bad;
    bad.locations = {{procs[0], critical[0]}, {procs[1], critical[1]}};
    return bad;
  }
};

/// Run one scheduling query. The paper's Table 1 "DFS" corresponds to
/// kRandomDfs with a fixed seed here: a depth-first search whose
/// successor order is a deterministic shuffle (UPPAAL's own successor
/// order is an arbitrary implementation artifact, and the plant model
/// is pathologically sensitive to it).
inline CellResult runCell(int batches, plant::GuideLevel guides,
                          engine::Options opts) {
  plant::PlantConfig cfg;
  cfg.order = plant::standardOrder(batches);
  cfg.guides = guides;
  const auto p = plant::buildPlant(cfg);
  engine::Reachability checker(p->sys, opts);
  const engine::Result res = checker.run(p->goal);
  CellResult out;
  out.ran = true;
  out.reachable = res.reachable;
  out.seconds = res.stats.seconds;
  out.megabytes = res.stats.peakMegabytes();
  out.peakBytes = res.stats.peakBytes;
  out.storedStates = res.stats.storedZones;
  out.cutoff = res.stats.cutoff;
  return out;
}

[[nodiscard]] inline engine::Options searchOptions(const std::string& kind,
                                                   double maxSeconds,
                                                   size_t maxMemoryMb) {
  engine::Options o;
  o.maxSeconds = maxSeconds;
  o.maxMemoryBytes = maxMemoryMb * 1024 * 1024;
  o.seed = 1;
  if (kind == "BFS") {
    o.order = engine::SearchOrder::kBfs;
  } else if (kind == "DFS") {
    o.order = engine::SearchOrder::kRandomDfs;
  } else {  // BSH: depth-first with bit-state hashing
    o.order = engine::SearchOrder::kRandomDfs;
    o.bitstateHashing = true;
    o.hashBits = 23;
  }
  return o;
}

/// True when benchmarks should keep runtimes minimal (set BENCH_QUICK=1).
[[nodiscard]] inline bool quick() {
  const char* q = std::getenv("BENCH_QUICK");
  return q != nullptr && q[0] == '1';
}

}  // namespace benchutil
