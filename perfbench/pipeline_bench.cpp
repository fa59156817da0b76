// The repository's benchmark: the paper's Figure-1 pipeline (plant model
// -> guided reachability -> concrete trace -> schedule -> RCX program ->
// simulated plant, plus closed-loop replanning) driven through its public
// functions, one workload per process.
//
//   pipeline_bench --workload W --seed N --seconds S --trace 0|1
//                  [--rev REV] [--trace-out FILE]
//
// Workloads (perfbench/README.md says why each was chosen):
//   synth-guided-45   full pipeline on the 45-batch All-Guides plant
//   verify-fischer-7  generated .gta -> parseModelEx -> exhaustive BFS proof
//   optimize-3        priced-zone best-first makespan optimization
//   execute-replan-6  closed-loop runWithReplanning under burst/crash faults
//
// A run sets the workload up several times (setup_s is the median), then
// repeats its op until S seconds have passed, checking every op's output.
// With --trace 0 the last stdout line is the end-to-end metrics. With
// --trace 1 the rounds of ops alternate untraced and traced, and the last
// line is the per-layer metrics, from spans recorded around each call into
// a layer and from the Stats/RunReport those calls return; the two halves'
// ops_per_s give the tracing overhead. Exit status 1 means a correctness
// check failed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dbm/simd.hpp"
#include "engine/reachability.hpp"
#include "engine/trace.hpp"
#include "plant/plant.hpp"
#include "rcx/plant_sim.hpp"
#include "replan/controller.hpp"
#include "synthesis/rcx_codegen.hpp"
#include "synthesis/schedule.hpp"
#include "ta/parser.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

constexpr double kMiB = 1024.0 * 1024.0;

// -- Budgets: every search runs under both, so an over-budget op is a
//    counted Cutoff, never an OOM kill. Accounted bytes run ~4x below
//    RSS on the 45-batch plant (779 MB accounted, 3.1 GB RSS).
constexpr double kSearchMaxSeconds = 60.0;
constexpr size_t kSearchMaxBytes = size_t{1536} << 20;
constexpr size_t kRepairMaxBytes = size_t{512} << 20;

// -- Tracing ------------------------------------------------------------

/// Spans kept in memory and written out at exit. Every span records its
/// name, start, end and parent; all spans of one op share its op id
/// (-1 for set-up). When off, span() records nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t op = -1;
    int parent = -1;
    double start = 0.0;  ///< seconds since the tracer was created
    double end = 0.0;
  };

  class Scope {
   public:
    Scope(Tracer* t, int index) : t_(t), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (t_ == nullptr) return;
      Span& s = t_->spans_[static_cast<size_t>(index_)];
      s.end = t_->now();
      t_->current_ = s.parent;
    }

   private:
    Tracer* t_;
    int index_;
  };

  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}

  void setOn(bool on) { on_ = on; }
  void setOp(int64_t op) { op_ = op; }

  [[nodiscard]] Scope span(const char* name) {
    if (!on_) return Scope(nullptr, -1);
    spans_.push_back(Span{name, op_, current_, now(), 0.0});
    current_ = static_cast<int>(spans_.size()) - 1;
    return Scope(this, current_);
  }

  /// Total duration of the spans called `name` that belong to ops
  /// (set-up spans excluded when `ops` is true, only set-up otherwise).
  [[nodiscard]] double total(const std::string& name, bool ops) const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name && (s.op >= 0) == ops) sum += s.end - s.start;
    }
    return sum;
  }

  /// Number of set-up spans called `name`.
  [[nodiscard]] int setupCount(const std::string& name) const {
    int n = 0;
    for (const Span& s : spans_) n += s.name == name && s.op < 0 ? 1 : 0;
    return n;
  }

  /// Self time (span time minus the time its child spans cover) summed
  /// per layer, the name prefix before the first '.'.
  [[nodiscard]] std::map<std::string, double> selfByLayer() const {
    std::vector<double> childTime(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        childTime[static_cast<size_t>(s.parent)] += s.end - s.start;
      }
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[s.name.substr(0, s.name.find('.'))] +=
          s.end - s.start - childTime[i];
    }
    return out;
  }

  /// Share of op wall time covered by the ops' direct child spans.
  [[nodiscard]] double opCoverage() const {
    double opTime = 0.0;
    double covered = 0.0;
    for (const Span& s : spans_) {
      if (s.name == "op") {
        opTime += s.end - s.start;
      } else if (s.parent >= 0 &&
                 spans_[static_cast<size_t>(s.parent)].name == "op") {
        covered += s.end - s.start;
      }
    }
    return opTime > 0.0 ? covered / opTime : 0.0;
  }

  /// One JSON object per span, one per line.
  bool write(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    f.precision(9);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      f << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"op\": " << s.op << ", \"parent\": " << s.parent
        << ", \"start_s\": " << s.start << ", \"end_s\": " << s.end << "}\n";
    }
    return static_cast<bool>(f);
  }

 private:
  [[nodiscard]] double now() const {
    return secondsBetween(epoch_, Clock::now());
  }

  bool on_;
  Clock::time_point epoch_;
  int64_t op_ = -1;
  int current_ = -1;
  std::vector<Span> spans_;
};

// -- Statistics helpers ---------------------------------------------------

/// Linear interpolation between order statistics (type 7).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Ordered name -> (value, unit) list, printed as the result's metrics.
class Metrics {
 public:
  void set(const std::string& name, double value, const char* unit) {
    items_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  [[nodiscard]] std::string json() const {
    std::ostringstream os;
    os.precision(17);
    os << "{";
    for (size_t i = 0; i < items_.size(); ++i) {
      os << (i ? ", " : "") << "\"" << items_[i].name
         << "\": {\"value\": " << items_[i].value << ", \"unit\": \""
         << items_[i].unit << "\"}";
    }
    os << "}";
    return os.str();
  }
  void print(std::FILE* out, const char* prefix) const {
    for (const Item& it : items_) {
      std::fprintf(out, "%s%-28s %14.6g %s\n", prefix, it.name.c_str(),
                   it.value, it.unit.c_str());
    }
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

// -- Per-layer counters -----------------------------------------------------

/// Work counts the ops of one phase accumulate; the traced phase turns
/// them into the per-layer metrics. A workload fills what applies to it.
struct LayerCounts {
  // engine + dbm + ta.ir (summed over the searches the bench calls)
  double searchSeconds = 0.0;  ///< Stats::seconds, for states_per_s
  double optSeconds = 0.0;
  double removedEdges = 0.0;
  double explored = 0.0;
  double generated = 0.0;
  double storedZones = 0.0;
  double lookups = 0.0;
  double probes = 0.0;
  double internHits = 0.0;
  double interned = 0.0;
  double reopenings = 0.0;
  double simdOps = 0.0;
  double scalarOps = 0.0;
  double peakBytes = 0.0;  ///< maxima over the searches
  double storeBytes = 0.0;
  double internBytes = 0.0;
  // synthesis
  double incumbents = 0.0;
  double makespan = 0.0;  ///< of the last op
  double programInstrs = 0.0;
  // rcx
  double simSeconds = 0.0;
  double ticks = 0.0;
  double sends = 0.0;
  double commands = 0.0;
  // replan
  double trials = 0.0;
  double replans = 0.0;
  double rung1 = 0.0;
  double safeStops = 0.0;
  std::vector<double> replanMs;

  /// Process-wide DBM kernel counters, snapshot before a search; not
  /// every engine fills Stats::simdKernelOps, so the deltas are taken
  /// here, around the call.
  struct Kernels {
    size_t simd = dbm::simd::vectorOps();
    size_t scalar = dbm::simd::scalarOps();
  };

  void addSearch(const engine::Stats& s, const Kernels& before) {
    simdOps += static_cast<double>(dbm::simd::vectorOps() - before.simd);
    scalarOps += static_cast<double>(dbm::simd::scalarOps() - before.scalar);
    searchSeconds += s.seconds;
    optSeconds += s.optSeconds;
    removedEdges += static_cast<double>(s.removedEdges);
    explored += static_cast<double>(s.statesExplored);
    generated += static_cast<double>(s.statesGenerated);
    storedZones += static_cast<double>(s.storedZones);
    lookups += static_cast<double>(s.storeLookups);
    probes += static_cast<double>(s.storeProbeSteps);
    internHits += static_cast<double>(s.internHits);
    interned += static_cast<double>(s.statesInterned);
    reopenings += static_cast<double>(s.reopenings);
    peakBytes = std::max(peakBytes, static_cast<double>(s.peakBytes));
    storeBytes = std::max(storeBytes, static_cast<double>(s.storeBytes));
    internBytes = std::max(internBytes, static_cast<double>(s.internBytes));
  }
};

// -- Workloads --------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the inputs. Called several times; the last call's inputs are
  /// used. False when the inputs are unusable.
  virtual bool setup(Tracer& tr) = 0;
  /// One op, with its correctness check. Accumulates into counts().
  virtual bool op(Tracer& tr, uint64_t index) = 0;
  /// The runner stops only after a whole round of this many ops.
  virtual uint64_t roundSize() const { return 1; }
  /// Checks over the whole run, outside the timed phase.
  virtual bool finish() { return true; }
  /// Workload-specific end-to-end figures beyond BENCHMARK.json's list
  /// (printed in the human-readable block).
  virtual void extraEndToEnd(Metrics& /*out*/) const {}
  /// Work the ops have done since the counts were last cleared.
  LayerCounts& counts() { return counts_; }

 protected:
  static engine::Options searchOptions(engine::SearchOrder order) {
    engine::Options o;
    o.order = order;
    o.threads = 1;
    o.maxSeconds = kSearchMaxSeconds;
    o.maxMemoryBytes = kSearchMaxBytes;
    return o;
  }

  LayerCounts counts_;
};

/// Guided first-found synthesis, the paper's headline: the options
/// examples/synthesize_and_run ships with, 1000 ticks per unit, and one
/// nominal (fault-free) plant run with the CLI's 3000 slack ticks.
class SynthGuided final : public Workload {
 public:
  explicit SynthGuided(int batches) : batches_(batches) {}

  bool setup(Tracer& tr) override {
    plant::PlantConfig cfg;
    cfg.order = plant::standardOrder(batches_);
    cfg.guides = plant::GuideLevel::kAll;
    auto sp = tr.span("plant.build");
    plant_ = plant::buildPlant(cfg);
    return plant_ != nullptr;
  }

  bool op(Tracer& tr, uint64_t index) override {
    const plant::Plant& p = *plant_;
    engine::Options opts = searchOptions(engine::SearchOrder::kDfs);
    opts.dfsReverse = true;  // without it, 45-batch kDfs was OOM-killed
    const LayerCounts::Kernels k0;
    engine::Result res;
    {
      auto sp = tr.span("engine.search");
      engine::Reachability checker(p.sys, opts);
      res = checker.run(p.goal);
    }
    counts_.addSearch(res.stats, k0);
    if (!res.reachable || res.stats.cutoff != engine::Cutoff::kNone) {
      return false;
    }
    std::optional<engine::ConcreteTrace> ct;
    {
      auto sp = tr.span("engine.concretize");
      ct = engine::concretize(p.sys, res.trace);
    }
    if (!ct) return false;
    bool valid = false;
    {
      auto sp = tr.span("engine.validate");
      valid = engine::validate(p.sys, *ct);
    }
    if (!valid) return false;
    synthesis::Schedule sched;
    {
      auto sp = tr.span("synthesis.project");
      sched = synthesis::project(p.sys, *ct);
    }
    synthesis::RcxProgram prog;
    {
      auto sp = tr.span("synthesis.codegen");
      synthesis::CodegenOptions cg;
      cg.ticksPerTimeUnit = kTpu;
      prog = synthesis::synthesize(sched, cg);
    }
    rcx::SimResult sim;
    const auto t0 = Clock::now();
    {
      auto sp = tr.span("rcx.run");
      rcx::SimOptions so;
      so.messageLossProb = 0.0;
      so.seed = index + 1;
      so.slackTicks = kSlackTicks;
      sim = rcx::runProgram(prog, p.config, kTpu, so);
    }
    counts_.simSeconds += secondsBetween(t0, Clock::now());
    counts_.ticks += static_cast<double>(sim.ticks);
    counts_.sends += static_cast<double>(sim.commandsSent);
    counts_.commands += static_cast<double>(prog.commands.size());
    counts_.makespan = static_cast<double>(sched.makespan);
    counts_.programInstrs = static_cast<double>(prog.code.size());
    // The search is deterministic: every op must find the same schedule.
    if (!firstMakespan_) firstMakespan_ = sched.makespan;
    return sim.ok() && !sched.items.empty() && sched.makespan > 0 &&
           sched.makespan == *firstMakespan_;
  }

  void extraEndToEnd(Metrics& out) const override {
    out.set("makespan", counts_.makespan, "tu");
  }

 private:
  static constexpr int32_t kTpu = 1000;
  static constexpr int64_t kSlackTicks = 3000;
  int batches_;
  std::unique_ptr<plant::Plant> plant_;
  std::optional<int64_t> firstMakespan_;
};

/// Fischer's protocol (D=2, K=3: mutex holds) written as .gta text and
/// proved by exhaustive BFS.
class VerifyFischer final : public Workload {
 public:
  VerifyFischer(int n, size_t expectedZones)
      : n_(n), expectedZones_(expectedZones) {}

  bool setup(Tracer& tr) override {
    const std::string text = modelText();
    ta::FrontendResult fr;
    {
      auto sp = tr.span("ta.parse");
      fr = ta::parseModelEx(text);
    }
    if (!fr.ok || fr.queries.size() != 1) return false;
    const ta::ParsedQuery& q = fr.queries[0];
    goal_ = engine::Goal{q.locations, q.predicate, q.clockConstraints};
    sys_ = std::move(fr.system);
    return true;
  }

  bool op(Tracer& tr, uint64_t /*index*/) override {
    const LayerCounts::Kernels k0;
    engine::Result res;
    {
      auto sp = tr.span("engine.search");
      engine::Reachability checker(*sys_,
                                   searchOptions(engine::SearchOrder::kBfs));
      res = checker.run(goal_);
    }
    counts_.addSearch(res.stats, k0);
    return !res.reachable && res.exhausted &&
           res.stats.cutoff == engine::Cutoff::kNone &&
           res.stats.storedZones == expectedZones_;
  }

 private:
  [[nodiscard]] std::string modelText() const {
    std::ostringstream os;
    os << "clock";
    for (int i = 1; i <= n_; ++i) os << (i > 1 ? ", x" : " x") << i;
    os << ";\nint id = 0;\n";
    for (int i = 1; i <= n_; ++i) {
      const std::string x = "x" + std::to_string(i);
      os << "process P" << i << " {\n"
         << "  loc idle;\n  loc trying { inv " << x << " <= 2; }\n"
         << "  loc waiting;\n  loc critical;\n  init idle;\n"
         << "  edge idle -> trying { guard id == 0; reset " << x << "; }\n"
         << "  edge trying -> waiting { guard " << x << " <= 2; reset " << x
         << "; assign id = " << i << "; }\n"
         << "  edge waiting -> critical { guard " << x << " > 3 && id == "
         << i << "; }\n"
         << "  edge waiting -> idle { guard id != " << i << "; }\n"
         << "  edge critical -> idle { assign id = 0; }\n}\n";
    }
    os << "query reach P1.critical && P2.critical;\n";
    return os.str();
  }

  int n_;
  size_t expectedZones_;
  std::unique_ptr<ta::System> sys_;
  engine::Goal goal_;
};

/// Best-first makespan optimization on the plant with a makespan clock,
/// with examples/optimize_makespan's heuristic targets.
class OptimizeMakespan final : public Workload {
 public:
  OptimizeMakespan(int batches, int64_t expectedOptimum)
      : batches_(batches), expectedOptimum_(expectedOptimum) {}

  bool setup(Tracer& tr) override {
    plant::PlantConfig cfg;
    cfg.order = plant::standardOrder(batches_);
    cfg.makespanClock = true;
    auto sp = tr.span("plant.build");
    plant_ = plant::buildPlant(cfg);
    // Every automaton with a "done"/"alldone" location sits in it at the
    // goal, so the remaining-time bound may draw on all of them.
    targets_.assign(plant_->sys.numAutomata(), {});
    for (size_t i = 0; i < plant_->sys.numAutomata(); ++i) {
      const ta::Automaton& a =
          plant_->sys.automaton(static_cast<ta::ProcId>(i));
      for (const char* name : {"done", "alldone"}) {
        const ta::LocId l = a.findLocation(name);
        if (l >= 0) {
          targets_[i].push_back(l);
          break;
        }
      }
    }
    return true;
  }

  bool op(Tracer& tr, uint64_t /*index*/) override {
    synthesis::OptimizeOptions oo;
    oo.optimizer = synthesis::Optimizer::kBestFirst;
    oo.engine = searchOptions(engine::SearchOrder::kDfs);
    oo.engine.dfsReverse = true;
    oo.heuristicTargets = targets_;
    const LayerCounts::Kernels k0;
    synthesis::OptimizeResult res;
    {
      auto sp = tr.span("synthesis.optimize");
      res = synthesis::optimizeMakespan(plant_->sys, plant_->goal,
                                        plant_->makespan, oo);
    }
    counts_.addSearch(res.stats, k0);
    counts_.incumbents += static_cast<double>(res.incumbents.size());
    counts_.makespan = static_cast<double>(res.optimalMakespan);
    return res.feasible && res.optimal &&
           res.optimalMakespan == expectedOptimum_ &&
           res.schedule.makespan == expectedOptimum_;
  }

  void extraEndToEnd(Metrics& out) const override {
    out.set("makespan", counts_.makespan, "tu");
  }

 private:
  int batches_;
  int64_t expectedOptimum_;
  std::unique_ptr<plant::Plant> plant_;
  std::vector<std::vector<ta::LocId>> targets_;
};

/// Closed-loop execution with replanning, with the fault profiles and
/// options of bench/replan_campaign: each pass runs a fixed panel of
/// "burst" and "crash" trials in a fixed order.
class ExecuteReplan final : public Workload {
 public:
  explicit ExecuteReplan(int batches) : batches_(batches) {}

  bool setup(Tracer& tr) override {
    cfg_ = plant::PlantConfig{};
    cfg_.order = plant::standardOrder(batches_);
    std::unique_ptr<plant::Plant> p;
    {
      auto sp = tr.span("plant.build");
      p = plant::buildPlant(cfg_);
    }
    engine::Options eo = searchOptions(engine::SearchOrder::kDfs);
    eo.dfsReverse = true;
    engine::Result res;
    {
      auto sp = tr.span("engine.search");
      engine::Reachability checker(p->sys, eo);
      res = checker.run(p->goal);
    }
    if (!res.reachable) return false;
    std::optional<engine::ConcreteTrace> ct;
    {
      auto sp = tr.span("engine.concretize");
      ct = engine::concretize(p->sys, res.trace);
    }
    if (!ct || !engine::validate(p->sys, *ct)) return false;
    {
      auto sp = tr.span("synthesis.project");
      sched_ = synthesis::project(p->sys, *ct);
    }
    codegen_ = synthesis::CodegenOptions::hardened(
        kTpu, kSlackTicks,
        synthesis::CodegenOptions::resolveResend(
            synthesis::ResendPolicy::kAuto, 0.02));
    {
      auto sp = tr.span("synthesis.codegen");
      initialCommands_ =
          synthesis::synthesize(sched_, codegen_).commands.size();
    }
    // With a perfect channel the controller must finish in segment one.
    replan::RunReport ideal;
    {
      auto sp = tr.span("replan.run");
      ideal = replan::runWithReplanning(cfg_, sched_,
                                        options(rcx::FaultPlan{}, kPanelSalt));
    }
    return ideal.success && ideal.replans == 0;
  }

  uint64_t roundSize() const override { return kPanel; }

  bool op(Tracer& tr, uint64_t index) override {
    const uint64_t slot = index % kPanel;
    const Outcome o = trial(slot, &tr);
    counts_.trials += 1.0;
    counts_.replans += o.replans;
    counts_.rung1 += o.rung1;
    counts_.safeStops += o.safeStopped ? 1.0 : 0.0;
    double replanS = 0.0;
    for (double l : o.latencies) {
      counts_.replanMs.push_back(l * 1e3);
      replanS += l;
    }
    counts_.simSeconds += o.seconds - replanS;
    counts_.ticks += static_cast<double>(o.ticks);
    if (o.replans == 0) {  // one segment: the initial program's sends
      counts_.sends += static_cast<double>(o.sends);
      counts_.commands += static_cast<double>(initialCommands_);
    }
    // Every slot recurs once per pass; its outcome must repeat exactly.
    auto [it, fresh] = seen_.try_emplace(slot, Seen{o, 0});
    ++it->second.runs;
    if (!fresh) checkSame(it->second.first, o);
    return o.success;
  }

  /// A run too short for two passes replays the slots it ran only once.
  bool finish() override {
    Tracer off(false);
    for (const auto& [slot, s] : seen_) {
      if (s.runs == 1) checkSame(s.first, trial(slot, &off));
    }
    return reproducible_;
  }

  void extraEndToEnd(Metrics& out) const override {
    out.set("replan_ms_p50", quantile(counts_.replanMs, 0.50), "ms");
    out.set("replan_ms_p95", quantile(counts_.replanMs, 0.95), "ms");
  }

 private:
  static constexpr int32_t kTpu = 1000;
  static constexpr int64_t kSlackTicks = 8000;
  /// Fault scenarios per pass, run in a fixed order. The benchmark seed
  /// is only recorded: the strict rung makes trial cost heavy-tailed
  /// (1-3% of trials take 0.1-1.7 s), so a seed-drawn trial sample moved
  /// ops_per_s by 16% (IQR) and peak RSS between 63 and 507 MB.
  static constexpr uint64_t kPanel = 48;
  static constexpr uint64_t kPanelSalt = 0x5eed'0000;

  struct Outcome {
    bool success = false;
    bool safeStopped = false;
    int replans = 0;
    int rung1 = 0;
    int maxLadderLevel = -1;
    int64_t ticks = 0;
    int64_t sends = 0;
    double seconds = 0.0;
    std::vector<double> latencies;

    bool operator==(const Outcome& o) const {
      return success == o.success && safeStopped == o.safeStopped &&
             replans == o.replans && rung1 == o.rung1 &&
             maxLadderLevel == o.maxLadderLevel && ticks == o.ticks &&
             sends == o.sends;
    }
  };

  void checkSame(const Outcome& a, const Outcome& b) {
    if (a == b) return;
    reproducible_ = false;
    std::fprintf(stderr, "replan trial not reproducible at its seed "
                         "(ticks %lld vs %lld, replans %d vs %d)\n",
                 static_cast<long long>(a.ticks),
                 static_cast<long long>(b.ticks), a.replans, b.replans);
  }

  static rcx::FaultPlan plan(bool burst) {
    if (burst) {
      // Total outages of ~50 carried messages, past the watchdog budget.
      rcx::FaultPlan f = rcx::FaultPlan::iidLoss(0.02);
      f.burst.pGoodToBad = 0.02;
      f.burst.pBadToGood = 0.02;
      f.burst.lossGood = 0.0;
      f.burst.lossBad = 1.0;
      return f;
    }
    // ~1.5 crashes per run, each out-lasting the watchdog budget.
    rcx::FaultPlan f = rcx::FaultPlan::iidLoss(0.01);
    f.crash.crashPerTick = 2e-6;
    f.crash.downTicks = 72'000;
    return f;
  }

  [[nodiscard]] replan::ControllerOptions options(const rcx::FaultPlan& f,
                                                  uint64_t seed) const {
    replan::ControllerOptions o;
    o.sim.messageLossProb = 0.0;
    o.sim.faults = f;
    o.sim.seed = seed;
    o.sim.slackTicks = kSlackTicks;
    o.codegen = codegen_;
    o.ticksPerTimeUnit = kTpu;
    o.maxReplans = 8;
    o.replanChargeTicks = 2000;
    o.resume.strictMaxStates = 150'000;
    o.resume.relaxedMaxStates = 400'000;
    o.resume.engine.threads = 1;
    o.resume.engine.maxSeconds = kSearchMaxSeconds;
    o.resume.engine.maxMemoryBytes = kRepairMaxBytes;
    return o;
  }

  /// Panel slot `slot`: burst and crash alternate, so the panel holds
  /// as many of each as bench/replan_campaign runs per profile. Each slot
  /// has its own fixed channel seed.
  [[nodiscard]] Outcome trial(uint64_t slot, Tracer* tr) const {
    const bool burst = slot % 2 == 0;
    const uint64_t seed = splitmix64(kPanelSalt + slot);
    const auto t0 = Clock::now();
    replan::RunReport rep;
    {
      auto sp = tr->span("replan.run");
      rep = replan::runWithReplanning(cfg_, sched_, options(plan(burst), seed));
    }
    Outcome o;
    o.seconds = secondsBetween(t0, Clock::now());
    o.success = rep.success;
    o.safeStopped = rep.safeStopped;
    o.replans = rep.replans;
    o.maxLadderLevel = rep.maxLadderLevel;
    for (const replan::SegmentInfo& s : rep.segments) {
      o.rung1 += s.replanned && s.ladderLevel == 1 ? 1 : 0;
    }
    o.ticks = rep.finalResult.ticks;
    o.sends = rep.finalResult.commandsSent;
    o.latencies = rep.replanLatencySeconds;
    return o;
  }

  int batches_;
  plant::PlantConfig cfg_;
  synthesis::Schedule sched_;
  synthesis::CodegenOptions codegen_;
  size_t initialCommands_ = 0;
  struct Seen {
    Outcome first;
    int runs = 0;
  };
  std::map<uint64_t, Seen> seen_;
  bool reproducible_ = true;
};

std::unique_ptr<Workload> makeWorkload(const std::string& name) {
  if (name == "synth-guided-45") return std::make_unique<SynthGuided>(45);
  if (name == "verify-fischer-7") {
    return std::make_unique<VerifyFischer>(7, 223'903);
  }
  if (name == "optimize-3") return std::make_unique<OptimizeMakespan>(3, 121);
  if (name == "execute-replan-6") {
    return std::make_unique<ExecuteReplan>(6);
  }
  return nullptr;
}

// -- Runner -------------------------------------------------------------------

struct Phase {
  std::vector<double> opMs;
  int attempted = 0;
  int failed = 0;
  double wallSeconds = 0.0;

  [[nodiscard]] double opsPerSecond() const {
    return ratio(attempted, wallSeconds);
  }
};

/// Repeat the workload's op in whole rounds until `seconds` have passed.
/// Untraced, every round lands in phases[0]. With `alternate`, rounds
/// alternate untraced (phases[0]) and traced (phases[1]), so both see
/// the same warm-up; the workload's counts of the traced rounds are
/// left in w.counts().
void runTimed(Workload& w, Tracer& tr, double seconds, bool alternate,
              Phase phases[2]) {
  LayerCounts kept[2];
  uint64_t index = 0;
  const auto t0 = Clock::now();
  for (int r = 0; r < (alternate ? 2 : 1) ||
                  secondsBetween(t0, Clock::now()) < seconds;
       ++r) {
    const int side = alternate ? r % 2 : 0;
    Phase& ph = phases[side];
    tr.setOn(side == 1);
    w.counts() = std::move(kept[side]);
    const auto r0 = Clock::now();
    for (uint64_t i = 0; i < w.roundSize(); ++i, ++index) {
      tr.setOp(static_cast<int64_t>(index));
      const auto s = Clock::now();
      bool ok = false;
      {
        auto sp = tr.span("op");
        ok = w.op(tr, index);
      }
      ph.opMs.push_back(secondsBetween(s, Clock::now()) * 1e3);
      ++ph.attempted;
      ph.failed += ok ? 0 : 1;
    }
    ph.wallSeconds += secondsBetween(r0, Clock::now());
    kept[side] = std::move(w.counts());
  }
  tr.setOp(-1);
  tr.setOn(false);
  w.counts() = std::move(kept[alternate ? 1 : 0]);
}

/// The per-layer metrics of the traced phase (BENCHMARK.json order).
Metrics layerMetrics(const LayerCounts& c, const Tracer& tr, const Phase& ph,
                     double untracedOpsPerSecond) {
  const double ops = std::max(1, ph.attempted);
  const auto opMs = [&](const char* span) {
    return tr.total(span, true) / ops * 1e3;
  };
  const auto setupMs = [&](const char* span) {
    return ratio(tr.total(span, false), tr.setupCount(span)) * 1e3;
  };
  const double searchS =
      std::max(0.0, tr.total("engine.search", true) - c.optSeconds) / ops;
  const double kernelOps = c.simdOps + c.scalarOps;
  Metrics m;
  m.set("ta.parse_ms", setupMs("ta.parse"), "ms");
  m.set("ta.ir_opt_ms", c.optSeconds / ops * 1e3, "ms");
  m.set("ta.ir_removed_edges", c.removedEdges / ops, "count");
  m.set("plant.build_ms", setupMs("plant.build"), "ms");
  m.set("engine.search_s", searchS, "s");
  m.set("engine.states_per_s", ratio(c.explored, c.searchSeconds), "1/s");
  m.set("engine.states_explored", c.explored / ops, "count");
  m.set("engine.stored_zones", c.storedZones / ops, "count");
  m.set("engine.store_lookups", c.lookups / ops, "count");
  m.set("engine.probe_per_lookup", ratio(c.probes, c.lookups), "ratio");
  m.set("engine.stored_per_generated", ratio(c.storedZones, c.generated),
        "ratio");
  m.set("engine.intern_hit_ratio",
        ratio(c.internHits, c.internHits + c.interned), "ratio");
  m.set("engine.accounted_peak_mb", c.peakBytes / kMiB, "MB");
  m.set("engine.store_mb", c.storeBytes / kMiB, "MB");
  m.set("engine.intern_mb", c.internBytes / kMiB, "MB");
  m.set("engine.rss_over_accounted",
        ratio(peakRssMb(), c.peakBytes / kMiB), "ratio");
  m.set("engine.reopenings", c.reopenings / ops, "count");
  m.set("engine.concretize_ms", opMs("engine.concretize"), "ms");
  m.set("engine.validate_ms", opMs("engine.validate"), "ms");
  m.set("dbm.kernel_ops_per_state", ratio(kernelOps, c.explored), "count");
  m.set("dbm.simd_share", ratio(c.simdOps, kernelOps), "ratio");
  m.set("synthesis.project_ms", opMs("synthesis.project"), "ms");
  m.set("synthesis.codegen_ms", opMs("synthesis.codegen"), "ms");
  m.set("synthesis.program_instrs", c.programInstrs, "count");
  m.set("synthesis.optimize_s", tr.total("synthesis.optimize", true) / ops,
        "s");
  m.set("synthesis.incumbents", c.incumbents / ops, "count");
  m.set("synthesis.makespan", c.makespan, "tu");
  m.set("rcx.sim_ms", c.simSeconds / ops * 1e3, "ms");
  m.set("rcx.ticks_per_s", ratio(c.ticks, c.simSeconds), "1/s");
  m.set("rcx.sends_per_command", ratio(c.sends, c.commands), "ratio");
  double replanMsTotal = 0.0;
  for (double l : c.replanMs) replanMsTotal += l;
  m.set("replan.resume_ms", replanMsTotal / ops, "ms");
  m.set("replan.replans_per_trial", ratio(c.replans, c.trials), "count");
  m.set("replan.rung1_share", ratio(c.rung1, c.replans), "ratio");
  m.set("replan.safe_stops", c.safeStops, "count");
  m.set("replan.replan_ms_p50", quantile(c.replanMs, 0.50), "ms");
  m.set("replan.replan_ms_p95", quantile(c.replanMs, 0.95), "ms");
  m.set("trace.span_coverage", tr.opCoverage(), "ratio");
  m.set("trace.ops_per_s_untraced", untracedOpsPerSecond, "1/s");
  m.set("trace.ops_per_s_traced", ph.opsPerSecond(), "1/s");
  m.set("trace.overhead_share",
        1.0 - ratio(ph.opsPerSecond(), untracedOpsPerSecond), "ratio");
  return m;
}

int usage() {
  std::fputs(
      "usage: pipeline_bench --workload NAME --seed N --seconds S "
      "--trace 0|1 [--rev REV] [--trace-out FILE]\n"
      "workloads: synth-guided-45 verify-fischer-7 optimize-3 "
      "execute-replan-6\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workloadName;
  std::string rev = "unknown";
  std::string traceOut;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") workloadName = value;
    else if (flag == "--seed") seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") seconds = std::atof(value);
    else if (flag == "--trace") trace = std::atoi(value);
    else if (flag == "--rev") rev = value;
    else if (flag == "--trace-out") traceOut = value;
    else return usage();
  }
  if (argc % 2 == 0 || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return usage();
  }
  std::unique_ptr<Workload> w = makeWorkload(workloadName);
  if (!w) return usage();

  // Provenance: every figure below names the host it ran on.
  std::printf(
      "# pipeline_bench rev=%s nproc=%u ram_gb=%.1f simd=%s build=%s "
      "workload=%s seed=%llu seconds=%g trace=%d\n",
      rev.c_str(), std::thread::hardware_concurrency(),
      static_cast<double>(sysconf(_SC_PHYS_PAGES)) *
          static_cast<double>(sysconf(_SC_PAGESIZE)) / (kMiB * 1024.0),
      dbm::simd::levelName(dbm::simd::activeLevel()), PERFBENCH_BUILD_TYPE,
      workloadName.c_str(), static_cast<unsigned long long>(seed), seconds,
      trace);

  // In a fresh process set-up ran up to 1.8x slower for the first few
  // hundred milliseconds, and its first few calls up to 6x slower (cold
  // caches and allocator). So spin the CPU for a fixed time, which
  // touches no heap, then run set-up untimed a fixed number of times: a
  // fixed count keeps the heap's history, and so peak_rss_mb, independent
  // of host speed.
  constexpr double kSpinSeconds = 0.25;
  constexpr int kWarmSetups = 20;
  // Enough timed set-ups that a short burst of host noise moves no
  // median: with 9, the 45-batch plant's ~1 ms set-up read up to 3x its
  // median in single runs.
  constexpr int kSetups = 41;
  for (const auto spin0 = Clock::now();
       secondsBetween(spin0, Clock::now()) < kSpinSeconds;) {
  }
  Tracer tr(false);
  bool correct = true;
  for (int i = 0; i < kWarmSetups; ++i) correct = w->setup(tr) && correct;
  tr.setOn(trace == 1);
  std::vector<double> setupS;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    correct = w->setup(tr) && correct;
    setupS.push_back(secondsBetween(t0, Clock::now()));
  }
  if (!correct) {
    std::fputs("set-up failed its check; no op was run\n", stderr);
    return 1;
  }

  Phase phases[2];
  runTimed(*w, tr, seconds, trace == 1, phases);
  Phase& timed = phases[trace];
  Metrics metrics;
  if (trace == 0) {
    metrics.set("setup_s", quantile(setupS, 0.5), "s");
    metrics.set("ops_per_s", timed.opsPerSecond(), "1/s");
    metrics.set("op_ms_p50", quantile(timed.opMs, 0.50), "ms");
    metrics.set("op_ms_p90", quantile(timed.opMs, 0.90), "ms");
    metrics.set("peak_rss_mb", peakRssMb(), "MB");
  } else {
    metrics = layerMetrics(w->counts(), tr, timed,
                           phases[0].opsPerSecond());
    if (!traceOut.empty() && !tr.write(traceOut)) {
      std::fprintf(stderr, "could not write %s\n", traceOut.c_str());
    }
    timed.attempted += phases[0].attempted;
    timed.failed += phases[0].failed;
  }
  correct = w->finish() && correct && timed.failed == 0;

  // Human-readable block: every end-to-end figure the workload has,
  // including those that do not apply to every workload.
  Metrics extra;
  extra.set("failed_frac", ratio(timed.failed, timed.attempted), "ratio");
  w->extraEndToEnd(extra);
  std::printf("# ops=%d failed=%d wall_s=%.3f\n", timed.attempted,
              timed.failed, timed.wallSeconds);
  metrics.print(stdout, "#   ");
  extra.print(stdout, "#   ");
  if (trace == 1) {
    for (const auto& [layer, self] : tr.selfByLayer()) {
      std::printf("#   self_s[%s] %.6f\n", layer.c_str(), self);
    }
  }

  std::printf(
      "{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false", timed.attempted, timed.failed,
      metrics.json().c_str());
  return correct ? 0 : 1;
}
