// What every search loop shares, written once: the resource meter (the
// cut-off test, the wall clock and the DBM kernel-op baseline), the
// Stats fill-in, the initial-state prologue, trace rebuild from a parent
// chain, depth-first successor ordering and the opt-level wrapper.
//
// Private to src/engine. The loops themselves stay separate — sequential
// BFS and DFS, parallel BFS, work-stealing DFS and best-first each keep
// their own frontier, expansion order, claim timing and cut-off cadence —
// and call in here for everything else.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <random>
#include <type_traits>
#include <vector>

#include "dbm/simd.hpp"
#include "engine/interner.hpp"
#include "engine/opt_bridge.hpp"
#include "engine/options.hpp"
#include "engine/reachability.hpp"
#include "engine/stats.hpp"
#include "engine/successors.hpp"

namespace engine::search {

/// Started with the search it measures. It is the one test against
/// Options::{maxMemoryBytes, maxStates, maxSeconds} and the baseline of
/// Stats::seconds and the kernel-op deltas. Every member is const, so
/// worker threads may call it concurrently.
class Meter {
 public:
  explicit Meter(const Options& opts) : opts_(opts) {}

  /// `bytes` is the engine's accounted footprint and `explored` its
  /// expansions so far. Memory is tested first, then states, then time.
  [[nodiscard]] Cutoff check(size_t bytes, size_t explored) const {
    if (const Cutoff c = checkMemory(bytes); c != Cutoff::kNone) return c;
    if (const Cutoff c = checkStates(explored); c != Cutoff::kNone) return c;
    return checkTime();
  }
  [[nodiscard]] Cutoff checkMemory(size_t bytes) const {
    return opts_.maxMemoryBytes != 0 && bytes > opts_.maxMemoryBytes
               ? Cutoff::kMemory
               : Cutoff::kNone;
  }
  [[nodiscard]] Cutoff checkStates(size_t explored) const {
    return opts_.maxStates != 0 && explored > opts_.maxStates
               ? Cutoff::kStates
               : Cutoff::kNone;
  }
  [[nodiscard]] Cutoff checkTime() const {
    return opts_.maxSeconds > 0.0 && seconds() > opts_.maxSeconds
               ? Cutoff::kTime
               : Cutoff::kNone;
  }

  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// The Stats fill-in every engine ends with: the cut-off, wall time,
  /// DBM kernel ops since the meter started, and the generator's and
  /// interner's counters.
  void finish(Stats& st, Cutoff c, const SuccessorGenerator& gen,
              const StateInterner& interner) const {
    st.cutoff = c;
    st.seconds = seconds();
    st.simdKernelOps = dbm::simd::vectorOps() - simdOps0_;
    st.scalarKernelOps = dbm::simd::scalarOps() - scalarOps0_;
    st.extrapolationCoarsenings = gen.extrapolationCoarsenings();
    st.inactiveClocksFreed = gen.inactiveClocksFreed();
    st.statesInterned = interner.size();
    st.internHits = interner.hits();
    st.internBytes = interner.bytes();
  }
  /// The same, plus the passed store's counters (PassedStore or
  /// ShardedPassedStore).
  template <class Store>
  void finish(Stats& st, Cutoff c, const SuccessorGenerator& gen,
              const StateInterner& interner, const Store& store) const {
    finish(st, c, gen, interner);
    st.storedZones = store.states();
    st.storeLookups = store.lookups();
    st.storeProbeSteps = store.probeSteps();
    st.storeBytes = store.bytes();
    if constexpr (requires { store.lockContention(); }) {
      st.lockContention = store.lockContention();
    }
  }

 private:
  using Clock = std::chrono::steady_clock;

  const Options& opts_;
  Clock::time_point start_ = Clock::now();
  size_t simdOps0_ = dbm::simd::vectorOps();
  size_t scalarOps0_ = dbm::simd::scalarOps();
};

/// The first cut-off any worker of a parallel search raises; kNone
/// while the search may go on. raise(kNone) does nothing — not even a
/// write to the shared flag — so a Meter test can be passed straight
/// in on every expansion.
class CutoffLatch {
 public:
  void raise(Cutoff c) {
    if (c == Cutoff::kNone) return;
    uint8_t expect = static_cast<uint8_t>(Cutoff::kNone);
    c_.compare_exchange_strong(expect, static_cast<uint8_t>(c),
                               std::memory_order_relaxed);
  }
  [[nodiscard]] Cutoff get() const {
    return static_cast<Cutoff>(c_.load(std::memory_order_relaxed));
  }
  [[nodiscard]] bool raised() const { return get() != Cutoff::kNone; }

 private:
  std::atomic<uint8_t> c_{static_cast<uint8_t>(Cutoff::kNone)};
};

/// The prologue every reachability loop runs before its first
/// expansion. Returns true when the search ends at the initial state:
/// an empty lifted zone (System::setClockInit violated an invariant, so
/// nothing is reachable and `res.exhausted` is set) or a non-deadlock
/// goal the initial state satisfies (`res` gets the one-step trace).
/// Otherwise `init` is left for the caller to seed its frontier with.
[[nodiscard]] inline bool endsAtInitial(const ta::System& sys,
                                        const Goal& goal,
                                        SymbolicState& init,
                                        StateInterner& interner,
                                        Result& res) {
  if (init.zone.isEmpty()) {
    res.exhausted = true;
    return true;
  }
  if (goal.deadlock || !goal.matches(sys, init)) return false;
  (void)interner.intern(init.d);
  res.reachable = true;
  res.trace.steps.push_back(TraceStep{Transition{}, std::move(init.d)});
  return true;
}

/// Rebuild the witness that ends at chain link `leaf`: `nodeAt(link)`
/// resolves a link to its node (with did, via and parent), and the walk
/// stops at `end`, the root's parent link.
template <class Link, class NodeAt>
[[nodiscard]] SymbolicTrace traceFromChain(const StateInterner& interner,
                                           Link leaf,
                                           std::type_identity_t<Link> end,
                                           NodeAt nodeAt) {
  SymbolicTrace t;
  for (Link k = leaf; k != end; k = nodeAt(k).parent) {
    const auto& n = nodeAt(k);
    t.steps.push_back(TraceStep{n.via, interner.get(n.did)});
  }
  std::reverse(t.steps.begin(), t.steps.end());
  return t;
}

/// Put one expansion's successors in depth-first search order: shuffled
/// under kRandomDfs, reversed under dfsReverse, as generated otherwise.
inline void orderSuccessors(std::vector<Successor>& succ, const Options& opts,
                            std::mt19937_64& rng) {
  if (opts.order == SearchOrder::kRandomDfs) {
    std::shuffle(succ.begin(), succ.end(), rng);
  } else if (opts.dfsReverse) {
    std::reverse(succ.begin(), succ.end());
  }
}

/// The opt-level wrapper. When the pass pipeline changed `model`, runs
/// `inner(innerOpts, mappedGoal)` — an engine over model.system() at
/// optLevel 0, so the pipeline runs once per search — then folds the
/// pass counters into its stats and maps its witness back onto `sys`.
/// Returns nullopt when the pipeline changed nothing; `*optSeconds`
/// then holds its cost and the caller searches `sys` itself.
template <class Inner>
[[nodiscard]] auto runOptimized(const ta::System& sys, const Goal& goal,
                                const Options& opts,
                                ta::OptimizedModel& model,
                                double* optSeconds, Inner&& inner)
    -> std::optional<decltype(inner(opts, goal))> {
  if (!model.changed()) {
    *optSeconds = model.stats().seconds;
    return std::nullopt;
  }
  Options innerOpts = opts;
  innerOpts.optLevel = 0;
  auto res = inner(innerOpts, opt_bridge::mapGoal(sys, goal, model));
  opt_bridge::mergePassStats(res.stats, model.stats());
  if (res.reachable) {
    res.trace = opt_bridge::backMapTrace(sys, model, res.trace);
  }
  return res;
}

}  // namespace engine::search
