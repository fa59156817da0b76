// Level-synchronous parallel breadth-first reachability.
//
// The frontier of each BFS level is expanded by opts.threads workers
// pulling fixed-size chunks of frontier positions from an atomic
// cursor (cheap work stealing: a worker that finishes its fair share
// keeps taking chunks from the tail other workers have not reached).
// Successors are test-and-inserted into a ShardedPassedStore; survivors
// are buffered per worker and merged into the node arena at the level
// barrier, sorted by (parent position, successor ordinal) so the arena
// layout — and therefore trace reconstruction — is deterministic.
//
// Goal handling is "first goal wins" at the barrier: workers never stop
// early on a goal hit; the level is finished and the hit with the
// smallest (position, ordinal) is selected, which is exactly the first
// hit the sequential engine would have seen for the same frontier.
// Verdicts (reachable / exhausted) therefore match sequential BFS; see
// DESIGN.md "Parallel explorer" for what is and is not preserved.
#include <algorithm>
#include <atomic>
#include <cassert>
#include <deque>
#include <thread>
#include <vector>

#include "dbm/pool.hpp"
#include "engine/interner.hpp"
#include "engine/passed_store.hpp"
#include "engine/reachability.hpp"
#include "engine/search_common.hpp"

namespace engine {

namespace {

/// Interned discrete id + zone; the discrete vectors live once in the
/// run's StateInterner (ids published to other workers through the
/// level barrier's thread join).
struct Node {
  uint32_t did;
  dbm::Dbm zone;
  Transition via;
  int64_t parent;
};

/// A successor that survived the passed-store filter, keyed for the
/// deterministic barrier merge.
struct PendingNode {
  size_t pos;    ///< frontier position of the parent
  uint32_t ord;  ///< successor ordinal within the parent's expansion
  Node node;
};

/// A goal hit found during a level. For deadlock goals the hit is the
/// expanded state itself (ord == kDeadlockOrd, node parts unused).
struct GoalHit {
  size_t pos = 0;
  uint32_t ord = 0;
  SymbolicState state;
  Transition via;
};

constexpr uint32_t kDeadlockOrd = ~uint32_t{0};

struct WorkerOut {
  std::vector<PendingNode> nodes;
  std::vector<GoalHit> hits;
  size_t explored = 0;
  size_t generated = 0;
  size_t steals = 0;
};

}  // namespace

Result Reachability::runParallelBfs(const Goal& goal) {
  const size_t nThreads = std::max<size_t>(1, opts_.threads);
  Result res;
  res.stats.perThreadExplored.assign(nThreads, 0);
  const search::Meter meter(opts_);

  StateInterner& interner = *interner_;
  ShardedPassedStore passed(opts_.shardBits, interner);
  std::deque<Node> arena;  // stable references: workers read, barrier appends
  std::vector<int64_t> frontier;
  size_t arenaBytes = 0;

  const auto buildTrace = [&](int64_t idx) {
    res.trace = search::traceFromChain(
        interner, idx, -1, [&](int64_t k) -> const Node& {
          return arena[static_cast<size_t>(k)];
        });
  };

  const auto finish = [&](Cutoff c, bool exhausted) {
    res.exhausted = exhausted && c == Cutoff::kNone;
    meter.finish(res.stats, c, gen_, interner, passed);
    return res;
  };

  SymbolicState init = gen_.initial();
  if (search::endsAtInitial(sys_, goal, init, interner, res)) {
    return finish(Cutoff::kNone, res.exhausted);
  }
  {
    const uint32_t id = passed.testAndInsert(init);
    assert(id != StateInterner::kNoId);
    arenaBytes += init.zone.memoryBytes();
    arena.push_back({id, std::move(init.zone), Transition{}, -1});
    frontier.push_back(0);
  }

  // Cutoffs discovered mid-level (first one wins).
  search::CutoffLatch abort;
  // Running totals the workers consult between barriers. `approxBytes`
  // tracks the sequential engine's accounting (each stored state is
  // counted in the passed store and again in the arena) closely enough
  // for the mid-level maxMemoryBytes check; barriers recompute exactly.
  std::atomic<size_t> exploredTotal{0};
  std::atomic<size_t> approxBytes{0};

  while (!frontier.empty()) {
    // Exact accounting + cutoff checks at the level barrier.
    res.stats.bytesStored = passed.bytes() + interner.bytes() + arenaBytes +
                            arena.size() * sizeof(Node) +
                            frontier.size() * sizeof(int64_t);
    res.stats.peakBytes = std::max(res.stats.peakBytes, res.stats.bytesStored);
    if (const Cutoff c =
            meter.check(res.stats.bytesStored, res.stats.statesExplored);
        c != Cutoff::kNone) {
      return finish(c, false);
    }
    approxBytes.store(res.stats.bytesStored, std::memory_order_relaxed);

    const size_t fsize = frontier.size();
    const size_t chunk =
        std::clamp<size_t>(fsize / (nThreads * 8), size_t{1}, size_t{64});
    std::atomic<size_t> cursor{0};
    std::vector<WorkerOut> outs(nThreads);

    const auto work = [&](size_t tid) {
      WorkerOut& o = outs[tid];
      for (;;) {
        if (abort.raised()) return;
        const size_t begin =
            cursor.fetch_add(chunk, std::memory_order_relaxed);
        if (begin >= fsize) return;
        const size_t end = std::min(fsize, begin + chunk);
        if (begin * nThreads / fsize != tid) ++o.steals;
        for (size_t pos = begin; pos < end; ++pos) {
          const int64_t idx = frontier[pos];
          const Node& cur = arena[static_cast<size_t>(idx)];
          const DiscreteState& curD = interner.get(cur.did);
          ++o.explored;
          const size_t total =
              exploredTotal.fetch_add(1, std::memory_order_relaxed) + 1;
          Cutoff c = meter.checkStates(total);
          if (c == Cutoff::kNone && (o.explored & 31) == 0) {
            c = meter.checkTime();
          }
          if (c != Cutoff::kNone) {
            abort.raise(c);
            return;
          }
          std::vector<Successor> succs = gen_.successors(curD, cur.zone);
          if (goal.deadlock && succs.empty() &&
              goal.matches(sys_, curD, cur.zone)) {
            o.hits.push_back(GoalHit{pos, kDeadlockOrd,
                                     SymbolicState{{}, dbm::Dbm(1)},
                                     Transition{}});
            continue;
          }
          uint32_t ord = 0;
          for (Successor& suc : succs) {
            ++o.generated;
            if (!goal.deadlock && goal.matches(sys_, suc.state)) {
              o.hits.push_back(GoalHit{pos, ord, std::move(suc.state),
                                       std::move(suc.via)});
              ++ord;
              continue;
            }
            const uint32_t id = passed.testAndInsert(suc.state);
            if (id == StateInterner::kNoId) {
              dbm::ZonePool::recycle(std::move(suc.state.zone));
              ++ord;
              continue;
            }
            // Zone bytes are paid twice (store copy + arena copy); the
            // discrete part lives in the interner, counted exactly at
            // the barrier.
            const size_t nb =
                approxBytes.fetch_add(2 * suc.state.zone.memoryBytes() +
                                          sizeof(Node) + 64,
                                      std::memory_order_relaxed);
            abort.raise(meter.checkMemory(nb));
            o.nodes.push_back(PendingNode{
                pos, ord,
                Node{id, std::move(suc.state.zone), std::move(suc.via), idx}});
            ++ord;
          }
        }
      }
    };

    // Tiny frontiers are not worth the spawn cost; the chunked loop is
    // identical either way.
    if (fsize >= nThreads * 2 && nThreads > 1) {
      std::vector<std::thread> pool;
      pool.reserve(nThreads - 1);
      for (size_t tid = 1; tid < nThreads; ++tid) {
        pool.emplace_back(work, tid);
      }
      work(0);
      for (std::thread& t : pool) t.join();
    } else {
      work(0);
    }

    // ---- barrier: merge stats, resolve goals, grow the arena ----------
    std::vector<GoalHit> hits;
    size_t pending = 0;
    for (size_t tid = 0; tid < nThreads; ++tid) {
      WorkerOut& o = outs[tid];
      res.stats.perThreadExplored[tid] += o.explored;
      res.stats.statesExplored += o.explored;
      res.stats.statesGenerated += o.generated;
      res.stats.chunkSteals += o.steals;
      pending += o.nodes.size();
      for (GoalHit& h : o.hits) hits.push_back(std::move(h));
    }

    if (!hits.empty()) {
      // First goal wins, deterministically: the smallest (position,
      // ordinal) is the hit sequential expansion order reaches first.
      GoalHit& best = *std::min_element(
          hits.begin(), hits.end(), [](const GoalHit& a, const GoalHit& b) {
            return a.pos != b.pos ? a.pos < b.pos : a.ord < b.ord;
          });
      res.reachable = true;
      if (best.ord == kDeadlockOrd) {
        buildTrace(frontier[best.pos]);
      } else {
        arena.push_back(Node{interner.intern(best.state.d),
                             std::move(best.state.zone), std::move(best.via),
                             frontier[best.pos]});
        buildTrace(static_cast<int64_t>(arena.size()) - 1);
      }
      return finish(Cutoff::kNone, false);
    }

    if (abort.raised()) return finish(abort.get(), false);

    std::vector<PendingNode> merged;
    merged.reserve(pending);
    for (WorkerOut& o : outs) {
      for (PendingNode& pn : o.nodes) merged.push_back(std::move(pn));
    }
    std::sort(merged.begin(), merged.end(),
              [](const PendingNode& a, const PendingNode& b) {
                return a.pos != b.pos ? a.pos < b.pos : a.ord < b.ord;
              });
    frontier.clear();
    for (PendingNode& pn : merged) {
      arenaBytes += pn.node.zone.memoryBytes();
      arena.push_back(std::move(pn.node));
      frontier.push_back(static_cast<int64_t>(arena.size()) - 1);
    }
  }
  return finish(Cutoff::kNone, true);
}

}  // namespace engine
