// Work-stealing parallel depth-first reachability
// (`opts.threads > 1`, depth-first order).
//
// Each worker owns a stack of pending frames (a frame = one generated,
// deduplicated state awaiting expansion) and pushes its children on
// top, so an undisturbed worker explores in exactly the sequential
// depth-first order. All workers but the last *follow*: each expands
// the deepest pending frame in sight — the top of its own stack, unless
// another worker's top is deeper — so they share one depth-first
// frontier and expand the siblings the deepest dive would otherwise
// backtrack into. The last worker *scouts*: it dives on its own and,
// when its stack runs dry, steals the oldest frame of a victim, the one
// closest to the root. Random-DFS cost is heavy-tailed — a dive can
// sink into a dead subtree of 10^5 states — and the scout's dive,
// started apart from the followers', hedges against that; they join it
// as soon as it becomes the deepest. Deduplication goes through the same
// ShardedPassedStore as parallel BFS, so zone-inclusion subsumption is
// unchanged. Frames are arena-allocated per worker and carry parent
// pointers; publication is ordered by the stack mutexes, so a thief
// always observes fully constructed ancestors and trace reconstruction
// is race-free. A frame counts its unfinished children; when its whole
// subtree is done its zone goes back to the zone pool, so the search
// holds zones for the live part of the tree only, as sequential DFS
// does, instead of one per explored state.
//
// The engine guarantees *verdict equivalence* with sequential DFS —
// same reachable/exhausted answer — but not trace determinism: which
// witness is found depends on scheduling. Every positive verdict is
// concretized and validated before being returned (see DESIGN.md
// "Parallel depth-first search" for the equivalence argument).
#include <algorithm>
#include <atomic>
#include <cassert>
#include <deque>
#include <mutex>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "dbm/pool.hpp"
#include "engine/interner.hpp"
#include "engine/passed_store.hpp"
#include "engine/reachability.hpp"
#include "engine/search_common.hpp"
#include "engine/trace.hpp"

namespace engine {

namespace {

/// One deduplicated state awaiting expansion: interned discrete id plus
/// zone (the discrete vectors live once in the run's StateInterner).
/// Parent pointers stay valid for the whole search because the
/// per-worker arenas only grow, and the ids they carry are resolvable
/// by any thread because frames cross threads only through the stack
/// mutexes.
struct DfsNode {
  DfsNode(uint32_t did_, dbm::Dbm zone_, Transition via_, DfsNode* parent_,
          uint32_t depth_)
      : did(did_),
        zone(std::move(zone_)),
        via(std::move(via_)),
        parent(parent_),
        depth(depth_) {}

  uint32_t did;
  /// Read only by the one worker expanding the frame (traces carry no
  /// zones, so a goal report from inside its subtree reads none).
  dbm::Dbm zone;
  Transition via;
  DfsNode* parent;  ///< nullptr for the initial state
  uint32_t depth;   ///< trace depth (initial state = 1)
  /// 1 until the frame is expanded, plus one per child whose subtree is
  /// unfinished. The thread that drops it to 0 recycles the zone and
  /// releases the frame's hold on its parent.
  std::atomic<uint32_t> live{1};
};

/// A worker's stack of pending frames; every access to `pending` holds
/// `m`. The lock is uncontended unless someone is taking a frame from
/// another worker, and expansion cost (successor DBM operations)
/// dwarfs it.
struct alignas(64) WorkerStack {
  std::mutex m;
  std::deque<DfsNode*> pending;
  /// Depth of the top frame, 0 when empty. Written under `m`, read
  /// without it to choose the deepest stack.
  std::atomic<uint32_t> topDepth{0};

  void setTopDepth() {
    topDepth.store(pending.empty() ? 0 : pending.back()->depth,
                   std::memory_order_relaxed);
  }
};

struct WorkerLocal {
  std::deque<DfsNode> arena;  ///< stable addresses; owns this worker's nodes
  size_t explored = 0;
  size_t generated = 0;
  size_t steals = 0;
  size_t peakDepth = 0;
  size_t peakBytes = 0;  ///< largest arena total this worker observed
  /// Frame bytes this worker added (or, retiring frames, released)
  /// since it last published to the shared arena total.
  int64_t unpublishedBytes = 0;
};

/// What every worker writes, and what every worker reads on every step,
/// on separate cache lines: with states that take a few microseconds,
/// a flag sharing a line with a counter would miss on every read.
struct alignas(64) SharedCounters {
  /// Frames enqueued but not yet fully expanded; 0 = search exhausted.
  std::atomic<size_t> pendingCount{0};
  /// Expansions, kept only under a states budget (which must be exact).
  std::atomic<size_t> explored{0};
  /// Frame bytes held, as published by the workers.
  std::atomic<int64_t> arenaBytes{0};
};

struct alignas(64) SharedFlags {
  std::atomic<bool> goalFound{false};
  search::CutoffLatch abort;
};

/// Workers test the time and memory budgets, and publish their frame
/// bytes, once per this many expansions.
constexpr size_t kCheckEvery = 16;

}  // namespace

Result Reachability::runParallelDfs(const Goal& goal) {
  const size_t nThreads = std::max<size_t>(2, opts_.threads);
  Result res;
  res.stats.perThreadExplored.assign(nThreads, 0);
  const search::Meter meter(opts_);

  StateInterner& interner = *interner_;
  ShardedPassedStore passed(opts_.shardBits, interner);
  std::optional<BitTable> bits;
  if (opts_.bitstateHashing) bits.emplace(opts_.hashBits);
  // testAndSet / testAndInsert both query and mark, atomically enough
  // that no state is expanded twice through the same store entry.
  // Returns the interned id of a freshly claimed state, kNoId when it
  // was already seen (bit-state mode interns explicitly — the bit table
  // holds no ids but the search frames still need one).
  const auto claim = [&](const SymbolicState& s) -> uint32_t {
    if (bits) {
      return bits->testAndSet(s, gen_.fullWidthHash(s))
                 ? StateInterner::kNoId
                 : interner.intern(s.d);
    }
    return passed.testAndInsert(s);
  };

  std::vector<WorkerStack> stacks(nThreads);
  std::vector<WorkerLocal> locals(nThreads);

  SharedCounters shared;
  SharedFlags flags;

  // First goal hit wins; which one that is depends on scheduling
  // (verdict equivalence, not trace determinism).
  std::mutex goalMutex;
  SymbolicTrace goalTrace;
  const auto reportGoal = [&](DfsNode* parent, Successor* last) {
    std::lock_guard<std::mutex> lk(goalMutex);
    if (flags.goalFound.load(std::memory_order_relaxed)) return;
    const auto nodeAt = [](const DfsNode* n) -> const DfsNode& { return *n; };
    if (last != nullptr) {
      const DfsNode leaf(interner.intern(last->state.d),
                         std::move(last->state.zone), std::move(last->via),
                         parent, parent == nullptr ? 1 : parent->depth + 1);
      goalTrace = search::traceFromChain(interner, &leaf, nullptr, nodeAt);
    } else {
      goalTrace = search::traceFromChain(interner, parent, nullptr, nodeAt);
    }
    flags.goalFound.store(true, std::memory_order_release);
  };

  const auto stopping = [&] {
    return flags.goalFound.load(std::memory_order_relaxed) ||
           flags.abort.raised();
  };

  const auto finish = [&](Cutoff c, bool exhausted) {
    res.exhausted = exhausted && c == Cutoff::kNone && !bits;
    meter.finish(res.stats, c, gen_, interner, passed);
    // The interner and the store only grow (subsumption aside); the
    // frame arenas shrink as subtrees finish, so their high-water mark
    // is the largest total any worker observed.
    const size_t others =
        interner.bytes() + (bits ? bits->bytes() : passed.bytes());
    const int64_t held = shared.arenaBytes.load(std::memory_order_relaxed);
    const auto arena = static_cast<size_t>(std::max<int64_t>(held, 0));
    size_t arenaPeak = arena;
    for (const WorkerLocal& l : locals) {
      arenaPeak = std::max(arenaPeak, l.peakBytes);
    }
    res.stats.bytesStored = arena + others;
    res.stats.peakBytes = arenaPeak + others;
    for (size_t tid = 0; tid < nThreads; ++tid) {
      const WorkerLocal& l = locals[tid];
      res.stats.perThreadExplored[tid] = l.explored;
      res.stats.statesExplored += l.explored;
      res.stats.statesGenerated += l.generated;
      res.stats.frameSteals += l.steals;
      res.stats.peakStackDepth = std::max(res.stats.peakStackDepth,
                                          l.peakDepth);
    }
    return res;
  };

  SymbolicState init = gen_.initial();
  if (search::endsAtInitial(sys_, goal, init, interner, res)) {
    return finish(Cutoff::kNone, res.exhausted);
  }
  const uint32_t initId = claim(init);
  assert(initId != StateInterner::kNoId);
  shared.arenaBytes.store(
      static_cast<int64_t>(init.zone.memoryBytes() + sizeof(DfsNode)),
      std::memory_order_relaxed);
  locals[0].arena.emplace_back(initId, std::move(init.zone), Transition{},
                               nullptr, 1);
  locals[0].peakDepth = 1;
  stacks[0].pending.push_back(&locals[0].arena.back());
  stacks[0].setTopDepth();
  shared.pendingCount.store(1, std::memory_order_relaxed);

  const auto work = [&](size_t tid) {
    WorkerLocal& local = locals[tid];
    std::mt19937_64 rng(opts_.seed + tid);
    const bool scout = tid + 1 == nThreads;
    size_t victim = (tid + 1) % nThreads;

    // Pop the top frame of stack `from`; nullptr when it is empty.
    const auto popTop = [&](size_t from) -> DfsNode* {
      WorkerStack& st = stacks[from];
      std::lock_guard<std::mutex> lk(st.m);
      if (st.pending.empty()) return nullptr;
      DfsNode* n = st.pending.back();
      st.pending.pop_back();
      st.setTopDepth();
      if (from != tid) ++local.steals;
      return n;
    };
    // Follower: the deepest top frame of all stacks, our own on ties.
    // nullptr when every stack is empty, or when the chosen one emptied
    // in the meantime (the caller simply looks again).
    const auto takeDeepest = [&]() -> DfsNode* {
      size_t from = tid;
      uint32_t deepest = stacks[tid].topDepth.load(std::memory_order_relaxed);
      for (size_t k = 0; k < nThreads; ++k) {
        const uint32_t d = stacks[k].topDepth.load(std::memory_order_relaxed);
        if (d > deepest) {
          deepest = d;
          from = k;
        }
      }
      return deepest == 0 ? nullptr : popTop(from);
    };
    // Scout: our own top, else the oldest frame of the next victim that
    // has one.
    const auto takeScout = [&]() -> DfsNode* {
      if (DfsNode* n = popTop(tid)) return n;
      for (size_t k = 0; k < nThreads - 1; ++k) {
        WorkerStack& vs = stacks[victim];
        victim = (victim + 1) % nThreads;
        if (victim == tid) victim = (victim + 1) % nThreads;
        std::lock_guard<std::mutex> lk(vs.m);
        if (vs.pending.empty()) continue;
        DfsNode* n = vs.pending.front();
        vs.pending.pop_front();
        vs.setTopDepth();
        ++local.steals;
        return n;
      }
      return nullptr;
    };

    // A frame is done expanding: drop its own hold, and recycle the
    // zones of every frame whose subtree that completes.
    const auto retire = [&](DfsNode* n) {
      while (n != nullptr &&
             n->live.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        local.unpublishedBytes -= static_cast<int64_t>(n->zone.memoryBytes());
        dbm::Dbm dead = std::move(n->zone);
        dbm::ZonePool::recycle(std::move(dead));
        n = n->parent;
      }
    };

    // Add this worker's frame bytes to the shared total; returns it.
    // The total runs low, even below 0, while another worker has yet to
    // publish frames this one retired.
    const auto publishBytes = [&] {
      const int64_t nb =
          shared.arenaBytes.fetch_add(local.unpublishedBytes,
                                      std::memory_order_relaxed) +
          local.unpublishedBytes;
      local.unpublishedBytes = 0;
      const auto held = static_cast<size_t>(std::max<int64_t>(nb, 0));
      local.peakBytes = std::max(local.peakBytes, held);
      return held;
    };

    while (!stopping()) {
      DfsNode* node = scout ? takeScout() : takeDeepest();
      if (node == nullptr) {
        if (shared.pendingCount.load(std::memory_order_acquire) == 0) break;
        std::this_thread::yield();
        continue;
      }

      ++local.explored;
      if (opts_.maxStates != 0) {
        flags.abort.raise(meter.checkStates(
            shared.explored.fetch_add(1, std::memory_order_relaxed) + 1));
      }
      if (local.explored % kCheckEvery == 0) {
        flags.abort.raise(meter.checkTime());
        const size_t nb = publishBytes();
        // The interner and store byte counters are written by every
        // worker; read them only when there is a budget to test.
        if (opts_.maxMemoryBytes != 0) {
          flags.abort.raise(meter.checkMemory(
              nb + interner.bytes() +
              (bits ? bits->bytes() : passed.approxBytes())));
        }
      }

      const DiscreteState& nodeD = interner.get(node->did);
      std::vector<Successor> succs = gen_.successors(nodeD, node->zone);
      if (goal.deadlock && succs.empty() &&
          goal.matches(sys_, nodeD, node->zone)) {
        reportGoal(node, nullptr);
      }
      search::orderSuccessors(succs, opts_, rng);

      // Push in reverse so the first successor in search order is on
      // top of the stack — an undisturbed worker explores depth-first
      // in exactly the sequential order.
      std::vector<DfsNode*> fresh;
      fresh.reserve(succs.size());
      for (Successor& suc : succs) {
        if (stopping()) break;
        ++local.generated;
        if (!goal.deadlock && goal.matches(sys_, suc.state)) {
          reportGoal(node, &suc);
          break;
        }
        const uint32_t id = claim(suc.state);
        if (id == StateInterner::kNoId) {
          dbm::ZonePool::recycle(std::move(suc.state.zone));
          continue;
        }
        local.unpublishedBytes += static_cast<int64_t>(
            suc.state.zone.memoryBytes() + sizeof(DfsNode) + sizeof(DfsNode*));
        local.arena.emplace_back(id, std::move(suc.state.zone),
                                 std::move(suc.via), node, node->depth + 1);
        local.peakDepth = std::max<size_t>(local.peakDepth, node->depth + 1);
        fresh.push_back(&local.arena.back());
      }
      if (!fresh.empty()) {
        // Count the children before anyone can see them: a child can
        // only retire (and release its hold on `node`) once published.
        node->live.fetch_add(static_cast<uint32_t>(fresh.size()),
                             std::memory_order_relaxed);
        shared.pendingCount.fetch_add(fresh.size(), std::memory_order_relaxed);
        std::lock_guard<std::mutex> lk(stacks[tid].m);
        for (size_t k = fresh.size(); k-- > 0;) {
          stacks[tid].pending.push_back(fresh[k]);
        }
        stacks[tid].setTopDepth();
      }
      retire(node);
      // Publish this frame's completion only after its children are
      // visible: a worker observing pendingCount == 0 must be able to
      // conclude the whole search space is drained.
      shared.pendingCount.fetch_sub(1, std::memory_order_release);
    }
    (void)publishBytes();
  };

  {
    std::vector<std::thread> pool;
    pool.reserve(nThreads - 1);
    for (size_t tid = 1; tid < nThreads; ++tid) pool.emplace_back(work, tid);
    work(0);
    for (std::thread& t : pool) t.join();
  }

  if (flags.goalFound.load(std::memory_order_acquire)) {
    res.reachable = true;
    res.trace = std::move(goalTrace);
    // The tentpole guarantee: a positive parallel verdict must survive
    // the independent trace validator before being reported.
    std::string err;
    const auto ct = concretize(sys_, res.trace, &err);
    const bool valid = ct.has_value() && validate(sys_, *ct, &err);
    assert(valid && "parallel DFS produced an invalid witness");
    if (!valid) {
      // Engine bug: refuse to report an unvalidated witness. Surface it
      // as a time-like abort rather than a (wrong) negative verdict.
      res.reachable = false;
      res.trace.steps.clear();
      return finish(Cutoff::kTime, false);
    }
    return finish(Cutoff::kNone, false);
  }
  if (flags.abort.raised()) return finish(flags.abort.get(), false);
  return finish(Cutoff::kNone, true);
}

}  // namespace engine
