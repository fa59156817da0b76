#include "engine/reachability.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <random>

#include "dbm/pool.hpp"
#include "engine/interner.hpp"
#include "engine/passed_store.hpp"
#include "engine/search_common.hpp"

namespace engine {

bool Goal::matches(const ta::System& sys, const DiscreteState& d,
                   const dbm::Dbm& zone) const {
  for (const auto& [proc, loc] : locations) {
    if (d.locs[static_cast<size_t>(proc)] != loc) return false;
  }
  if (predicate != ta::kNoExpr && !sys.pool().evalBool(predicate, d.vars)) {
    return false;
  }
  if (!clockConstraints.empty()) {
    dbm::Dbm z = dbm::ZonePool::copyOf(zone);
    for (const ta::ClockConstraint& cc : clockConstraints) {
      if (!z.constrain(static_cast<uint32_t>(cc.i),
                       static_cast<uint32_t>(cc.j), cc.bound)) {
        dbm::ZonePool::recycle(std::move(z));
        return false;
      }
    }
    dbm::ZonePool::recycle(std::move(z));
  }
  return true;
}

Reachability::Reachability(const ta::System& sys, Options opts)
    : sys_(sys), opts_(opts), gen_(sys, opts_) {
  assert((!opts_.bitstateHashing || opts_.order != SearchOrder::kBfs) &&
         "bit-state hashing requires a depth-first order (as in the paper)");
}

Reachability::~Reachability() = default;

Result Reachability::run(const Goal& goal) {
  // Pre-exploration optimization (lazy — the pins depend on the goal).
  double optSeconds = 0.0;
  if (opts_.optLevel > 0) {
    ta::OptimizedModel model =
        opt_bridge::optimizeForGoal(sys_, goal, opts_.optLevel);
    auto res = search::runOptimized(
        sys_, goal, opts_, model, &optSeconds,
        [&](const Options& inner, const Goal& g) {
          return Reachability(model.system(), inner).run(g);
        });
    if (res) return *std::move(res);
  }

  // Clocks the goal observes must survive the reductions; the loops
  // test the goal over the fixed slots those clocks hold in every zone.
  Goal local = goal;
  local.clockConstraints = gen_.observeGoalConstraints(goal.clockConstraints);
  // Fresh discrete-state arena per run: the engine (and every worker
  // of a parallel one) interns into it and resolves the ids it stores
  // back through it.
  interner_ = std::make_unique<StateInterner>();
  Result res;
  if (opts_.order != SearchOrder::kBfs) {
    res = opts_.threads > 1 ? runParallelDfs(local) : runDfs(local);
  } else {
    res = opts_.threads > 1 ? runParallelBfs(local) : runBfs(local);
  }
  // The pipeline ran but found nothing to rewrite; record its cost.
  res.stats.optSeconds = optSeconds;
  return res;
}

// --------------------------------------------------------------------------
// Breadth-first: arena with parent pointers for trace reconstruction.
// --------------------------------------------------------------------------

Result Reachability::runBfs(const Goal& goal) {
  // Nodes carry the interned discrete id plus the zone; the discrete
  // vectors live once in the interner arena.
  struct Node {
    uint32_t did;
    dbm::Dbm zone;
    Transition via;
    int64_t parent;
  };

  Result res;
  const search::Meter meter(opts_);
  StateInterner& interner = *interner_;
  PassedStore passed(interner);

  std::vector<Node> arena;
  std::deque<int64_t> waiting;
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
    const uint64_t h = init.d.hash();
    const uint32_t id = interner.intern(init.d, h);
    passed.insertHashed(id, init.zone, h);
    arenaBytes += init.zone.memoryBytes();
    arena.push_back({id, std::move(init.zone), Transition{}, -1});
    waiting.push_back(0);
  }
  res.stats.bytesStored = passed.bytes() + interner.bytes() + arenaBytes;
  res.stats.peakBytes = res.stats.bytesStored;

  while (!waiting.empty()) {
    // Refresh memory accounting once per popped state — covered
    // successors never enter the insert branch, and a long covered
    // stretch must not let the maxMemoryBytes cutoff fire late.
    res.stats.bytesStored = passed.bytes() + interner.bytes() + arenaBytes +
                            arena.size() * sizeof(Node) +
                            waiting.size() * sizeof(int64_t);
    res.stats.peakBytes = std::max(res.stats.peakBytes, res.stats.bytesStored);
    if (const Cutoff c =
            meter.check(res.stats.bytesStored, res.stats.statesExplored);
        c != Cutoff::kNone) {
      return finish(c, false);
    }
    const int64_t idx = waiting.front();
    waiting.pop_front();
    ++res.stats.statesExplored;

    // The interned reference is stable; the zone is copied because the
    // arena may reallocate while pushing successors.
    const uint32_t did = arena[static_cast<size_t>(idx)].did;
    const DiscreteState& d = interner.get(did);
    const dbm::Dbm zone = arena[static_cast<size_t>(idx)].zone;
    std::vector<Successor> succs = gen_.successors(d, zone);
    if (goal.deadlock && succs.empty() && goal.matches(sys_, d, zone)) {
      res.reachable = true;
      buildTrace(idx);
      return finish(Cutoff::kNone, false);
    }
    for (Successor& suc : succs) {
      ++res.stats.statesGenerated;
      if (!goal.deadlock && goal.matches(sys_, suc.state)) {
        arena.push_back({interner.intern(suc.state.d),
                         std::move(suc.state.zone), std::move(suc.via), idx});
        res.reachable = true;
        buildTrace(static_cast<int64_t>(arena.size()) - 1);
        return finish(Cutoff::kNone, false);
      }
      const uint64_t h = suc.state.d.hash();
      if (passed.coveredHashed(suc.state.d, suc.state.zone, h)) {
        dbm::ZonePool::recycle(std::move(suc.state.zone));
        continue;
      }
      const uint32_t id = interner.intern(suc.state.d, h);
      passed.insertHashed(id, suc.state.zone, h);
      arenaBytes += suc.state.zone.memoryBytes();
      arena.push_back({id, std::move(suc.state.zone), std::move(suc.via), idx});
      waiting.push_back(static_cast<int64_t>(arena.size()) - 1);
    }
  }
  return finish(Cutoff::kNone, true);
}

// --------------------------------------------------------------------------
// Depth-first (optionally randomized, optionally bit-state hashed):
// explicit frame stack; the stack itself is the trace.
// --------------------------------------------------------------------------

Result Reachability::runDfs(const Goal& goal) {
  // Frames carry the interned discrete id plus the zone; the discrete
  // vectors live once in the interner.
  struct Frame {
    uint32_t did;
    dbm::Dbm zone;
    Transition via;
    std::vector<Successor> succ;
    size_t next = 0;
    size_t bytes = 0;
  };

  Result res;
  const search::Meter meter(opts_);
  StateInterner& interner = *interner_;
  PassedStore passed(interner);
  std::optional<BitTable> bits;
  if (opts_.bitstateHashing) bits.emplace(opts_.hashBits);
  std::mt19937_64 rng(opts_.seed);

  const auto covered = [&](const SymbolicState& s) {
    // testAndSet both queries and marks — call sites rely on that.
    return bits ? bits->testAndSet(s, gen_.fullWidthHash(s))
                : passed.covered(s.d, s.zone);
  };

  std::vector<Frame> stack;
  size_t stackBytes = 0;

  const auto frameBytes = [](const Frame& f) {
    size_t b = f.zone.memoryBytes() + sizeof(Frame);
    for (const Successor& suc : f.succ) {
      b += suc.state.memoryBytes() + sizeof(Successor);
    }
    return b;
  };

  const auto pushFrame = [&](uint32_t did, dbm::Dbm zone, Transition via) {
    Frame f{did, std::move(zone), std::move(via), {}, 0, 0};
    f.succ = gen_.successors(interner.get(did), f.zone);
    search::orderSuccessors(f.succ, opts_, rng);
    f.bytes = frameBytes(f);
    stackBytes += f.bytes;
    stack.push_back(std::move(f));
    res.stats.peakStackDepth =
        std::max(res.stats.peakStackDepth, stack.size());
    ++res.stats.statesExplored;
  };

  // Intern, record in the passed store (unless bit-state hashing owns
  // dedup), and push the search frame.
  const auto visit = [&](SymbolicState s, Transition via) {
    const uint64_t h = s.d.hash();
    const uint32_t did = interner.intern(s.d, h);
    if (!bits) passed.insertHashed(did, s.zone, h);
    pushFrame(did, std::move(s.zone), std::move(via));
  };

  const auto accountMemory = [&] {
    res.stats.bytesStored = stackBytes + interner.bytes() +
                            (bits ? bits->bytes() : passed.bytes());
    res.stats.peakBytes = std::max(res.stats.peakBytes, res.stats.bytesStored);
  };

  const auto buildTrace = [&](const Successor* last) {
    for (const Frame& f : stack) {
      res.trace.steps.push_back(TraceStep{f.via, interner.get(f.did)});
    }
    if (last != nullptr) {
      res.trace.steps.push_back(TraceStep{last->via, last->state.d});
    }
  };

  const auto finish = [&](Cutoff c, bool exhausted) {
    // A completed bit-state-hashed search may have pruned real states.
    res.exhausted = exhausted && c == Cutoff::kNone && !bits;
    meter.finish(res.stats, c, gen_, interner, passed);
    return res;
  };

  SymbolicState init = gen_.initial();
  if (search::endsAtInitial(sys_, goal, init, interner, res)) {
    return finish(Cutoff::kNone, res.exhausted);
  }
  (void)covered(init);  // mark visited (bit-state mode)
  visit(std::move(init), Transition{});
  accountMemory();

  // A deadlock goal matches states without successors; the state just
  // pushed is on top of the stack with its successors precomputed.
  const auto topIsDeadlock = [&] {
    return goal.deadlock && stack.back().succ.empty() &&
           goal.matches(sys_, interner.get(stack.back().did),
                        stack.back().zone);
  };
  if (topIsDeadlock()) {
    res.reachable = true;
    buildTrace(nullptr);
    return finish(Cutoff::kNone, false);
  }

  while (!stack.empty()) {
    if (const Cutoff c =
            meter.check(res.stats.bytesStored, res.stats.statesExplored);
        c != Cutoff::kNone) {
      return finish(c, false);
    }
    Frame& top = stack.back();
    if (top.next >= top.succ.size()) {
      stackBytes -= top.bytes;
      stack.pop_back();
      continue;
    }
    Successor suc = std::move(top.succ[top.next++]);
    ++res.stats.statesGenerated;
    if (!goal.deadlock && goal.matches(sys_, suc.state)) {
      res.reachable = true;
      buildTrace(&suc);
      return finish(Cutoff::kNone, false);
    }
    if (covered(suc.state)) {
      dbm::ZonePool::recycle(std::move(suc.state.zone));
      continue;
    }
    visit(std::move(suc.state), std::move(suc.via));
    if (topIsDeadlock()) {
      res.reachable = true;
      buildTrace(nullptr);
      return finish(Cutoff::kNone, false);
    }
    accountMemory();
  }
  return finish(Cutoff::kNone, true);
}

}  // namespace engine
