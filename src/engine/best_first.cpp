#include "engine/best_first.hpp"

#include <algorithm>
#include <cassert>
#include <queue>
#include <unordered_map>

#include "dbm/priced.hpp"
#include "engine/interner.hpp"
#include "engine/search_common.hpp"
#include "engine/successors.hpp"

namespace engine {

namespace {

/// Integer-adjusted infimum of the cost clock, in zone slot `costSlot`
/// (see dbm::PricedDbm): the smallest integer B for which the zone
/// intersects cost <= B.
int64_t intCostInf(const dbm::Dbm& z, uint32_t costSlot) {
  const dbm::raw_t lo = z.at(0, costSlot);
  int64_t inf = -static_cast<int64_t>(dbm::boundValue(lo));
  if (dbm::isStrict(lo) && lo != dbm::kInfinity) ++inf;
  return inf;
}

struct Node {
  uint32_t did = 0;     ///< interned discrete state
  dbm::Dbm zone;        ///< canonical, over did's live clocks
  int64_t offset = 0;   ///< accumulated soft-guide penalties
  int64_t g = 0;        ///< intCostInf(zone) + offset
  uint32_t parent = kNoParent;
  Transition via;

  static constexpr uint32_t kNoParent = 0xffffffffu;

  Node(uint32_t d, dbm::Dbm z, int64_t off, int64_t cost, uint32_t par,
       Transition v)
      : did(d), zone(std::move(z)), offset(off), g(cost), parent(par),
        via(std::move(v)) {}
};

struct HeapEntry {
  int64_t f = 0;
  int64_t g = 0;
  uint32_t node = 0;
};

/// Min-f; ties broken toward larger g (deeper, closer to the goal).
struct HeapOrder {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const noexcept {
    if (a.f != b.f) return a.f > b.f;
    return a.g < b.g;
  }
};

}  // namespace

BestFirst::BestFirst(const ta::System& sys, Options opts,
                     ta::ClockId costClock)
    : sys_(sys), opts_(std::move(opts)), costClock_(costClock) {
  assert(costClock_ >= 1 &&
         static_cast<uint32_t>(costClock_) < sys.dbmDimension());
}

void BestFirst::setHeuristicTargets(
    std::vector<std::vector<ta::LocId>> targets) {
  assert(targets.size() == sys_.numAutomata());
  targets_ = std::move(targets);
  targetsSet_ = true;
}

BestFirstResult BestFirst::run(const Goal& goal) {
  // Pre-exploration optimization: delegate to an inner search over the
  // optimized system. Heuristic targets are pinned so the
  // remaining-time analysis keeps its anchors.
  double optSeconds = 0.0;
  if (opts_.optLevel > 0) {
    std::vector<std::pair<ta::ProcId, ta::LocId>> targetPins;
    if (targetsSet_) {
      for (size_t p = 0; p < targets_.size(); ++p) {
        for (const ta::LocId l : targets_[p]) {
          targetPins.push_back({static_cast<ta::ProcId>(p), l});
        }
      }
    }
    ta::OptimizedModel model =
        opt_bridge::optimizeForGoal(sys_, goal, opts_.optLevel, targetPins);
    auto res = search::runOptimized(
        sys_, goal, opts_, model, &optSeconds,
        [&](const Options& inner, const Goal& g) {
          BestFirst engine(model.system(), inner, model.mapClock(costClock_));
          if (targetsSet_) {
            std::vector<std::vector<ta::LocId>> mapped(targets_.size());
            for (size_t p = 0; p < targets_.size(); ++p) {
              for (const ta::LocId l : targets_[p]) {
                mapped[p].push_back(
                    model.mapLoc(static_cast<ta::ProcId>(p), l));
              }
            }
            engine.setHeuristicTargets(std::move(mapped));
          }
          if (incumbent0_ >= 0) engine.setInitialIncumbent(incumbent0_);
          if (incumbentCb_) {
            engine.onIncumbent([this, &model](int64_t cost,
                                              const SymbolicTrace& trace) {
              incumbentCb_(cost, opt_bridge::backMapTrace(sys_, model, trace));
            });
          }
          return engine.run(g);
        });
    if (res) return *std::move(res);
  }

  const search::Meter meter(opts_);
  BestFirstResult res;
  res.stats.optSeconds = optSeconds;

  SuccessorGenerator gen(sys_, opts_);
  // The goal's clocks and the cost clock stay live in every zone, each
  // in one fixed slot for the whole run.
  Goal local = goal;
  local.clockConstraints = gen.observeGoalConstraints(goal.clockConstraints);
  const uint32_t costSlot = gen.protectClock(costClock_);

  if (!targetsSet_) {
    targets_.assign(sys_.numAutomata(), {});
    for (const auto& [p, l] : goal.locations) {
      targets_[static_cast<size_t>(p)].push_back(l);
    }
  }
  const ta::RemainingTimeTable rt =
      ta::analyzeMinRemainingTime(sys_, targets_);

  // Per-edge transition labels for soft-guide matching.
  std::vector<std::vector<std::string>> partLabels;
  if (!opts_.softGuides.empty()) {
    partLabels.resize(sys_.numAutomata());
    for (size_t p = 0; p < sys_.numAutomata(); ++p) {
      const auto proc = static_cast<ta::ProcId>(p);
      const size_t edges = sys_.automaton(proc).edges().size();
      for (size_t e = 0; e < edges; ++e) {
        partLabels[p].push_back(
            label(sys_, Transition{{{proc, static_cast<int32_t>(e)}}}));
      }
    }
  }
  const auto penaltyOf = [&](const Transition& t) -> int64_t {
    if (opts_.softGuides.empty()) return 0;
    int64_t w = 0;
    for (const TransitionPart& part : t.parts) {
      const std::string& lbl =
          partLabels[static_cast<size_t>(part.proc)]
                    [static_cast<size_t>(part.edge)];
      for (const SoftGuide& sg : opts_.softGuides) {
        // Negative weights would break the admissibility of the
        // time-only heuristic; clamp them out rather than mis-prune.
        if (sg.weight > 0 && lbl.find(sg.labelContains) != std::string::npos) {
          w += sg.weight;
        }
      }
    }
    return w;
  };

  StateInterner interner;
  std::vector<Node> nodes;
  std::vector<char> alive;     // still stored (not displaced by domination)
  std::vector<char> expanded;  // popped at least once
  std::unordered_map<uint32_t, std::vector<uint32_t>> buckets;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapOrder> open;

  int64_t incumbent = incumbent0_ >= 0 ? incumbent0_ : -1;
  uint32_t goalNode = Node::kNoParent;
  // The memory budget sees everything the search holds: the nodes with
  // their zones and transitions, the liveness flags, the bucket map,
  // the open heap and the interner. Heap bytes that are awkward to
  // re-derive are tracked as they change.
  size_t nodeHeapBytes = 0;  // zones and transition parts of the nodes
  size_t bucketBytes = 0;    // the bucket vectors' buffers
  constexpr size_t kBucketNodeBytes =
      sizeof(std::pair<const uint32_t, std::vector<uint32_t>>) +
      sizeof(void*);
  const auto heldBytes = [&] {
    return nodeHeapBytes + nodes.capacity() * sizeof(Node) +
           alive.capacity() + expanded.capacity() +
           buckets.bucket_count() * sizeof(void*) +
           buckets.size() * kBucketNodeBytes + bucketBytes +
           open.size() * sizeof(HeapEntry) + interner.bytes();
  };
  size_t peakBytes = 0;

  const auto heuristic = [&](const DiscreteState& d) -> int64_t {
    return rt.lowerBound(d.locs);
  };
  const auto traceTo = [&](uint32_t leaf) {
    return search::traceFromChain(interner, leaf, Node::kNoParent,
                                  [&](uint32_t n) -> const Node& {
                                    return nodes[n];
                                  });
  };

  // Constrain a candidate zone to costs that can still beat the
  // incumbent (cost + offset <= incumbent - 1). False = prunable.
  const auto applyIncumbent = [&](dbm::Dbm& z, int64_t offset) -> bool {
    if (incumbent < 0) return true;
    dbm::PricedDbm pz(std::move(z), costSlot, offset);
    const bool ok = pz.constrainCost(incumbent - 1) && !pz.empty();
    z = std::move(pz.zone());
    return ok;
  };

  // Cost-aware insertion with domination pruning in both directions.
  // Returns the stored node's index, or kNoParent when an existing
  // entry dominates the candidate (or it cannot beat the incumbent).
  const auto tryInsert = [&](const DiscreteState& d, dbm::Dbm&& zone,
                             int64_t offset, uint32_t parent,
                             Transition via) -> std::pair<uint32_t, int64_t> {
    constexpr auto kNone = std::pair<uint32_t, int64_t>{Node::kNoParent, 0};
    const uint32_t did = interner.intern(d);
    auto& bucket = buckets[did];
    for (uint32_t si : bucket) {
      const Node& s = nodes[si];
      if (s.offset <= offset && s.zone.includes(zone)) return kNone;
    }
    for (size_t k = 0; k < bucket.size();) {
      const uint32_t si = bucket[k];
      const Node& s = nodes[si];
      if (offset <= s.offset && zone.includes(s.zone)) {
        if (expanded[si]) ++res.stats.reopenings;
        alive[si] = 0;
        // The zone is dead weight from here on: nothing consults a
        // displaced entry again (domination goes through the bucket,
        // the trace only needs locations and transitions).
        nodeHeapBytes -= nodes[si].zone.memoryBytes();
        nodes[si].zone = dbm::Dbm(1);
        nodeHeapBytes += nodes[si].zone.memoryBytes();
        bucket[k] = bucket.back();
        bucket.pop_back();
      } else {
        ++k;
      }
    }
    const int64_t g = intCostInf(zone, costSlot) + offset;
    const int64_t h = heuristic(d);
    if (h >= ta::kUnreachableRemaining) return kNone;  // dead end
    const int64_t f = g + h;
    if (incumbent >= 0 && f >= incumbent) return kNone;
    nodeHeapBytes += zone.memoryBytes() +
                     via.parts.capacity() * sizeof(TransitionPart);
    const auto idx = static_cast<uint32_t>(nodes.size());
    nodes.emplace_back(did, std::move(zone), offset, g, parent,
                       std::move(via));
    alive.push_back(1);
    expanded.push_back(0);
    const size_t bucketCap = bucket.capacity();
    bucket.push_back(idx);
    bucketBytes += (bucket.capacity() - bucketCap) * sizeof(uint32_t);
    open.push(HeapEntry{f, g, idx});
    return {idx, f};
  };

  // Root.
  {
    SymbolicState s0 = gen.initial();
    dbm::Dbm z0 = std::move(s0.zone);
    // z0 can be empty when a lifted initial state (setClockInit)
    // violates an invariant; the queue then starts empty and the run
    // reports unreachable.
    if (!z0.isEmpty() && applyIncumbent(z0, 0)) {
      tryInsert(s0.d, std::move(z0), 0, Node::kNoParent, Transition{});
    }
  }

  // Expansion order is best-first with a greedy dive bias: after
  // expanding a node, its cheapest inserted child is expanded next,
  // bypassing the heap. The chain follows one schedule depth-first
  // (finding incumbents as fast as guided DFS does); when it dies —
  // dominated, cost-pruned, or childless — the heap supplies the best
  // global frontier node, which doubles as the backtracking point.
  // Optimality is untouched: the proof only needs the heap's f
  // watermark, and every dive node still holds a (now stale) heap
  // entry, so the watermark never skips an unexpanded node.
  Cutoff cut = Cutoff::kNone;
  uint32_t dive = Node::kNoParent;
  while (true) {
    cut = meter.check(heldBytes(), res.stats.statesExplored);
    if (cut != Cutoff::kNone) break;

    uint32_t cur = Node::kNoParent;
    if (dive != Node::kNoParent) {
      const uint32_t cand = dive;
      dive = Node::kNoParent;
      if (alive[cand] && !expanded[cand]) {
        const int64_t f =
            nodes[cand].g + heuristic(interner.get(nodes[cand].did));
        if (incumbent < 0 || f < incumbent) cur = cand;
      }
    }
    if (cur == Node::kNoParent) {
      if (open.empty()) break;
      const HeapEntry top = open.top();
      open.pop();
      if (incumbent >= 0 && top.f >= incumbent) {
        // Every remaining entry has f >= top.f: nothing can beat the
        // incumbent. The optimum is proven.
        break;
      }
      // Displaced by domination, or already expanded through a dive
      // (dives leave their heap entries behind).
      if (!alive[top.node] || expanded[top.node]) continue;
      cur = top.node;
    }
    expanded[cur] = 1;
    ++res.stats.statesExplored;

    const DiscreteState& d = interner.get(nodes[cur].did);

    if (local.matches(sys_, d, nodes[cur].zone)) {
      // Goal cost: the zone's reachable cost minimum under the goal's
      // own clock constraints (none in the pure-makespan use).
      dbm::Dbm gz = nodes[cur].zone;
      bool ok = true;
      for (const ta::ClockConstraint& cc : local.clockConstraints) {
        if (!gz.constrain(static_cast<uint32_t>(cc.i),
                          static_cast<uint32_t>(cc.j), cc.bound)) {
          ok = false;
          break;
        }
      }
      if (ok) {
        const int64_t cost = intCostInf(gz, costSlot) + nodes[cur].offset;
        if (incumbent < 0 || cost < incumbent) {
          incumbent = cost;
          goalNode = cur;
          res.stats.incumbentCosts.push_back(cost);
          if (incumbentCb_) incumbentCb_(cost, traceTo(cur));
        }
      }
      // Cost never decreases along a path (time only grows and
      // penalties are nonnegative): successors of a goal state cannot
      // reach a cheaper goal.
      continue;
    }

    uint32_t bestChild = Node::kNoParent;
    int64_t bestF = 0;
    int64_t bestG = 0;
    for (Successor& succ : gen.successors(d, nodes[cur].zone)) {
      ++res.stats.statesGenerated;
      const int64_t offset = nodes[cur].offset + penaltyOf(succ.via);
      dbm::Dbm z = std::move(succ.state.zone);
      if (!applyIncumbent(z, offset)) continue;
      const auto [idx, f] = tryInsert(succ.state.d, std::move(z), offset,
                                      cur, std::move(succ.via));
      if (idx != Node::kNoParent &&
          (bestChild == Node::kNoParent || f < bestF ||
           (f == bestF && nodes[idx].g > bestG))) {
        bestChild = idx;
        bestF = f;
        bestG = nodes[idx].g;
      }
    }
    dive = bestChild;
    peakBytes = std::max(peakBytes, heldBytes());
  }

  if (goalNode != Node::kNoParent) {
    res.reachable = true;
    res.cost = incumbent;
    res.trace = traceTo(goalNode);
  }
  res.optimal = cut == Cutoff::kNone;

  meter.finish(res.stats, cut, gen, interner);
  res.stats.storedZones =
      static_cast<size_t>(std::count(alive.begin(), alive.end(), 1));
  res.stats.bytesStored = heldBytes();
  res.stats.peakBytes = std::max(peakBytes, res.stats.bytesStored);
  return res;
}

}  // namespace engine
