// The engine keeps every zone over its state's live clocks: the
// reference clock, the protected (goal and cost) clocks in fixed
// leading slots, and the clocks active in some current location. These
// tests walk the state space with the engine's own generator and passed
// store and check each stored zone against a live set computed here,
// independently of SuccessorGenerator::layoutOf. A zone that slid back
// to full width fails them.
#include <deque>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/interner.hpp"
#include "engine/passed_store.hpp"
#include "engine/reachability.hpp"
#include "engine/successors.hpp"
#include "plant/plant.hpp"
#include "ta/system.hpp"

namespace engine {
namespace {

/// Fischer's protocol, N = 5, D = 2, K = 3: each process's clock is
/// live only while it is trying or waiting.
struct Fischer5 {
  ta::System sys;
  std::vector<ta::ClockId> clocks;

  Fischer5() {
    const ta::VarId id = sys.addVar("id", 0);
    for (int i = 1; i <= 5; ++i) {
      const ta::ClockId x = sys.addClock("x" + std::to_string(i));
      clocks.push_back(x);
      const ta::ProcId p = sys.addAutomaton("P" + std::to_string(i));
      auto& a = sys.automaton(p);
      const ta::LocId idle = a.addLocation("idle");
      const ta::LocId trying = a.addLocation("trying");
      const ta::LocId waiting = a.addLocation("waiting");
      const ta::LocId crit = a.addLocation("critical");
      a.setInvariant(trying, {ta::ccLe(x, 2)});
      sys.edge(p, idle, trying).guard(sys.rd(id) == 0).reset(x);
      sys.edge(p, trying, waiting).when(ta::ccLe(x, 2)).reset(x).assign(id, i);
      sys.edge(p, waiting, crit).when(ta::ccGt(x, 3)).guard(sys.rd(id) == i);
      sys.edge(p, waiting, idle).guard(sys.rd(id) != i);
      sys.edge(p, crit, idle).assign(id, 0);
    }
    sys.finalize();
  }
};

/// The clocks active in some current location of `d`, without the
/// protected ones, in clock order.
std::vector<uint32_t> activeClocks(const ta::System& sys,
                                   const DiscreteState& d,
                                   const std::vector<uint32_t>& protect) {
  std::set<uint32_t> live;
  for (size_t p = 0; p < d.locs.size(); ++p) {
    for (const ta::ClockId c :
         sys.automaton(static_cast<ta::ProcId>(p)).activeClocks(d.locs[p])) {
      live.insert(static_cast<uint32_t>(c));
    }
  }
  for (const uint32_t c : protect) live.erase(c);
  return {live.begin(), live.end()};
}

/// Breadth-first over the generator with a passed store, as
/// Reachability's BFS stores states, until the space is exhausted or
/// `limit` zones are stored. Every stored zone must be over the
/// reference clock, then `protect` in that order, then the active
/// clocks in clock order. Returns the zones stored.
size_t checkStoredZones(const ta::System& sys, const SuccessorGenerator& gen,
                        const std::vector<uint32_t>& protect, size_t limit) {
  StateInterner interner;
  PassedStore store(interner);
  std::deque<SymbolicState> waiting;
  size_t checked = 0;
  const auto visit = [&](SymbolicState s) {
    if (store.covered(s.d, s.zone)) return;
    std::vector<uint32_t> want{0};
    want.insert(want.end(), protect.begin(), protect.end());
    const std::vector<uint32_t> active = activeClocks(sys, s.d, protect);
    want.insert(want.end(), active.begin(), active.end());
    ASSERT_EQ(s.zone.dimension(), want.size());
    ClockLayout layout;
    gen.layoutOf(s.d, layout);
    ASSERT_EQ(layout.dimension(), want.size());
    for (uint32_t k = 0; k < layout.dimension(); ++k) {
      ASSERT_EQ(layout.clock(k), want[k]) << "slot " << k;
    }
    ++checked;
    store.insert(interner.intern(s.d), s.zone);
    waiting.push_back(std::move(s));
  };
  visit(gen.initial());
  while (!waiting.empty() && store.states() < limit) {
    const SymbolicState s = std::move(waiting.front());
    waiting.pop_front();
    for (Successor& suc : gen.successors(s)) {
      visit(std::move(suc.state));
      if (::testing::Test::HasFatalFailure()) return checked;
    }
  }
  EXPECT_GT(checked, 0u);
  return store.states();
}

TEST(ZoneLayout, Fischer5StoredZonesKeepOnlyLiveClocks) {
  Fischer5 m;
  const Options opts;
  const SuccessorGenerator gen(m.sys, opts);
  const size_t stored = checkStoredZones(m.sys, gen, {}, ~size_t{0});
  // The same space the engine's BFS stores.
  Options bfs;
  bfs.order = SearchOrder::kBfs;
  Goal never;
  never.predicate = m.sys.lit(0).ref();
  const Result res = Reachability(m.sys, bfs).run(never);
  ASSERT_TRUE(res.exhausted);
  EXPECT_EQ(stored, res.stats.storedZones);
}

TEST(ZoneLayout, GuidedPlant10StoredZonesKeepOnlyLiveClocks) {
  plant::PlantConfig cfg;
  cfg.order = plant::standardOrder(10);
  cfg.guides = plant::GuideLevel::kAll;
  const auto p = plant::buildPlant(cfg);
  const Options opts;
  const SuccessorGenerator gen(p->sys, opts);
  const size_t stored = checkStoredZones(p->sys, gen, {}, 3000);
  EXPECT_GE(stored, 3000u);
  // The plant is wide: a full-width zone could not pass the check above.
  EXPECT_GT(p->sys.dbmDimension(), 20u);
}

TEST(ZoneLayout, ProtectedClocksHoldFixedLeadingSlots) {
  Fischer5 m;
  const Options opts;
  SuccessorGenerator gen(m.sys, opts);
  const auto x3 = static_cast<uint32_t>(m.clocks[2]);
  const auto x5 = static_cast<uint32_t>(m.clocks[4]);
  // A goal constraint on x3, then a cost clock x5.
  const std::vector<ta::ClockConstraint> local =
      gen.observeGoalConstraints({ta::ccLe(m.clocks[2], 50)});
  ASSERT_EQ(local.size(), 1u);
  EXPECT_EQ(local[0].i, 1);  // x3 - 0 <= 50, x3 in slot 1
  EXPECT_EQ(local[0].j, 0);
  EXPECT_EQ(gen.protectClock(m.clocks[4]), 2u);
  EXPECT_EQ(gen.protectClock(m.clocks[2]), 1u);  // already protected
  checkStoredZones(m.sys, gen, {x3, x5}, ~size_t{0});
}

TEST(ZoneLayout, WithoutReductionEveryZoneIsFullWidth) {
  Fischer5 m;
  Options opts;
  opts.activeClockReduction = false;
  SuccessorGenerator gen(m.sys, opts);
  // Slots are global clock ids under the identity layout.
  EXPECT_EQ(gen.protectClock(m.clocks[3]), static_cast<uint32_t>(m.clocks[3]));
  size_t seen = 0;
  std::deque<SymbolicState> waiting{gen.initial()};
  while (!waiting.empty() && seen < 500) {
    const SymbolicState s = std::move(waiting.front());
    waiting.pop_front();
    ASSERT_EQ(s.zone.dimension(), m.sys.dbmDimension());
    ++seen;
    for (Successor& suc : gen.successors(s)) {
      waiting.push_back(std::move(suc.state));
    }
  }
  EXPECT_EQ(seen, 500u);
}

}  // namespace
}  // namespace engine
