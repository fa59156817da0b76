#include "engine/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "engine/successors.hpp"
#include "plant/plant.hpp"
#include "random_model.hpp"
#include "ta/system.hpp"

namespace engine {
namespace {

using ta::ccGe;
using ta::ccLe;

/// worker(warmup -> done, 3 <= x <= 5, signal!) || listener.
struct Handshake {
  ta::System sys;
  ta::ProcId worker, listener;

  Handshake() {
    const ta::ClockId x = sys.addClock("x");
    const ta::VarId n = sys.addVar("n", 0);
    const ta::ChanId sig = sys.addChannel("sig");
    worker = sys.addAutomaton("W");
    auto& w = sys.automaton(worker);
    const ta::LocId warm = w.addLocation("warm");
    const ta::LocId done = w.addLocation("done");
    w.setInvariant(warm, {ccLe(x, 5)});
    sys.edge(worker, warm, done).when(ccGe(x, 3)).send(sig).label("go");
    listener = sys.addAutomaton("L");
    auto& l = sys.automaton(listener);
    const ta::LocId idle = l.addLocation("idle");
    const ta::LocId got = l.addLocation("got");
    sys.edge(listener, idle, got).receive(sig).assign(n, sys.rd(n) + 1);
    sys.finalize();
  }
};

TEST(Simulator, InitialStateAndInspection) {
  Handshake m;
  Simulator sim(m.sys);
  EXPECT_EQ(sim.time(), 0);
  EXPECT_EQ(sim.clocks()[1], 0);
  EXPECT_EQ(sim.variables()[0], 0);
  EXPECT_NE(sim.describe().find("W.warm"), std::string::npos);
  EXPECT_NE(sim.describe().find("L.idle"), std::string::npos);
}

TEST(Simulator, EnabledReportsDelayWindow) {
  Handshake m;
  Simulator sim(m.sys);
  const auto opts = sim.enabled();
  ASSERT_EQ(opts.size(), 1u);
  EXPECT_EQ(opts[0].earliestDelay, 3);  // guard x >= 3
  ASSERT_TRUE(opts[0].latestDelay.has_value());
  EXPECT_EQ(*opts[0].latestDelay, 5);  // invariant x <= 5
  EXPECT_EQ(opts[0].via.parts.size(), 2u);
}

TEST(Simulator, MaxDelayFromInvariant) {
  Handshake m;
  Simulator sim(m.sys);
  ASSERT_TRUE(sim.maxDelay().has_value());
  EXPECT_EQ(*sim.maxDelay(), 5);
  ASSERT_TRUE(sim.delay(2));
  EXPECT_EQ(*sim.maxDelay(), 3);
}

TEST(Simulator, DelayBlockedByInvariant) {
  Handshake m;
  Simulator sim(m.sys);
  EXPECT_FALSE(sim.delay(6));
  EXPECT_EQ(sim.time(), 0);
  EXPECT_TRUE(sim.delay(5));
  EXPECT_EQ(sim.time(), 5);
}

TEST(Simulator, FireAtEarliestDelay) {
  Handshake m;
  Simulator sim(m.sys);
  ASSERT_TRUE(sim.fire(0));
  EXPECT_EQ(sim.time(), 3);
  EXPECT_EQ(sim.variables()[0], 1) << "listener's assignment applied";
  EXPECT_NE(sim.describe().find("W.done"), std::string::npos);
  EXPECT_TRUE(sim.enabled().empty());
}

TEST(Simulator, FireByLabel) {
  Handshake m;
  Simulator sim(m.sys);
  EXPECT_FALSE(sim.fireLabeled("nonsense"));
  EXPECT_TRUE(sim.fireLabeled("W.go/L.sig?"));
  EXPECT_NE(sim.describe().find("L.got"), std::string::npos);
}

TEST(Simulator, GuardBecomesInfeasibleAfterLateDelay) {
  // Delaying to x == 5 leaves window [0, 0]; past that (impossible due
  // to the invariant) nothing. After firing at 5, nothing is enabled.
  Handshake m;
  Simulator sim(m.sys);
  ASSERT_TRUE(sim.delay(5));
  const auto opts = sim.enabled();
  ASSERT_EQ(opts.size(), 1u);
  EXPECT_EQ(opts[0].earliestDelay, 0);
  EXPECT_EQ(*opts[0].latestDelay, 0);
}

TEST(Simulator, UrgentLocationForbidsDelay) {
  ta::System sys;
  const ta::ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const ta::LocId u = a.addLocation("u", /*urgent=*/true);
  const ta::LocId l = a.addLocation("l");
  sys.edge(p, u, l);
  sys.finalize();
  Simulator sim(sys);
  EXPECT_EQ(*sim.maxDelay(), 0);
  EXPECT_FALSE(sim.delay(1));
  EXPECT_TRUE(sim.fire(0));
}

TEST(Simulator, WalkThroughPlantPourAndMove) {
  // Use the simulator to poke the real plant model.
  plant::PlantConfig cfg;
  cfg.order = {plant::qualityA()};
  const auto plantModel = plant::buildPlant(cfg);
  Simulator sim(plantModel->sys);
  bool poured = false;
  for (const EnabledTransition& et : sim.enabled()) {
    if (et.label.find("Pour") != std::string::npos) {
      ASSERT_TRUE(sim.fireLabeled(et.label));
      poured = true;
      break;
    }
  }
  EXPECT_TRUE(poured);
  // After pouring, a track move must be among the enabled transitions.
  bool canMove = false;
  for (const EnabledTransition& et : sim.enabled()) {
    canMove = canMove || et.label.find("Track") != std::string::npos;
  }
  EXPECT_TRUE(canMove);
}

TEST(Simulator, RefusesEntryThatBreaksTargetInvariant) {
  // a -> b, where b has x <= 5: the edge is enabled only while x <= 5.
  ta::System sys;
  const ta::ClockId x = sys.addClock("x");
  const ta::ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const ta::LocId la = a.addLocation("a");
  const ta::LocId lb = a.addLocation("b");
  a.setInvariant(lb, {ccLe(x, 5)});
  sys.edge(p, la, lb);
  sys.finalize();
  Simulator sim(sys);
  const auto now = sim.enabled();
  ASSERT_EQ(now.size(), 1u);
  EXPECT_EQ(now[0].latestDelay, std::optional<int64_t>(5));
  ASSERT_TRUE(sim.delay(10));
  EXPECT_TRUE(sim.enabled().empty());
  EXPECT_FALSE(sim.fireLabeled("P.a->b"));
  EXPECT_EQ(sim.locations()[0], la);
}

TEST(Simulator, ListsBroadcastWithCommittedReceiver) {
  // Only the receiver is committed; the broadcast has a committed
  // participant, so it may fire, and the engine takes it.
  ta::System sys;
  const ta::ChanId b = sys.addChannel("b", ta::ChanKind::kBroadcast);
  const ta::ProcId s = sys.addAutomaton("S");
  auto& sa = sys.automaton(s);
  const ta::LocId s0 = sa.addLocation("s0");
  const ta::LocId s1 = sa.addLocation("s1");
  sys.edge(s, s0, s1).send(b);
  const ta::ProcId r = sys.addAutomaton("R");
  auto& ra = sys.automaton(r);
  const ta::LocId r0 = ra.addLocation("r0", false, /*committed=*/true);
  const ta::LocId r1 = ra.addLocation("r1");
  sys.edge(r, r0, r1).receive(b);
  sys.finalize();
  const Options opts;
  const SuccessorGenerator gen(sys, opts);
  const std::vector<Successor> succ = gen.successors(gen.initial());
  ASSERT_EQ(succ.size(), 1u);
  ASSERT_EQ(succ[0].via.parts.size(), 2u);
  Simulator sim(sys);
  const auto en = sim.enabled();
  ASSERT_EQ(en.size(), 1u);
  EXPECT_EQ(en[0].label, "S.b!/R.b?");
  EXPECT_EQ(en[0].earliestDelay, 0);
  ASSERT_TRUE(sim.fire(0));
  EXPECT_EQ(sim.locations(), (std::vector<ta::LocId>{s1, r1}));
}

TEST(Simulator, FireExplainsRefusal) {
  Handshake m;
  Simulator sim(m.sys);
  const Transition go = sim.enabled().at(0).via;
  std::string why;
  EXPECT_FALSE(sim.fire(go, 2, &why));
  EXPECT_NE(why.find("clock guard x >= 3"), std::string::npos) << why;
  EXPECT_FALSE(sim.fire(go, 6, &why));
  EXPECT_NE(why.find("invariant x <= 5"), std::string::npos) << why;
  EXPECT_FALSE(sim.fire(Transition{{go.parts[0]}}, 4, &why))
      << "a binary send cannot fire alone";
  EXPECT_EQ(sim.time(), 0) << "a refused fire changes nothing";
  EXPECT_TRUE(sim.fire(go, 4, &why)) << why;
  EXPECT_EQ(sim.time(), 4);
  EXPECT_FALSE(sim.fire(go, 0, &why)) << "W has left warm";
}

/// The Simulator's transitions are the engine's: on random walks over
/// the differential suite's random models, every transition enabled()
/// lists at a state is a successor the engine computes from that
/// state's delayed point zone, with the same parts, in the same order.
TEST(TransitionRelation, SimulatorWithinEngine) {
  size_t checked = 0;
  size_t synchronized = 0;
  // Sync edges are rare in these models: 400 seeds list about 40
  // synchronizations, a few of them broadcasts with receivers.
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    const RandomModel m(seed);
    const ta::System& sys = *m.sys;
    const Options opts;
    const SuccessorGenerator gen(sys, opts);
    Simulator sim(sys);
    std::mt19937_64 rng(seed);
    ClockLayout layout;
    for (int step = 0; step < 40; ++step) {
      const DiscreteState d{sim.locations(), sim.variables()};
      gen.layoutOf(d, layout);
      const uint32_t n = layout.dimension();
      dbm::Dbm zone = dbm::Dbm::unconstrained(n);
      for (uint32_t k = 1; k < n; ++k) {
        const auto v =
            static_cast<dbm::value_t>(sim.clocks()[layout.clock(k)]);
        zone.constrainUpper(k, v, /*strict=*/false);
        zone.constrainLower(k, v, /*strict=*/false);
      }
      if (!delayForbidden(sys, d.locs)) {
        zone.up();
        ASSERT_TRUE(conjoinInvariants(sys, layout, d.locs, zone));
      }
      const std::vector<Successor> succ = gen.successors(d, zone);
      const std::vector<EnabledTransition> en = sim.enabled();
      size_t next = 0;
      for (const EnabledTransition& et : en) {
        while (next < succ.size() && !(succ[next].via.parts == et.via.parts)) {
          ++next;
        }
        ASSERT_LT(next, succ.size())
            << "seed " << seed << " step " << step << ": '" << et.label
            << "' is not among the engine's successors, in order, at "
            << sim.describe();
        ++next;
        ++checked;
        synchronized += et.via.parts.size() > 1 ? 1 : 0;
      }
      if (en.empty()) break;
      const EnabledTransition& pick = en[rng() % en.size()];
      const int64_t span =
          std::min<int64_t>(pick.latestDelay.value_or(pick.earliestDelay + 3) -
                                pick.earliestDelay,
                            3);
      const int64_t delay =
          pick.earliestDelay +
          static_cast<int64_t>(rng() % static_cast<uint64_t>(span + 1));
      std::string why;
      ASSERT_TRUE(sim.fire(pick.via, delay, &why))
          << "seed " << seed << " step " << step << ": '" << pick.label
          << "' after " << delay << " inside its window, refused: " << why;
    }
  }
  EXPECT_GT(checked, 2000u);
  EXPECT_GT(synchronized, 10u);
}

}  // namespace
}  // namespace engine
