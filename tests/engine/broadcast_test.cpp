// Broadcast-channel semantics: one sender, all enabled receivers join,
// disabled receivers do not block.
#include <gtest/gtest.h>

#include "engine/reachability.hpp"
#include "ta/system.hpp"

namespace engine {
namespace {

struct Broadcast {
  ta::System sys;
  ta::ProcId sender;
  std::vector<ta::ProcId> receivers;
  ta::LocId s1 = -1;
  std::vector<ta::LocId> heard;
  ta::VarId enabledMask;

  explicit Broadcast(int nReceivers) {
    enabledMask = sys.addVar("mask", (1 << nReceivers) - 1);
    const ta::ChanId c = sys.addChannel("all", ta::ChanKind::kBroadcast);
    sender = sys.addAutomaton("S");
    auto& s = sys.automaton(sender);
    const ta::LocId s0 = s.addLocation("s0");
    s1 = s.addLocation("s1");
    sys.edge(sender, s0, s1).send(c);
    for (int i = 0; i < nReceivers; ++i) {
      const ta::ProcId p = sys.addAutomaton("R" + std::to_string(i));
      receivers.push_back(p);
      auto& r = sys.automaton(p);
      const ta::LocId r0 = r.addLocation("r0");
      heard.push_back(r.addLocation("heard"));
      sys.edge(p, r0, heard.back())
          .receive(c)
          .guard((sys.rd(enabledMask) / sys.lit(1 << i)) % sys.lit(2) == 1);
    }
    sys.finalize();
  }
};

TEST(Broadcast, AllEnabledReceiversJoin) {
  Broadcast m(3);
  Goal g;
  g.locations = {{m.sender, m.s1},
                 {m.receivers[0], m.heard[0]},
                 {m.receivers[1], m.heard[1]},
                 {m.receivers[2], m.heard[2]}};
  Reachability checker(m.sys, Options{});
  const Result res = checker.run(g);
  ASSERT_TRUE(res.reachable);
  // One atomic transition with 4 participants.
  ASSERT_EQ(res.trace.steps.size(), 2u);
  EXPECT_EQ(res.trace.steps[1].via.parts.size(), 4u);
}

TEST(Broadcast, DisabledReceiverDoesNotBlock) {
  Broadcast m(3);
  // Disable receiver 1: the send still fires, receivers 0 and 2 join.
  m.sys.setVarInit(m.enabledMask, 0b101);
  // setVarInit after finalize is fine — initialVars() is read at
  // Reachability construction time.
  Goal g;
  g.locations = {{m.sender, m.s1},
                 {m.receivers[0], m.heard[0]},
                 {m.receivers[2], m.heard[2]}};
  Reachability checker(m.sys, Options{});
  const Result res = checker.run(g);
  ASSERT_TRUE(res.reachable);
  EXPECT_EQ(res.trace.steps[1].via.parts.size(), 3u);
  // And receiver 1 stayed put.
  EXPECT_NE(res.trace.steps[1]
                .d.locs[static_cast<size_t>(m.receivers[1])],
            m.heard[1]);
}

TEST(Broadcast, SenderAloneWhenNobodyEnabled) {
  Broadcast m(2);
  m.sys.setVarInit(m.enabledMask, 0);
  Goal g;
  g.locations = {{m.sender, m.s1}};
  Reachability checker(m.sys, Options{});
  const Result res = checker.run(g);
  ASSERT_TRUE(res.reachable) << "broadcast sends never block";
  EXPECT_EQ(res.trace.steps[1].via.parts.size(), 1u);
}

}  // namespace
}  // namespace engine
