// Engine tests on small hand-built models with known answers.
#include <gtest/gtest.h>

#include "engine/reachability.hpp"
#include "engine/trace.hpp"
#include "ta/parser.hpp"
#include "ta/system.hpp"

namespace engine {
namespace {

using ta::ccGe;
using ta::ccLe;

/// One automaton, one clock: A --(x>=3)--> B with inv(A): x<=5.
struct TimedHop {
  ta::System sys;
  ta::ProcId p;
  ta::LocId a, b;

  TimedHop() {
    const ta::ClockId x = sys.addClock("x");
    p = sys.addAutomaton("hop");
    auto& aut = sys.automaton(p);
    a = aut.addLocation("A");
    b = aut.addLocation("B");
    aut.setInvariant(a, {ccLe(x, 5)});
    aut.setInitial(a);
    sys.edge(p, a, b).when(ccGe(x, 3)).label("go");
    sys.finalize();
  }
};

TEST(Reachability, TimedHopReachesTarget) {
  TimedHop m;
  Reachability checker(m.sys, Options{});
  const Result res = checker.run(Goal{{{m.p, m.b}}, ta::kNoExpr, {}});
  EXPECT_TRUE(res.reachable);
  ASSERT_EQ(res.trace.steps.size(), 2u);
}

TEST(Reachability, TimedHopMinimalDelayIsThree) {
  TimedHop m;
  Reachability checker(m.sys, Options{});
  const Result res = checker.run(Goal{{{m.p, m.b}}, ta::kNoExpr, {}});
  ASSERT_TRUE(res.reachable);
  std::string err;
  const auto ct = concretize(m.sys, res.trace, &err);
  ASSERT_TRUE(ct.has_value()) << err;
  EXPECT_EQ(ct->steps.back().delay, 3);
  EXPECT_EQ(ct->makespan(), 3);
  EXPECT_TRUE(validate(m.sys, *ct, &err)) << err;
}

TEST(Reachability, GoalWithClockConstraint) {
  TimedHop m;
  Reachability checker(m.sys, Options{});
  // B with x <= 5 is reachable (invariant held until the jump)...
  Goal ok{{{m.p, m.b}}, ta::kNoExpr, {ccLe(1, 5)}};
  EXPECT_TRUE(checker.run(ok).reachable);
  // ...but B with x <= 2 is not: the guard needs x >= 3.
  Reachability checker2(m.sys, Options{});
  Goal bad{{{m.p, m.b}}, ta::kNoExpr, {ccLe(1, 2)}};
  const Result res = checker2.run(bad);
  EXPECT_FALSE(res.reachable);
  EXPECT_TRUE(res.exhausted);
}

TEST(Reachability, InvariantBlocksLateGuard) {
  // A --(x>=7)--> B with inv(A): x<=5 is unreachable.
  ta::System sys;
  const ta::ClockId x = sys.addClock("x");
  const ta::ProcId p = sys.addAutomaton("stuck");
  auto& aut = sys.automaton(p);
  const ta::LocId a = aut.addLocation("A");
  const ta::LocId b = aut.addLocation("B");
  aut.setInvariant(a, {ccLe(x, 5)});
  sys.edge(p, a, b).when(ccGe(x, 7));
  sys.finalize();
  Reachability checker(sys, Options{});
  const Result res = checker.run(Goal{{{p, b}}, ta::kNoExpr, {}});
  EXPECT_FALSE(res.reachable);
  EXPECT_TRUE(res.exhausted);
}

/// Two automata synchronizing on a channel, exchanging data through a
/// shared variable.
struct SyncPair {
  ta::System sys;
  ta::ProcId sender, receiver;
  ta::LocId s0, s1, r0, r1;
  ta::VarId v;

  SyncPair() {
    v = sys.addVar("v", 0);
    const ta::ChanId c = sys.addChannel("msg");
    sender = sys.addAutomaton("sender");
    auto& sa = sys.automaton(sender);
    s0 = sa.addLocation("s0");
    s1 = sa.addLocation("s1");
    receiver = sys.addAutomaton("receiver");
    auto& ra = sys.automaton(receiver);
    r0 = ra.addLocation("r0");
    r1 = ra.addLocation("r1");
    // Sender writes v := 42 as part of the synchronization.
    sys.edge(sender, s0, s1).send(c).assign(v, 42);
    sys.edge(receiver, r0, r1).receive(c);
    sys.finalize();
  }
};

TEST(Reachability, BinarySyncFiresJointly) {
  SyncPair m;
  Reachability checker(m.sys, Options{});
  const Result res = checker.run(
      Goal{{{m.sender, m.s1}, {m.receiver, m.r1}}, ta::kNoExpr, {}});
  ASSERT_TRUE(res.reachable);
  // The sync is one transition: initial + 1 step.
  ASSERT_EQ(res.trace.steps.size(), 2u);
  EXPECT_EQ(res.trace.steps[1].via.parts.size(), 2u);
  // And the sender's assignment landed.
  EXPECT_EQ(res.trace.steps[1]
                .d.vars[static_cast<size_t>(m.v)],
            42);
}

TEST(Reachability, ReceiverGuardEvaluatesOnPreState) {
  // A receiver guarded on v == 42 cannot take part in the very sync
  // that sets v := 42: guards evaluate against the pre-state (UPPAAL).
  ta::System sys;
  const ta::VarId v = sys.addVar("v", 0);
  const ta::ChanId c = sys.addChannel("msg");
  const ta::ProcId s = sys.addAutomaton("S");
  auto& sa = sys.automaton(s);
  const ta::LocId s0 = sa.addLocation("s0");
  const ta::LocId s1 = sa.addLocation("s1");
  const ta::ProcId r = sys.addAutomaton("R");
  auto& ra = sys.automaton(r);
  const ta::LocId r0 = ra.addLocation("r0");
  const ta::LocId r1 = ra.addLocation("r1");
  sys.edge(s, s0, s1).send(c).assign(v, 42);
  sys.edge(r, r0, r1).receive(c).guard(sys.rd(v) == 42);
  sys.finalize();
  Reachability checker(sys, Options{});
  const Result res =
      checker.run(Goal{{{s, s1}, {r, r1}}, ta::kNoExpr, {}});
  EXPECT_FALSE(res.reachable) << "guards evaluate against the pre-state";
}

TEST(Reachability, SenderWithoutReceiverBlocks) {
  ta::System sys;
  const ta::ChanId c = sys.addChannel("lonely");
  const ta::ProcId p = sys.addAutomaton("p");
  auto& a = sys.automaton(p);
  const ta::LocId l0 = a.addLocation("l0");
  const ta::LocId l1 = a.addLocation("l1");
  sys.edge(p, l0, l1).send(c);
  sys.finalize();
  Reachability checker(sys, Options{});
  EXPECT_FALSE(checker.run(Goal{{{p, l1}}, ta::kNoExpr, {}}).reachable);
}

TEST(Reachability, VariablePredicateGoal) {
  ta::System sys;
  const ta::VarId n = sys.addVar("n", 0);
  const ta::ProcId p = sys.addAutomaton("counter");
  auto& a = sys.automaton(p);
  const ta::LocId l = a.addLocation("l");
  sys.edge(p, l, l).guard(sys.rd(n) < 5).assign(n, sys.rd(n) + 1);
  sys.finalize();
  Reachability checker(sys, Options{});
  const Result res =
      checker.run(Goal{{}, (sys.rd(n) == 5).ref(), {}});
  ASSERT_TRUE(res.reachable);
  EXPECT_EQ(res.trace.steps.size(), 6u);  // initial + 5 increments
}

TEST(Reachability, UnreachablePredicateExhaustsSpace) {
  ta::System sys;
  const ta::VarId n = sys.addVar("n", 0);
  const ta::ProcId p = sys.addAutomaton("counter");
  auto& a = sys.automaton(p);
  const ta::LocId l = a.addLocation("l");
  sys.edge(p, l, l).guard(sys.rd(n) < 5).assign(n, sys.rd(n) + 1);
  sys.finalize();
  Reachability checker(sys, Options{});
  const Result res = checker.run(Goal{{}, (sys.rd(n) == 9).ref(), {}});
  EXPECT_FALSE(res.reachable);
  EXPECT_TRUE(res.exhausted);
  EXPECT_EQ(res.stats.statesExplored, 6u);
}

TEST(Reachability, CommittedLocationHasPriority) {
  // P passes through a committed location and raises `flag` on the way
  // in; Q's move is enabled only once flag == 1, i.e. exactly while P
  // sits in the committed location. Committed priority must therefore
  // block Q until P has left: (P at pc, Q at q1) is unreachable.
  ta::System sys;
  const ta::VarId flag = sys.addVar("flag", 0);
  const ta::ProcId p = sys.addAutomaton("P");
  auto& pa = sys.automaton(p);
  const ta::LocId p0 = pa.addLocation("p0");
  const ta::LocId pc = pa.addLocation("pc", false, /*committed=*/true);
  const ta::LocId p1 = pa.addLocation("p1");
  sys.edge(p, p0, pc).assign(flag, 1);
  sys.edge(p, pc, p1);
  const ta::ProcId q = sys.addAutomaton("Q");
  auto& qa = sys.automaton(q);
  const ta::LocId q0 = qa.addLocation("q0");
  const ta::LocId q1 = qa.addLocation("q1");
  sys.edge(q, q0, q1).guard(sys.rd(flag) == 1);
  sys.finalize();
  Reachability checker(sys, Options{});
  const Result bad = checker.run(Goal{{{p, pc}, {q, q1}}, ta::kNoExpr, {}});
  EXPECT_FALSE(bad.reachable);
  // But (p1, q1) is fine once P has left the committed location.
  Reachability checker2(sys, Options{});
  EXPECT_TRUE(
      checker2.run(Goal{{{p, p1}, {q, q1}}, ta::kNoExpr, {}}).reachable);
}

TEST(Reachability, UrgentLocationStopsTime) {
  // A -> U(urgent) -> B with guard x >= 1 out of U: unreachable, since
  // no time may pass in U and x arrives there with value 0.
  ta::System sys;
  const ta::ClockId x = sys.addClock("x");
  const ta::ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const ta::LocId l0 = a.addLocation("A");
  const ta::LocId lu = a.addLocation("U", /*urgent=*/true);
  const ta::LocId l1 = a.addLocation("B");
  sys.edge(p, l0, lu).reset(x);
  sys.edge(p, lu, l1).when(ccGe(x, 1));
  sys.finalize();
  Reachability checker(sys, Options{});
  EXPECT_FALSE(checker.run(Goal{{{p, l1}}, ta::kNoExpr, {}}).reachable);
}

TEST(Reachability, InitialStateCanMatchGoal) {
  ta::System sys;
  const ta::ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const ta::LocId l0 = a.addLocation("A");
  (void)l0;
  sys.finalize();
  Reachability checker(sys, Options{});
  const Result res = checker.run(Goal{{{p, 0}}, ta::kNoExpr, {}});
  EXPECT_TRUE(res.reachable);
  EXPECT_EQ(res.trace.steps.size(), 1u);
}

/// Writing `a[i]` with `i` out of range disables the transition, in
/// every build: the counter climbs to 2, but `s -> t` only fires at
/// i = 0 or 1.
TEST(Reachability, OutOfRangeArrayWriteDisablesTransition) {
  const ta::FrontendResult m = ta::parseModelEx(R"(
int a[2];
int i;
process P {
  loc s;
  loc t;
  init s;
  edge s -> s { guard i < 2; assign i = i + 1; }
  edge s -> t { assign a[i] = 1; }
}
query reach P.t && i == 2;
query reach P.t && i == 1;
)");
  ASSERT_TRUE(m.ok) << ta::renderDiagnostics(m.diagnostics);
  ASSERT_EQ(m.queries.size(), 2u);
  for (const int level : {0, 2}) {
    Options o;
    o.optLevel = level;
    for (size_t q = 0; q < m.queries.size(); ++q) {
      const ta::ParsedQuery& pq = m.queries[q];
      Reachability checker(*m.system, o);
      const Result res =
          checker.run(Goal{pq.locations, pq.predicate, pq.clockConstraints});
      EXPECT_EQ(res.reachable, q == 1) << "level " << level << " query " << q;
      EXPECT_TRUE(res.reachable || res.exhausted)
          << "level " << level << " query " << q;
    }
  }
}

/// A guard or an assignment that fails to evaluate (division by zero,
/// an index out of range) disables its transition, at every opt level:
/// `s -> u` and `s -> t` never fire while z is 0, and `s -> w` only
/// fires while `a[i]` is in range (i = 0 or 1, not 2).
TEST(Reachability, FailingEvaluationDisablesTransition) {
  const ta::FrontendResult m = ta::parseModelEx(R"(
int v;
int z;
int a[2];
int i;
process P {
  loc s;
  loc u;
  loc t;
  loc w;
  init s;
  edge s -> u { guard (1 / z) == 0; }
  edge s -> t { assign v = 1 / z; }
  edge s -> s { guard i < 3; assign i = i + 1; }
  edge s -> w { guard a[i] == 0; }
}
query reach P.u;
query reach P.t;
query reach P.w && i == 2;
query reach P.w && i == 1;
)");
  ASSERT_TRUE(m.ok) << ta::renderDiagnostics(m.diagnostics);
  ASSERT_EQ(m.queries.size(), 4u);
  for (const int level : {0, 2}) {
    Options o;
    o.optLevel = level;
    for (size_t q = 0; q < m.queries.size(); ++q) {
      const ta::ParsedQuery& pq = m.queries[q];
      Reachability checker(*m.system, o);
      const Result res =
          checker.run(Goal{pq.locations, pq.predicate, pq.clockConstraints});
      EXPECT_EQ(res.reachable, q == 3) << "level " << level << " query " << q;
      EXPECT_TRUE(res.reachable || res.exhausted)
          << "level " << level << " query " << q;
    }
  }

  // The validator replays the same way: hand-built traces that fire
  // `s -> u` or `s -> t` are rejected.
  const ta::System& sys = *m.system;
  const ta::Automaton& a = sys.automaton(0);
  const ta::LocId s = a.findLocation("s");
  for (const auto& [dst, why] :
       {std::pair<const char*, const char*>{"u", "integer guard"},
        {"t", "fails to evaluate"}}) {
    const ta::LocId to = a.findLocation(dst);
    int32_t edge = -1;
    for (size_t e = 0; e < a.edges().size(); ++e) {
      if (a.edges()[e].src == s && a.edges()[e].dst == to) {
        edge = static_cast<int32_t>(e);
      }
    }
    ASSERT_GE(edge, 0) << dst;
    ConcreteStep init;
    init.d.locs = {s};
    init.d.vars = sys.initialVars();
    init.clocks.assign(sys.dbmDimension(), 0);
    ConcreteStep fire = init;
    fire.via.parts = {{0, edge}};
    fire.d.locs = {to};
    ConcreteTrace trace;
    trace.steps = {init, fire};
    std::string err;
    EXPECT_FALSE(validate(sys, trace, &err)) << dst;
    EXPECT_NE(err.find(why), std::string::npos) << err;
  }
}

}  // namespace
}  // namespace engine
