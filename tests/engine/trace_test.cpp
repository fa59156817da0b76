// Tests of symbolic-trace concretization (the forward/backward scheme)
// and of the independent concrete-trace validator, plus an oracle for
// concretize's point completion: the constrain-and-reclose picking it
// replaced, kept here as the reference it must match exactly.
#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/reachability.hpp"
#include "engine/successors.hpp"
#include "engine/trace.hpp"
#include "plant/plant.hpp"
#include "random_model.hpp"
#include "ta/system.hpp"

namespace engine {
namespace {

using ta::ccGe;
using ta::ccGt;
using ta::ccLe;
using ta::ccLt;

TEST(Concretize, GreedyTrapNeedsBackwardPass) {
  // The model that defeats greedy minimal-delay replay: a process
  // whose second step must happen at x == 10 exactly, while a free
  // "tick" self-loop tempts an eager scheduler to fire early and
  // fragment time.  Construction: step1 may fire any time in [0,10]
  // resetting y; step2 requires x >= 10 and y <= 2 — so step1 must
  // fire LATE (x in [8,10]), not at the earliest opportunity.
  ta::System sys;
  const ta::ClockId x = sys.addClock("x");
  const ta::ClockId y = sys.addClock("y");
  const ta::ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const ta::LocId l0 = a.addLocation("l0");
  const ta::LocId l1 = a.addLocation("l1");
  const ta::LocId l2 = a.addLocation("l2");
  sys.edge(p, l0, l1).when(ccLe(x, 10)).reset(y).label("step1");
  sys.edge(p, l1, l2).when(ccGe(x, 10)).when(ccLe(y, 2)).label("step2");
  sys.finalize();

  Reachability checker(sys, Options{});
  const Result res = checker.run(Goal{{{p, l2}}, ta::kNoExpr, {}});
  ASSERT_TRUE(res.reachable);
  std::string err;
  const auto ct = concretize(sys, res.trace, &err);
  ASSERT_TRUE(ct.has_value()) << err;
  EXPECT_TRUE(validate(sys, *ct, &err)) << err;
  // step1 must have been placed at x >= 8.
  ASSERT_EQ(ct->steps.size(), 3u);
  EXPECT_GE(ct->steps[1].timestamp, 8);
  EXPECT_GE(ct->steps[2].timestamp, 10);
}

TEST(Concretize, ExactDelayForcedByInvariantGuardPair) {
  ta::System sys;
  const ta::ClockId x = sys.addClock("x");
  const ta::ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const ta::LocId l0 = a.addLocation("l0");
  const ta::LocId l1 = a.addLocation("l1");
  a.setInvariant(l0, {ccLe(x, 7)});
  sys.edge(p, l0, l1).when(ccGe(x, 7));
  sys.finalize();
  Reachability checker(sys, Options{});
  const Result res = checker.run(Goal{{{p, l1}}, ta::kNoExpr, {}});
  ASSERT_TRUE(res.reachable);
  std::string err;
  const auto ct = concretize(sys, res.trace, &err);
  ASSERT_TRUE(ct.has_value()) << err;
  EXPECT_EQ(ct->steps[1].delay, 7);
}

TEST(Concretize, UrgentLocationGetsZeroDelay) {
  ta::System sys;
  const ta::ClockId x = sys.addClock("x");
  const ta::ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const ta::LocId l0 = a.addLocation("l0");
  const ta::LocId lu = a.addLocation("lu", /*urgent=*/true);
  const ta::LocId l1 = a.addLocation("l1");
  sys.edge(p, l0, lu).when(ccGe(x, 2));
  sys.edge(p, lu, l1);
  sys.finalize();
  Reachability checker(sys, Options{});
  const Result res = checker.run(Goal{{{p, l1}}, ta::kNoExpr, {}});
  ASSERT_TRUE(res.reachable);
  std::string err;
  const auto ct = concretize(sys, res.trace, &err);
  ASSERT_TRUE(ct.has_value()) << err;
  EXPECT_EQ(ct->steps[2].delay, 0);
  EXPECT_EQ(ct->steps[2].timestamp, ct->steps[1].timestamp);
}

TEST(Concretize, ClockValuesTrackDelaysAndResets) {
  ta::System sys;
  const ta::ClockId x = sys.addClock("x");
  const ta::ClockId y = sys.addClock("y");
  const ta::ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const ta::LocId l0 = a.addLocation("l0");
  const ta::LocId l1 = a.addLocation("l1");
  const ta::LocId l2 = a.addLocation("l2");
  a.setInvariant(l0, {ccLe(x, 3)});
  sys.edge(p, l0, l1).when(ccGe(x, 3)).reset(y);
  a.setInvariant(l1, {ccLe(y, 4)});
  sys.edge(p, l1, l2).when(ccGe(y, 4));
  sys.finalize();
  Reachability checker(sys, Options{});
  const Result res = checker.run(Goal{{{p, l2}}, ta::kNoExpr, {}});
  ASSERT_TRUE(res.reachable);
  std::string err;
  const auto ct = concretize(sys, res.trace, &err);
  ASSERT_TRUE(ct.has_value()) << err;
  ASSERT_EQ(ct->steps.size(), 3u);
  EXPECT_EQ(ct->steps[1].clocks[static_cast<size_t>(x)], 3);
  EXPECT_EQ(ct->steps[1].clocks[static_cast<size_t>(y)], 0);
  EXPECT_EQ(ct->steps[2].clocks[static_cast<size_t>(x)], 7);
  EXPECT_EQ(ct->steps[2].clocks[static_cast<size_t>(y)], 4);
  EXPECT_EQ(ct->makespan(), 7);
}

TEST(Validate, RejectsTamperedDelay) {
  ta::System sys;
  const ta::ClockId x = sys.addClock("x");
  const ta::ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const ta::LocId l0 = a.addLocation("l0");
  const ta::LocId l1 = a.addLocation("l1");
  a.setInvariant(l0, {ccLe(x, 5)});
  sys.edge(p, l0, l1).when(ccGe(x, 3));
  sys.finalize();
  Reachability checker(sys, Options{});
  const Result res = checker.run(Goal{{{p, l1}}, ta::kNoExpr, {}});
  ASSERT_TRUE(res.reachable);
  std::string err;
  auto ct = concretize(sys, res.trace, &err);
  ASSERT_TRUE(ct.has_value()) << err;

  ConcreteTrace early = *ct;
  early.steps[1].delay = 2;  // violates the x >= 3 guard
  EXPECT_FALSE(validate(sys, early, &err));

  ConcreteTrace late = *ct;
  late.steps[1].delay = 6;  // violates the x <= 5 invariant
  EXPECT_FALSE(validate(sys, late, &err));
}

TEST(Validate, RejectsTamperedVariables) {
  ta::System sys;
  const ta::VarId v = sys.addVar("v", 0);
  const ta::ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const ta::LocId l0 = a.addLocation("l0");
  const ta::LocId l1 = a.addLocation("l1");
  sys.edge(p, l0, l1).assign(v, 5);
  sys.finalize();
  Reachability checker(sys, Options{});
  const Result res = checker.run(Goal{{{p, l1}}, ta::kNoExpr, {}});
  ASSERT_TRUE(res.reachable);
  std::string err;
  auto ct = concretize(sys, res.trace, &err);
  ASSERT_TRUE(ct.has_value()) << err;
  ct->steps[1].d.vars[static_cast<size_t>(v)] = 99;
  EXPECT_FALSE(validate(sys, *ct, &err));
  EXPECT_NE(err.find("differs from replay"), std::string::npos);
}

TEST(Validate, RejectsEmptyTrace) {
  ta::System sys;
  (void)sys.addAutomaton("P");
  sys.automaton(0).addLocation("l");
  sys.finalize();
  std::string err;
  EXPECT_FALSE(validate(sys, ConcreteTrace{}, &err));
}

/// A hand-built trace from the initial state of `sys`, firing `via`
/// with no delay and recording `locs` as where it leads.
ConcreteTrace oneStep(const ta::System& sys, const Transition& via,
                      std::vector<ta::LocId> locs) {
  ConcreteStep init;
  for (size_t p = 0; p < sys.numAutomata(); ++p) {
    init.d.locs.push_back(sys.automaton(static_cast<ta::ProcId>(p)).initial());
  }
  init.d.vars = sys.initialVars();
  init.clocks.assign(sys.dbmDimension(), 0);
  ConcreteStep fire = init;
  fire.via = via;
  fire.d.locs = std::move(locs);
  ConcreteTrace trace;
  trace.steps = {init, fire};
  return trace;
}

TEST(Validate, RejectsEdgeFromAnotherLocation) {
  // P: a -> b -> c. Firing `b -> c` while P is in a would teleport it.
  ta::System sys;
  const ta::ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const ta::LocId la = a.addLocation("a");
  const ta::LocId lb = a.addLocation("b");
  const ta::LocId lc = a.addLocation("c");
  sys.edge(p, la, lb);
  sys.edge(p, lb, lc);
  sys.finalize();
  std::string err;
  EXPECT_TRUE(validate(sys, oneStep(sys, Transition{{{p, 0}}}, {lb}), &err))
      << err;
  EXPECT_FALSE(validate(sys, oneStep(sys, Transition{{{p, 1}}}, {lc}), &err));
}

TEST(Validate, RejectsMoveAgainstCommittedPriority) {
  // P starts in a committed location, so only P may move first; the
  // engine finds no state where Q moved while P is still there.
  ta::System sys;
  const ta::ProcId p = sys.addAutomaton("P");
  auto& pa = sys.automaton(p);
  const ta::LocId c0 = pa.addLocation("c0", false, /*committed=*/true);
  const ta::LocId c1 = pa.addLocation("c1");
  sys.edge(p, c0, c1);
  const ta::ProcId q = sys.addAutomaton("Q");
  auto& qa = sys.automaton(q);
  const ta::LocId q0 = qa.addLocation("q0");
  const ta::LocId q1 = qa.addLocation("q1");
  sys.edge(q, q0, q1);
  sys.finalize();
  Reachability checker(sys, Options{});
  EXPECT_FALSE(
      checker.run(Goal{{{p, c0}, {q, q1}}, ta::kNoExpr, {}}).reachable);
  std::string err;
  EXPECT_TRUE(
      validate(sys, oneStep(sys, Transition{{{p, 0}}}, {c1, q0}), &err))
      << err;
  EXPECT_FALSE(
      validate(sys, oneStep(sys, Transition{{{q, 0}}}, {c0, q1}), &err));
}

TEST(Concretize, SyncDelaysRespectBothParties) {
  // Sender ready at x >= 4, receiver must sync before y <= 6: the
  // joint transition is forced into [4, 6].
  ta::System sys;
  const ta::ClockId x = sys.addClock("x");
  const ta::ClockId y = sys.addClock("y");
  const ta::ChanId c = sys.addChannel("c");
  const ta::ProcId ps = sys.addAutomaton("S");
  auto& s = sys.automaton(ps);
  const ta::LocId s0 = s.addLocation("s0");
  const ta::LocId s1 = s.addLocation("s1");
  sys.edge(ps, s0, s1).when(ccGe(x, 4)).send(c);
  const ta::ProcId pr = sys.addAutomaton("R");
  auto& r = sys.automaton(pr);
  const ta::LocId r0 = r.addLocation("r0");
  const ta::LocId r1 = r.addLocation("r1");
  r.setInvariant(r0, {ccLe(y, 6)});
  sys.edge(pr, r0, r1).receive(c);
  sys.finalize();
  Reachability checker(sys, Options{});
  const Result res = checker.run(Goal{{{ps, s1}, {pr, r1}}, ta::kNoExpr, {}});
  ASSERT_TRUE(res.reachable);
  std::string err;
  const auto ct = concretize(sys, res.trace, &err);
  ASSERT_TRUE(ct.has_value()) << err;
  EXPECT_GE(ct->steps[1].timestamp, 4);
  EXPECT_LE(ct->steps[1].timestamp, 6);
}

// -- Reference concretization --------------------------------------------
// The forward/backward scheme with its original point picking: each
// clock is pinned by two constrain() calls, each an O(n^2) re-close of
// the zone. concretize() now completes the point in O(n) per clock from
// the canonical zone; it must pick the same point and fail the same way.

int64_t refLowerInt(const dbm::Dbm& z, uint32_t i) {
  const dbm::raw_t b = z.at(0, i);
  return -dbm::boundValue(b) + (dbm::isStrict(b) ? 1 : 0);
}

std::optional<int64_t> refUpperInt(const dbm::Dbm& z, uint32_t i) {
  const dbm::raw_t b = z.at(i, 0);
  if (b == dbm::kInfinity) return std::nullopt;
  return dbm::boundValue(b) - (dbm::isStrict(b) ? 1 : 0);
}

std::optional<std::vector<int64_t>> refPickPoint(dbm::Dbm z) {
  std::vector<int64_t> point(z.dimension(), 0);
  for (uint32_t i = 1; i < z.dimension(); ++i) {
    const int64_t lo = refLowerInt(z, i);
    const auto v = static_cast<dbm::value_t>(lo);
    if (!z.constrain(i, 0, dbm::boundWeak(v)) ||
        !z.constrain(0, i, dbm::boundWeak(-v))) {
      return std::nullopt;
    }
    point[i] = lo;
  }
  return point;
}

std::optional<dbm::Dbm> refFiringZone(const ta::System& sys,
                                      const dbm::Dbm& prevPost,
                                      const std::vector<ta::LocId>& prevLocs,
                                      const Transition& via) {
  dbm::Dbm f = prevPost;
  if (!delayForbidden(sys, prevLocs)) {
    f.up();
    if (!conjoinInvariants(sys, ClockLayout::identity(sys.dbmDimension()),
                           prevLocs, f)) {
      return std::nullopt;
    }
  }
  for (const TransitionPart& part : via.parts) {
    const ta::Edge& e =
        sys.automaton(part.proc).edges()[static_cast<size_t>(part.edge)];
    for (const ta::ClockConstraint& cc : e.clockGuard) {
      if (!f.constrain(static_cast<uint32_t>(cc.i),
                       static_cast<uint32_t>(cc.j), cc.bound)) {
        return std::nullopt;
      }
    }
  }
  return f;
}

std::optional<ConcreteTrace> refConcretize(const ta::System& sys,
                                           const SymbolicTrace& trace,
                                           std::string* error) {
  const auto fail = [&](const std::string& msg) {
    *error = msg;
    return std::nullopt;
  };
  const uint32_t dim = sys.dbmDimension();
  const ClockLayout full = ClockLayout::identity(dim);
  const size_t n = trace.steps.size();
  std::vector<dbm::Dbm> post;
  {
    dbm::Dbm z0 = dbm::Dbm::zero(dim);
    if (sys.hasNonzeroClockInit()) {
      z0 = dbm::Dbm::unconstrained(dim);
      for (uint32_t c = 1; c < dim; ++c) {
        const dbm::value_t v = sys.initialClock(static_cast<ta::ClockId>(c));
        z0.constrainUpper(c, v, false);
        z0.constrainLower(c, v, false);
      }
    }
    if (!conjoinInvariants(sys, full, trace.steps[0].d.locs, z0)) {
      return fail("initial state violates invariants");
    }
    post.push_back(std::move(z0));
  }
  for (size_t k = 1; k < n; ++k) {
    auto z = refFiringZone(sys, post[k - 1], trace.steps[k - 1].d.locs,
                           trace.steps[k].via);
    if (!z.has_value()) return fail("forward pass infeasible");
    for (const TransitionPart& part : trace.steps[k].via.parts) {
      const ta::Edge& e =
          sys.automaton(part.proc).edges()[static_cast<size_t>(part.edge)];
      for (const ta::ClockReset& r : e.resets) {
        z->reset(static_cast<uint32_t>(r.clock), r.value);
      }
    }
    if (!conjoinInvariants(sys, full, trace.steps[k].d.locs, *z)) {
      return fail("target invariant infeasible");
    }
    post.push_back(std::move(*z));
  }

  std::vector<std::vector<int64_t>> points(n);
  std::vector<int64_t> delays(n, 0);
  {
    const auto p = refPickPoint(post[n - 1]);
    if (!p.has_value()) return fail("final zone has no integer point");
    points[n - 1] = *p;
  }
  for (size_t k = n - 1; k >= 1; --k) {
    auto f = refFiringZone(sys, post[k - 1], trace.steps[k - 1].d.locs,
                           trace.steps[k].via);
    if (!f.has_value()) return fail("backward pass infeasible");
    std::vector<bool> isReset(dim, false);
    for (const TransitionPart& part : trace.steps[k].via.parts) {
      const ta::Edge& e =
          sys.automaton(part.proc).edges()[static_cast<size_t>(part.edge)];
      for (const ta::ClockReset& r : e.resets) {
        isReset[static_cast<size_t>(r.clock)] = true;
      }
    }
    for (uint32_t i = 1; i < dim; ++i) {
      if (isReset[i]) continue;
      const auto v = static_cast<dbm::value_t>(points[k][i]);
      if (!f->constrain(i, 0, dbm::boundWeak(v)) ||
          !f->constrain(0, i, dbm::boundWeak(-v))) {
        return fail("post-transition point has no firing preimage at step " +
                    std::to_string(k));
      }
    }
    const auto w = refPickPoint(*f);
    if (!w.has_value()) return fail("firing zone has no integer point");
    int64_t dLo = 0;
    int64_t dHi = std::numeric_limits<int64_t>::max() / 4;
    for (uint32_t i = 1; i < dim; ++i) {
      if (const auto hi = refUpperInt(post[k - 1], i); hi.has_value()) {
        dLo = std::max(dLo, (*w)[i] - *hi);
      }
      dHi = std::min(dHi, (*w)[i] - refLowerInt(post[k - 1], i));
    }
    if (dLo > dHi) {
      return fail("no feasible integer delay at step " + std::to_string(k));
    }
    delays[k] = dLo;
    points[k - 1].assign(dim, 0);
    for (uint32_t i = 1; i < dim; ++i) points[k - 1][i] = (*w)[i] - dLo;
  }
  ConcreteTrace out;
  int64_t now = 0;
  for (size_t k = 0; k < n; ++k) {
    now += delays[k];
    out.steps.push_back(ConcreteStep{delays[k], now, trace.steps[k].via,
                                     trace.steps[k].d, points[k]});
  }
  return out;
}

/// concretize() and the reference agree: same delays, timestamps and
/// valuations, or the same failure message.
void expectMatchesReference(const ta::System& sys, const SymbolicTrace& trace,
                            const std::string& what) {
  std::string refErr;
  std::string err;
  const auto ref = refConcretize(sys, trace, &refErr);
  const auto got = concretize(sys, trace, &err);
  ASSERT_EQ(got.has_value(), ref.has_value())
      << what << ": reference '" << refErr << "', concretize '" << err << "'";
  if (!ref.has_value()) {
    EXPECT_EQ(err, refErr) << what;
    return;
  }
  ASSERT_EQ(got->steps.size(), ref->steps.size()) << what;
  for (size_t k = 0; k < ref->steps.size(); ++k) {
    ASSERT_EQ(got->steps[k].delay, ref->steps[k].delay)
        << what << " step " << k;
    ASSERT_EQ(got->steps[k].timestamp, ref->steps[k].timestamp)
        << what << " step " << k;
    ASSERT_EQ(got->steps[k].clocks, ref->steps[k].clocks)
        << what << " step " << k;
  }
  EXPECT_TRUE(validate(sys, *got, &err)) << what << ": " << err;
}

TEST(ConcretizeOracle, RandomModelsMatchReference) {
  // Strict and weak guards, urgent and committed locations, nonzero
  // resets and both channel kinds (see random_model.hpp).
  int reached = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    RandomModel m(seed);
    Reachability checker(*m.sys, Options{});
    const Result res = checker.run(m.goal);
    if (!res.reachable) continue;
    ++reached;
    expectMatchesReference(*m.sys, res.trace, "seed " + std::to_string(seed));
  }
  EXPECT_GT(reached, 20);
}

TEST(ConcretizeOracle, PlantTracesMatchReference) {
  // Forward DFS on the 15-batch plant explores 0.39 M states (about
  // 19 s and 1.5 GB), so that size is searched in random order instead;
  // its trace, like the forward one, is not the reverse-DFS schedule.
  struct Case {
    int32_t batches;
    SearchOrder order;
    bool reverse;
  };
  for (const Case c : {Case{2, SearchOrder::kDfs, false},
                       Case{2, SearchOrder::kDfs, true},
                       Case{6, SearchOrder::kDfs, false},
                       Case{6, SearchOrder::kDfs, true},
                       Case{15, SearchOrder::kRandomDfs, false},
                       Case{15, SearchOrder::kDfs, true}}) {
    plant::PlantConfig cfg;
    cfg.order = plant::standardOrder(c.batches);
    const auto p = plant::buildPlant(cfg);
    Options o;
    o.order = c.order;
    o.dfsReverse = c.reverse;
    o.seed = 1;
    o.maxSeconds = 60.0;
    Reachability checker(p->sys, o);
    const Result res = checker.run(p->goal);
    const std::string what = std::to_string(c.batches) + " batches" +
                             (c.reverse ? ", reverse DFS" : ", forward");
    ASSERT_TRUE(res.reachable) << what;
    expectMatchesReference(p->sys, res.trace, what);
  }
}

TEST(ConcretizeOracle, FailuresMatchReference) {
  // The guard x > 0 && x < 1 admits only fractional firing times. Both
  // clocks are reset, so the post-transition point (0, 0) is integral
  // and has a preimage, but no integer firing time: the backward pass
  // fails on the firing zone. `l2ReadsY` gives l2 an edge that reads y.
  // Locations are numbered in order: l0 = 0, l1 = 1, l2 = 2.
  const auto build = [](bool l2ReadsY, ta::System& sys) {
    const ta::ClockId x = sys.addClock("x");
    const ta::ClockId y = sys.addClock("y");
    const ta::ProcId p = sys.addAutomaton("P");
    auto& a = sys.automaton(p);
    const ta::LocId l0 = a.addLocation("l0");
    const ta::LocId l1 = a.addLocation("l1");
    const ta::LocId l2 = a.addLocation("l2");
    sys.edge(p, l0, l1).when(ccGt(x, 0)).when(ccLt(x, 1)).reset(x).reset(y);
    sys.edge(p, l1, l2).when(ccGt(y, 0)).when(ccLt(y, 1));
    if (l2ReadsY) {
      const ta::LocId l3 = a.addLocation("l3");
      sys.edge(p, l2, l3).when(ccLe(y, 5));
    }
    sys.finalize();
    return p;
  };
  ta::System sys;
  const ta::ProcId p = build(/*l2ReadsY=*/true, sys);
  Reachability checker(sys, Options{});
  const Result toL1 = checker.run(Goal{{{p, 1}}, ta::kNoExpr, {}});
  ASSERT_TRUE(toL1.reachable);
  std::string err;
  EXPECT_FALSE(concretize(sys, toL1.trace, &err).has_value());
  EXPECT_EQ(err, "firing zone has no integer point");
  expectMatchesReference(sys, toL1.trace, "fractional firing zone");

  // One step further, y must fire strictly inside (0, 1) and is not
  // reset; l2 still reads y, so the final zone itself has no integer
  // point.
  const Result toL2 = checker.run(Goal{{{p, 2}}, ta::kNoExpr, {}});
  ASSERT_TRUE(toL2.reachable);
  EXPECT_FALSE(concretize(sys, toL2.trace, &err).has_value());
  EXPECT_EQ(err, "final zone has no integer point");
  expectMatchesReference(sys, toL2.trace, "fractional final zone");

  // Where nothing reads y at l2, the final zone keeps no clock and y's
  // fraction shows one step back, on the firing zone of l1 -> l2. The
  // full-width reference still finds it in the final zone.
  ta::System deadY;
  const ta::ProcId q = build(/*l2ReadsY=*/false, deadY);
  const Result toDead =
      Reachability(deadY, Options{}).run(Goal{{{q, 2}}, ta::kNoExpr, {}});
  ASSERT_TRUE(toDead.reachable);
  EXPECT_FALSE(concretize(deadY, toDead.trace, &err).has_value());
  EXPECT_EQ(err, "firing zone has no integer point");
  EXPECT_FALSE(refConcretize(deadY, toDead.trace, &err).has_value());
  EXPECT_EQ(err, "final zone has no integer point");
}

}  // namespace
}  // namespace engine
