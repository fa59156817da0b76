// Unit oracles for the pre-exploration optimization pipeline
// (ta/ir.hpp + ta/opt_passes.hpp) and its engine bridge:
//
//  - per-pass counters and structural effects on hand-built models
//    (constant folding, never-enabled-edge and dead-location removal,
//    dead-store elision, clock unification);
//  - the edge check over the clocks an edge names against the
//    full-width check it replaced, on random guards and invariants;
//  - clock unification checked against a brute-force integer-point
//    (digitized) explorer — exact for the closed, diagonal-free models
//    used here, and entirely independent of the DBM machinery the
//    passes themselves rely on;
//  - verdict/trace equivalence between optLevel 0 and 2 across engines
//    (including BestFirst with its cost clock) on the shared random
//    model generator;
//  - print -> parse round trips of optimized systems.
#include <gtest/gtest.h>

#include <array>
#include <random>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "../engine/random_model.hpp"
#include "dbm/dbm.hpp"
#include "engine/best_first.hpp"
#include "engine/opt_bridge.hpp"
#include "engine/reachability.hpp"
#include "engine/trace.hpp"
#include "plant/plant.hpp"
#include "ta/ir.hpp"
#include "ta/opt_passes.hpp"
#include "ta/parser.hpp"
#include "ta/printer.hpp"

namespace ta {
namespace {

engine::Result runAtLevel(const System& sys, const engine::Goal& goal,
                          int level) {
  engine::Options o;
  o.optLevel = level;
  engine::Reachability checker(sys, o);
  return checker.run(goal);
}

// -- Brute-force integer-point explorer ----------------------------------
//
// Digitized semantics: clock valuations are integer vectors, time
// advances in unit steps, and every clock is capped at `cap` (one past
// the largest constant). Exact for closed (weak-bound), diagonal-free
// models — the only kind the oracle tests below build. No variables,
// no channels, no urgency: plain timed graphs.

struct Digitized {
  const System& sys;
  int cap;

  using State = std::pair<std::vector<LocId>, std::vector<int>>;

  [[nodiscard]] bool satisfies(const std::vector<int>& v,
                               const ClockConstraint& cc) const {
    const int vi = cc.i == 0 ? 0 : v[static_cast<size_t>(cc.i) - 1];
    const int vj = cc.j == 0 ? 0 : v[static_cast<size_t>(cc.j) - 1];
    const int diff = vi - vj;
    return dbm::isStrict(cc.bound) ? diff < dbm::boundValue(cc.bound)
                                   : diff <= dbm::boundValue(cc.bound);
  }

  [[nodiscard]] bool invariantsHold(const State& s) const {
    for (size_t p = 0; p < sys.numAutomata(); ++p) {
      const auto& a = sys.automaton(static_cast<ProcId>(p));
      for (const ClockConstraint& cc : a.location(s.first[p]).invariant) {
        if (!satisfies(s.second, cc)) return false;
      }
    }
    return true;
  }

  /// All (location-vector) states reachable from the initial state.
  [[nodiscard]] std::set<State> explore() const {
    State init;
    for (size_t p = 0; p < sys.numAutomata(); ++p) {
      init.first.push_back(sys.automaton(static_cast<ProcId>(p)).initial());
    }
    init.second.assign(sys.numClocks(), 0);
    std::set<State> seen;
    std::vector<State> stack{init};
    seen.insert(init);
    while (!stack.empty()) {
      State s = stack.back();
      stack.pop_back();
      std::vector<State> next;
      // Unit delay (each clock capped).
      State d = s;
      for (int& c : d.second) c = std::min(c + 1, cap);
      if (invariantsHold(d)) next.push_back(std::move(d));
      // Edge steps.
      for (size_t p = 0; p < sys.numAutomata(); ++p) {
        const auto& a = sys.automaton(static_cast<ProcId>(p));
        for (const Edge& e : a.edges()) {
          if (e.src != s.first[p]) continue;
          bool ok = true;
          for (const ClockConstraint& cc : e.clockGuard) {
            if (!satisfies(s.second, cc)) ok = false;
          }
          if (!ok) continue;
          State t = s;
          t.first[p] = e.dst;
          for (const ClockReset& r : e.resets) {
            t.second[static_cast<size_t>(r.clock) - 1] = r.value;
          }
          if (invariantsHold(t)) next.push_back(std::move(t));
        }
      }
      for (State& n : next) {
        if (seen.insert(n).second) stack.push_back(std::move(n));
      }
    }
    return seen;
  }

  [[nodiscard]] bool reaches(ProcId p, LocId l) const {
    for (const State& s : explore()) {
      if (s.first[static_cast<size_t>(p)] == l) return true;
    }
    return false;
  }
};

// -- Constant folding ----------------------------------------------------

TEST(OptPasses, FoldsConstantVariableGuards) {
  System sys;
  const VarId k = sys.addVar("k", 3);  // never written: a constant
  const ClockId x = sys.addClock("x");
  const ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const LocId l0 = a.addLocation("l0");
  const LocId l1 = a.addLocation("l1");
  const LocId l2 = a.addLocation("l2");
  sys.edge(p, l0, l1).guard(sys.rd(k) == 3).when(ccGe(x, 1));
  sys.edge(p, l0, l2).guard(sys.rd(k) > 5);  // constant false
  sys.finalize();

  OptimizedModel m = optimizeModel(sys, {}, 1);
  ASSERT_TRUE(m.changed());
  EXPECT_GE(m.stats().foldedExprs, 2u);     // both guards fold
  EXPECT_GE(m.stats().removedEdges, 1u);    // the false one goes
  EXPECT_EQ(m.stats().removedLocations, 1u);  // l2 becomes unreachable
  EXPECT_EQ(m.system().automaton(p).numLocations(), 2u);
  // The surviving edge's guard folded away entirely.
  const auto& oa = m.system().automaton(p);
  ASSERT_EQ(oa.edges().size(), 1u);
  EXPECT_EQ(oa.edges()[0].guard, kNoExpr);

  // Verdicts at both levels agree with the structure: l1 reachable.
  engine::Goal g;
  g.locations = {{p, l1}};
  EXPECT_TRUE(runAtLevel(sys, g, 0).reachable);
  EXPECT_TRUE(runAtLevel(sys, g, 2).reachable);
  engine::Goal g2;
  g2.locations = {{p, l2}};
  EXPECT_FALSE(runAtLevel(sys, g2, 0).reachable);
  EXPECT_FALSE(runAtLevel(sys, g2, 2).reachable);
}

TEST(OptPasses, FoldingMatchesEvalOnDivisionByZero) {
  System sys;
  const VarId v = sys.addVar("v", 1);
  const ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const LocId l0 = a.addLocation("l0");
  const LocId l1 = a.addLocation("l1");
  // 1 / 0 is a runtime evaluation failure (edge disabled), not a
  // foldable constant; the pipeline must leave it alone.
  sys.edge(p, l0, l1).guard(sys.lit(1) / sys.lit(0) == sys.rd(v));
  sys.edge(p, l0, l1).assign(v, sys.rd(v));
  sys.finalize();

  engine::Goal g;
  g.locations = {{p, l1}};
  const bool r0 = runAtLevel(sys, g, 0).reachable;
  const bool r2 = runAtLevel(sys, g, 2).reachable;
  EXPECT_EQ(r0, r2);
  EXPECT_TRUE(r0);  // the second edge is unconditional
}

// -- Dead locations and never-enabled edges ------------------------------

TEST(OptPasses, RemovesUnreachableLocationsButKeepsPinnedGoals) {
  System sys;
  const ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const LocId l0 = a.addLocation("l0");
  const LocId l1 = a.addLocation("l1");
  const LocId island = a.addLocation("island");  // no in-edges
  sys.edge(p, l0, l1);
  sys.edge(p, island, l0);  // dangling out-edge must go too
  sys.finalize();

  OptimizedModel m = optimizeModel(sys, {}, 1);
  ASSERT_TRUE(m.changed());
  EXPECT_EQ(m.stats().removedLocations, 1u);
  EXPECT_EQ(m.stats().removedEdges, 1u);
  EXPECT_EQ(m.system().automaton(p).numLocations(), 2u);

  // Pinned as a goal, the island survives (that is how callers ask
  // "prove this cannot happen") and the verdict is a clean negative.
  OptPins pins;
  pins.locations = {{p, island}};
  OptimizedModel mp = optimizeModel(sys, pins, 1);
  if (mp.changed()) {
    EXPECT_GE(mp.mapLoc(p, island), 0);
  }
  engine::Goal g;
  g.locations = {{p, island}};
  const engine::Result r = runAtLevel(sys, g, 2);
  EXPECT_FALSE(r.reachable);
  EXPECT_TRUE(r.exhausted);
}

TEST(OptPasses, SharedAnalysisMatchesLintClassification) {
  System sys;
  const ClockId x = sys.addClock("x");
  const ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const LocId l0 = a.addLocation("l0");
  const LocId l1 = a.addLocation("l1");
  a.addInvariant(l0, ccLe(x, 2));
  sys.edge(p, l0, l1).when(ccGe(x, 1));            // viable
  sys.edge(p, l0, l1).when(ccLt(x, 0));            // unsat alone
  sys.edge(p, l0, l1).when(ccGe(x, 5));            // contradicts invariant
  sys.edge(p, l0, l1).guard(sys.lit(0));           // constant false
  sys.finalize();

  const auto cls = [&](size_t e) {
    const Edge& ed = a.edges()[e];
    return classifyEdgeViability(sys.pool(), ed.guard, ed.clockGuard,
                                 a.location(ed.src).invariant);
  };
  EXPECT_EQ(cls(0), EdgeViability::kViable);
  EXPECT_EQ(cls(1), EdgeViability::kClockGuardUnsat);
  EXPECT_EQ(cls(2), EdgeViability::kGuardContradictsInvariant);
  EXPECT_EQ(cls(3), EdgeViability::kConstFalseGuard);

  // The optimizer removes exactly the three non-viable edges.
  OptimizedModel m = optimizeModel(sys, {}, 1);
  ASSERT_TRUE(m.changed());
  EXPECT_EQ(m.stats().removedEdges, 3u);
  EXPECT_EQ(m.system().automaton(p).edges().size(), 1u);
}

/// `classifyEdgeViability` as it ran before it kept only the clocks an
/// edge names: one DBM over every clock of the model.
EdgeViability classifyFullWidth(
    const ExprPool& pool, ExprRef guard,
    std::span<const ClockConstraint> clockGuard,
    std::span<const ClockConstraint> sourceInvariant, uint32_t dim) {
  if (guard != kNoExpr && isConstExpr(pool, guard)) {
    bool ok = true;
    const int64_t v = pool.eval(guard, {}, &ok);
    if (ok && v == 0) return EdgeViability::kConstFalseGuard;
  }
  if (clockGuard.empty()) return EdgeViability::kViable;
  dbm::Dbm zone = dbm::Dbm::unconstrained(dim);
  bool guardSat = true;
  for (const ClockConstraint& cc : clockGuard) {
    guardSat = zone.constrain(static_cast<uint32_t>(cc.i),
                              static_cast<uint32_t>(cc.j), cc.bound) &&
               guardSat;
  }
  if (!guardSat) return EdgeViability::kClockGuardUnsat;
  bool withInv = true;
  for (const ClockConstraint& cc : sourceInvariant) {
    withInv = zone.constrain(static_cast<uint32_t>(cc.i),
                             static_cast<uint32_t>(cc.j), cc.bound) &&
              withInv;
  }
  if (!withInv) return EdgeViability::kGuardContradictsInvariant;
  return EdgeViability::kViable;
}

TEST(OptPasses, LocalClockViabilityMatchesFullWidth) {
  constexpr int kClocks = 64;
  ExprPool pool;
  const ExprRef guards[] = {kNoExpr, pool.constant(1), pool.constant(0)};
  std::mt19937_64 rng(0x10ca1u);
  const auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  std::array<size_t, 4> seen{};
  for (int trial = 0; trial < 20'000; ++trial) {
    // One to four clocks drawn from many; the guard and the invariant
    // name overlapping subsets of them.
    std::vector<ClockId> named(static_cast<size_t>(pick(1, 4)));
    for (ClockId& c : named) c = pick(1, kClocks);
    const auto clock = [&] {
      return named[static_cast<size_t>(
          pick(0, static_cast<int>(named.size()) - 1))];
    };
    const auto constraints = [&] {
      std::vector<ClockConstraint> list(static_cast<size_t>(pick(0, 4)));
      for (ClockConstraint& cc : list) {
        const dbm::value_t c = pick(-3, 9);
        cc.bound = pick(0, 1) != 0 ? dbm::boundStrict(c) : dbm::boundWeak(c);
        switch (pick(0, 2)) {
          case 0: cc.i = clock(); break;   // x - 0 < c
          case 1: cc.j = clock(); break;   // 0 - x < c
          default:                         // x - y < c
            cc.i = clock();
            cc.j = clock();
            if (cc.i == cc.j) cc.j = 0;
            break;
        }
      }
      return list;
    };
    // A constant-false integer guard one time in ten.
    const ExprRef g =
        guards[static_cast<size_t>(pick(0, 9) == 0 ? 2 : pick(0, 1))];
    const std::vector<ClockConstraint> guard = constraints();
    const std::vector<ClockConstraint> inv = constraints();
    const EdgeViability got = classifyEdgeViability(pool, g, guard, inv);
    ASSERT_EQ(got, classifyFullWidth(pool, g, guard, inv, kClocks + 1))
        << "trial " << trial;
    ++seen[static_cast<size_t>(got)];
  }
  for (size_t v = 0; v < seen.size(); ++v) {
    EXPECT_GT(seen[v], 0u) << "EdgeViability " << v << " never occurred";
  }
}

// -- Dead stores ---------------------------------------------------------

TEST(OptPasses, ElidesStoresToNeverReadVariables) {
  System sys;
  const VarId v = sys.addVar("v", 0);  // read by a guard: stays
  const VarId w = sys.addVar("w", 0);  // written, never read: elided
  const ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const LocId l0 = a.addLocation("l0");
  const LocId l1 = a.addLocation("l1");
  sys.edge(p, l0, l1)
      .guard(sys.rd(v) < 3)
      .assign(v, sys.rd(v) + 1)
      .assign(w, sys.rd(v) + 2);
  sys.finalize();

  OptimizedModel m = optimizeModel(sys, {}, 2);
  ASSERT_TRUE(m.changed());
  EXPECT_EQ(m.stats().elidedVars, 1u);
  const auto& oe = m.system().automaton(p).edges();
  ASSERT_EQ(oe.size(), 1u);
  EXPECT_EQ(oe[0].assigns.size(), 1u);

  // Pinning w (a goal predicate reads it) blocks the elision.
  OptPins pins;
  pins.vars = {w};
  OptimizedModel mp = optimizeModel(sys, pins, 2);
  EXPECT_EQ(mp.stats().elidedVars, 0u);
}

TEST(OptPasses, ElidesBoundedCounterButNotPartialStores) {
  System sys;
  const VarId ctr = sys.addVar("ctr", 0);   // bounded dead counter
  const VarId bad = sys.addVar("bad", 0);   // rhs can fail: must stay
  const VarId v = sys.addVar("v", 1);
  const ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const LocId l0 = a.addLocation("l0");
  const LocId l1 = a.addLocation("l1");
  // `(ctr + 1) % 8` is total (constant nonzero divisor): elidable.
  // `1 / (v - 1)` divides by a variable expression that IS zero at
  // runtime — evaluating it disables the edge, so the store must stay.
  sys.edge(p, l0, l1).assign(ctr, (sys.rd(ctr) + 1) % sys.lit(8));
  sys.edge(p, l0, l1).assign(bad, sys.lit(1) / (sys.rd(v) - 1));
  sys.finalize();

  OptimizedModel m = optimizeModel(sys, {}, 2);
  ASSERT_TRUE(m.changed());
  EXPECT_EQ(m.stats().elidedVars, 1u);

  engine::Goal g;
  g.locations = {{p, l1}};
  EXPECT_EQ(runAtLevel(sys, g, 0).reachable, runAtLevel(sys, g, 2).reachable);
}

/// Dead-store elision is the pass that shrinks *exploration*, not just
/// the model text: states differing only in a dead counter collapse.
TEST(OptPasses, DeadCounterCollapsesStateSpace) {
  System sys;
  const VarId ctr = sys.addVar("ctr", 0);
  const ClockId x = sys.addClock("x");
  const ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const LocId l0 = a.addLocation("l0");
  const LocId l1 = a.addLocation("l1");
  a.addInvariant(l0, ccLe(x, 1));
  a.addInvariant(l1, ccLe(x, 1));
  sys.edge(p, l0, l0).when(ccGe(x, 1)).reset(x).assign(
      ctr, (sys.rd(ctr) + 1) % sys.lit(8));
  sys.edge(p, l0, l1).when(ccGe(x, 1));
  sys.finalize();

  // Unsatisfiable query (x <= 1 everywhere), so the search must prove
  // exhaustion — unoptimized it walks all 8 counter values.
  engine::Goal g;
  g.locations = {{p, l1}};
  g.clockConstraints = {ccGe(x, 5)};
  const engine::Result r0 = runAtLevel(sys, g, 0);
  const engine::Result r2 = runAtLevel(sys, g, 2);
  EXPECT_EQ(r0.reachable, r2.reachable);
  EXPECT_LT(r2.stats.statesExplored, r0.stats.statesExplored);
}

// -- Clock unification, digitized oracle ---------------------------------

/// Two clocks reset only together collapse to one; a brute-force
/// integer-point exploration of the *original* model provides the
/// location-reachability ground truth the optimized run must match.
TEST(OptPasses, UnifiesClocksPreservingDigitizedReachability) {
  System sys;
  const ClockId x = sys.addClock("x");
  const ClockId y = sys.addClock("y");
  const ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const LocId l0 = a.addLocation("l0");
  const LocId l1 = a.addLocation("l1");
  const LocId l2 = a.addLocation("l2");
  const LocId l3 = a.addLocation("l3");
  a.addInvariant(l0, ccLe(x, 3));
  sys.edge(p, l0, l1).when(ccGe(x, 1)).reset(x).reset(y);
  sys.edge(p, l1, l2).when(ccGe(y, 2));
  sys.edge(p, l2, l0).when(ccLe(x, 4)).reset(x).reset(y);
  sys.edge(p, l2, l3).when(ccGe(y, 6)).when(ccLe(x, 5));  // unsat: x == y
  sys.finalize();

  OptimizedModel m = optimizeModel(sys, {}, 2);
  ASSERT_TRUE(m.changed());
  EXPECT_EQ(m.stats().unifiedClocks, 1u);
  EXPECT_EQ(m.system().numClocks(), 1u);
  EXPECT_EQ(m.mapClock(x), m.mapClock(y));

  const Digitized oracle{sys, 8};
  for (const LocId l : {l0, l1, l2, l3}) {
    engine::Goal g;
    g.locations = {{p, l}};
    const bool truth = oracle.reaches(p, l);
    EXPECT_EQ(runAtLevel(sys, g, 0).reachable, truth) << "loc " << l;
    EXPECT_EQ(runAtLevel(sys, g, 2).reachable, truth) << "loc " << l;
  }
}

TEST(OptPasses, DoesNotUnifyClocksResetApart) {
  System sys;
  const ClockId x = sys.addClock("x");
  sys.addClock("y");
  const ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const LocId l0 = a.addLocation("l0");
  const LocId l1 = a.addLocation("l1");
  sys.edge(p, l0, l1).reset(x);  // x reset alone: signatures differ
  sys.edge(p, l1, l0);
  sys.finalize();

  OptimizedModel m = optimizeModel(sys, {}, 2);
  EXPECT_EQ(m.stats().unifiedClocks, 0u);
}

/// Randomized digitized cross-check: small one-process models with
/// joint resets and closed diagonal-free constraints, every location's
/// verdict compared at both opt levels against the integer oracle.
TEST(OptPasses, DigitizedOracleAgreesOnRandomJointResetModels) {
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<int> small(0, 3);
  std::uniform_int_distribution<int> coin(0, 1);
  for (int trial = 0; trial < 25; ++trial) {
    System sys;
    const ClockId x = sys.addClock("x");
    const ClockId y = sys.addClock("y");
    const ProcId p = sys.addAutomaton("P");
    auto& a = sys.automaton(p);
    std::vector<LocId> ls;
    for (int l = 0; l < 4; ++l) {
      ls.push_back(a.addLocation("l" + std::to_string(l)));
      if (coin(rng) != 0) a.addInvariant(ls.back(), ccLe(x, small(rng) + 1));
    }
    std::uniform_int_distribution<int> pick(0, 3);
    for (int e = 0; e < 5; ++e) {
      auto eb = sys.edge(p, ls[static_cast<size_t>(pick(rng))],
                         ls[static_cast<size_t>(pick(rng))]);
      if (coin(rng) != 0) eb.when(ccGe(coin(rng) != 0 ? x : y, small(rng)));
      if (coin(rng) != 0) eb.when(ccLe(coin(rng) != 0 ? x : y, small(rng) + 2));
      if (coin(rng) != 0) {
        const dbm::value_t rv = small(rng) == 0 ? 1 : 0;
        eb.reset(x, rv).reset(y, rv);  // always jointly, same value
      }
    }
    sys.finalize();

    const Digitized oracle{sys, 8};
    for (const LocId l : ls) {
      engine::Goal g;
      g.locations = {{p, l}};
      const bool truth = oracle.reaches(p, l);
      ASSERT_EQ(runAtLevel(sys, g, 0).reachable, truth)
          << "trial " << trial << " loc " << l << " at level 0";
      ASSERT_EQ(runAtLevel(sys, g, 2).reachable, truth)
          << "trial " << trial << " loc " << l << " at level 2";
    }
  }
}

// -- No-change behavior --------------------------------------------------

TEST(OptPasses, AlreadyOptimalModelIsUntouched) {
  System sys;
  const ClockId x = sys.addClock("x");
  const ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const LocId l0 = a.addLocation("l0");
  const LocId l1 = a.addLocation("l1");
  sys.edge(p, l0, l1).when(ccGe(x, 1)).reset(x);
  sys.edge(p, l1, l0).when(ccLe(x, 2));
  sys.finalize();

  OptimizedModel m = optimizeModel(sys, {}, 2);
  EXPECT_FALSE(m.changed());
  EXPECT_FALSE(m.stats().any());
}

// -- The optimizer's work on the guided plant ----------------------------

/// The guides leave folded constants, dead locations and never-enabled
/// edges behind; these are the counts the pipeline removes from the
/// All-Guides plant for its own goal at optLevel 2.
TEST(OptPasses, PinsPassStatsOnAllGuidesPlant) {
  struct Expected {
    int32_t batches;
    size_t folded, removedLocations, removedEdges;
  };
  for (const Expected& want : {Expected{3, 80, 68, 128},
                               Expected{6, 140, 89, 176}}) {
    plant::PlantConfig cfg;
    cfg.order = plant::standardOrder(want.batches);
    cfg.guides = plant::GuideLevel::kAll;
    const auto p = plant::buildPlant(cfg);
    const OptimizedModel m =
        engine::opt_bridge::optimizeForGoal(p->sys, p->goal, 2);
    const PassStats& st = m.stats();
    SCOPED_TRACE(std::to_string(want.batches) + " batches");
    ASSERT_TRUE(m.changed());
    EXPECT_EQ(st.foldedExprs, want.folded);
    EXPECT_EQ(st.removedLocations, want.removedLocations);
    EXPECT_EQ(st.removedEdges, want.removedEdges);
    EXPECT_EQ(st.elidedVars, 0u);
    EXPECT_EQ(st.unifiedClocks, 0u);
    EXPECT_EQ(st.iterations, 2);
  }
}

// -- Engine equivalence on the shared random generator -------------------

TEST(OptPasses, RandomModelsAgreeAcrossOptLevels) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    engine::RandomModel model(seed);
    const engine::Result r0 = runAtLevel(*model.sys, model.goal, 0);
    const engine::Result r1 = runAtLevel(*model.sys, model.goal, 1);
    const engine::Result r2 = runAtLevel(*model.sys, model.goal, 2);
    ASSERT_TRUE(r0.reachable || r0.exhausted) << "seed " << seed;
    ASSERT_EQ(r1.reachable, r0.reachable) << "seed " << seed;
    ASSERT_EQ(r2.reachable, r0.reachable) << "seed " << seed;
    for (const engine::Result* r : {&r1, &r2}) {
      if (!r->reachable) continue;
      std::string err;
      const auto ct = engine::concretize(*model.sys, r->trace, &err);
      ASSERT_TRUE(ct.has_value()) << "seed " << seed << ": " << err;
      ASSERT_TRUE(engine::validate(*model.sys, *ct, &err))
          << "seed " << seed << ": " << err;
    }
  }
}

TEST(OptPasses, BestFirstCostUnchangedByOptimization) {
  System sys;
  const VarId k = sys.addVar("k", 1);  // constant: gives the folder work
  const ClockId t = sys.addClock("t");  // cost clock, never reset
  const ClockId x = sys.addClock("x");
  const ProcId p = sys.addAutomaton("P");
  auto& a = sys.automaton(p);
  const LocId l0 = a.addLocation("l0");
  const LocId l1 = a.addLocation("l1");
  const LocId l2 = a.addLocation("l2");
  a.addInvariant(l0, ccLe(x, 5));
  sys.edge(p, l0, l1).when(ccGe(x, 2)).guard(sys.rd(k) == 1).reset(x);
  sys.edge(p, l1, l2).when(ccGe(x, 3));
  sys.finalize();

  engine::Goal g;
  g.locations = {{p, l2}};
  for (const int level : {0, 2}) {
    engine::Options o;
    o.optLevel = level;
    engine::BestFirst bf(sys, o, t);
    const engine::BestFirstResult res = bf.run(g);
    ASSERT_TRUE(res.reachable) << "level " << level;
    EXPECT_TRUE(res.optimal) << "level " << level;
    EXPECT_EQ(res.cost, 5) << "level " << level;
    if (level == 2) {
      EXPECT_GE(res.stats.foldedExprs, 1u);
    }
    std::string err;
    const auto ct = engine::concretize(sys, res.trace, &err);
    ASSERT_TRUE(ct.has_value()) << "level " << level << ": " << err;
    EXPECT_TRUE(engine::validate(sys, *ct, &err))
        << "level " << level << ": " << err;
  }
}

// -- Printer round trip --------------------------------------------------

TEST(OptPasses, OptimizedModelsSurvivePrintParseRoundTrip) {
  FrontendOptions noLint;
  noLint.lint = false;
  int changed = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    engine::RandomModel model(seed);
    OptPins pins;
    pins.locations = model.goal.locations;
    OptimizedModel m = optimizeModel(*model.sys, pins, 2);
    if (!m.changed()) continue;
    ++changed;
    const std::string p1 = printModel(m.system(), {});
    const FrontendResult r = parseModelEx(p1, noLint);
    ASSERT_TRUE(r.ok) << "seed " << seed << ":\n"
                      << renderDiagnostics(r.diagnostics) << "\n"
                      << p1;
    const std::string p2 = printModel(*r.system, r.queries);
    EXPECT_EQ(p1, p2) << "seed " << seed
                      << ": print -> parse -> print is not a fixpoint";
  }
  // The generator's models are messy enough that the pipeline finds
  // work in most of them; make sure the loop was not vacuous.
  EXPECT_GE(changed, 5);
}

}  // namespace
}  // namespace ta
