#include "ta/opt_passes.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <tuple>

#include "dbm/dbm.hpp"
#include "ta/ir.hpp"

namespace ta {

// ------------------------------------------------------------------------
// Shared analyses (the lint passes call these too — see ta/lint.cpp).
// ------------------------------------------------------------------------

bool isConstExpr(const ExprPool& pool, ExprRef e) {
  if (e == kNoExpr) return true;
  const ExprNode& n = pool.node(e);
  switch (n.op) {
    case Op::kConst: return true;
    case Op::kVar: return false;
    case Op::kNeg:
    case Op::kNot: return isConstExpr(pool, n.a);
    case Op::kIte:
      return isConstExpr(pool, n.a) && isConstExpr(pool, n.b) &&
             isConstExpr(pool, n.c);
    default: return isConstExpr(pool, n.a) && isConstExpr(pool, n.b);
  }
}

EdgeViability classifyEdgeViability(
    const ExprPool& pool, ExprRef guard,
    std::span<const ClockConstraint> clockGuard,
    std::span<const ClockConstraint> sourceInvariant) {
  // Precedence mirrors the linter: constant-false integer guard first,
  // then the clock guard alone, then its conjunction with the source
  // invariant.
  if (guard != kNoExpr && isConstExpr(pool, guard)) {
    bool ok = true;
    const int64_t v = pool.eval(guard, {}, &ok);
    if (ok && v == 0) return EdgeViability::kConstFalseGuard;
  }
  if (clockGuard.empty()) return EdgeViability::kViable;

  // A DBM over only the clocks the guard and the invariant name.
  LocalClocks local;
  local.add(clockGuard);
  local.add(sourceInvariant);
  local.seal();
  dbm::Dbm zone = dbm::Dbm::unconstrained(local.dimension());
  const auto conjoin = [&](std::span<const ClockConstraint> ccs) {
    bool sat = true;
    for (const ClockConstraint& cc : ccs) {
      sat = zone.constrain(local.slot(cc.i), local.slot(cc.j), cc.bound) &&
            sat;
    }
    return sat;
  };
  if (!conjoin(clockGuard)) return EdgeViability::kClockGuardUnsat;
  if (!conjoin(sourceInvariant)) {
    return EdgeViability::kGuardContradictsInvariant;
  }
  return EdgeViability::kViable;
}

std::vector<bool> reachableLocations(
    size_t numLocations, LocId initial,
    std::span<const std::pair<LocId, LocId>> edges) {
  std::vector<bool> seen(numLocations, false);
  if (numLocations == 0) return seen;
  std::vector<LocId> work{initial};
  seen[static_cast<size_t>(initial)] = true;
  while (!work.empty()) {
    const LocId l = work.back();
    work.pop_back();
    for (const auto& [src, dst] : edges) {
      if (src == l && !seen[static_cast<size_t>(dst)]) {
        seen[static_cast<size_t>(dst)] = true;
        work.push_back(dst);
      }
    }
  }
  return seen;
}

void collectExprReads(const ExprPool& pool, ExprRef e,
                      std::vector<uint8_t>& read) {
  if (e == kNoExpr) return;
  const ExprNode& n = pool.node(e);
  switch (n.op) {
    case Op::kConst:
      return;
    case Op::kVar:
      if (n.b == kNoExpr) {
        read[static_cast<size_t>(n.a)] = 1;
      } else {
        const ExprNode& idx = pool.node(n.b);
        if (idx.op == Op::kConst) {
          // A constant index reads exactly one cell (out-of-range
          // indices read nothing — evaluation fails first).
          if (idx.a >= 0 && idx.a < n.c) {
            read[static_cast<size_t>(n.a + idx.a)] = 1;
          }
        } else {
          for (int32_t k = 0; k < n.c; ++k) {
            read[static_cast<size_t>(n.a + k)] = 1;
          }
        }
        collectExprReads(pool, n.b, read);
      }
      return;
    case Op::kNeg:
    case Op::kNot:
      collectExprReads(pool, n.a, read);
      return;
    case Op::kIte:
      collectExprReads(pool, n.a, read);
      collectExprReads(pool, n.b, read);
      collectExprReads(pool, n.c, read);
      return;
    default:
      collectExprReads(pool, n.a, read);
      collectExprReads(pool, n.b, read);
      return;
  }
}

// ------------------------------------------------------------------------
// Constant folding.
// ------------------------------------------------------------------------

namespace {

constexpr int64_t kI32Min = std::numeric_limits<int32_t>::min();
constexpr int64_t kI32Max = std::numeric_limits<int32_t>::max();

[[nodiscard]] bool isConstNode(const ExprPool& pool, ExprRef e,
                               int64_t* value) {
  if (e == kNoExpr) return false;
  const ExprNode& n = pool.node(e);
  if (n.op != Op::kConst) return false;
  *value = n.a;
  return true;
}

}  // namespace

ExprRef foldExpr(ExprPool& pool, ExprRef e, std::span<const uint8_t> isConst,
                 std::span<const int32_t> constVal, size_t* applied) {
  if (e == kNoExpr) return e;
  const ExprNode n = pool.node(e);  // copy: the pool may grow below
  const auto rewrite = [&](ExprRef r) {
    ++*applied;
    return r;
  };
  const auto constant = [&](int64_t v) { return rewrite(pool.constant(static_cast<int32_t>(v))); };

  switch (n.op) {
    case Op::kConst:
      return e;
    case Op::kVar: {
      if (n.b == kNoExpr) {
        const auto v = static_cast<size_t>(n.a);
        if (v < isConst.size() && isConst[v] != 0) {
          return constant(constVal[v]);
        }
        return e;
      }
      const ExprRef idx = foldExpr(pool, n.b, isConst, constVal, applied);
      int64_t iv = 0;
      if (isConstNode(pool, idx, &iv) && iv >= 0 && iv < n.c) {
        // Scalarize: a[2] is the cell with id base+2. Out-of-range
        // constant indices stay symbolic so evaluation still fails.
        const auto cell = static_cast<size_t>(n.a + iv);
        if (cell < isConst.size() && isConst[cell] != 0) {
          return constant(constVal[cell]);
        }
        return rewrite(pool.var(static_cast<VarId>(n.a + iv)));
      }
      if (idx != n.b) return rewrite(pool.arrayCell(n.a, idx, n.c));
      return e;
    }
    case Op::kNeg: {
      const ExprRef a = foldExpr(pool, n.a, isConst, constVal, applied);
      int64_t av = 0;
      if (isConstNode(pool, a, &av) && -av >= kI32Min && -av <= kI32Max) {
        return constant(-av);
      }
      if (a != n.a) return rewrite(pool.unary(Op::kNeg, a));
      return e;
    }
    case Op::kNot: {
      const ExprRef a = foldExpr(pool, n.a, isConst, constVal, applied);
      int64_t av = 0;
      if (isConstNode(pool, a, &av)) return constant(av == 0 ? 1 : 0);
      if (a != n.a) return rewrite(pool.unary(Op::kNot, a));
      return e;
    }
    case Op::kIte: {
      const ExprRef c = foldExpr(pool, n.a, isConst, constVal, applied);
      int64_t cv = 0;
      if (isConstNode(pool, c, &cv)) {
        // eval only walks the taken branch, so dropping the other one
        // is exact (including its error behavior).
        return rewrite(
            foldExpr(pool, cv != 0 ? n.b : n.c, isConst, constVal, applied));
      }
      const ExprRef t = foldExpr(pool, n.b, isConst, constVal, applied);
      const ExprRef f = foldExpr(pool, n.c, isConst, constVal, applied);
      if (c != n.a || t != n.b || f != n.c) {
        return rewrite(pool.ite(c, t, f));
      }
      return e;
    }
    default:
      break;
  }

  // Binary operators.
  const ExprRef a = foldExpr(pool, n.a, isConst, constVal, applied);
  const ExprRef b = foldExpr(pool, n.b, isConst, constVal, applied);
  int64_t av = 0;
  int64_t bv = 0;
  const bool ac = isConstNode(pool, a, &av);
  const bool bc = isConstNode(pool, b, &bv);

  // Annihilators that are exact under ExprPool::eval's non-short-circuit
  // pure semantics: And with a constant-false side is 0, Or with a
  // constant-true side is 1. (Identity rewrites like And(1, x) -> x are
  // NOT exact — eval booleanizes x — so they are left alone.)
  if (n.op == Op::kAnd && ((ac && av == 0) || (bc && bv == 0))) {
    return constant(0);
  }
  if (n.op == Op::kOr && ((ac && av != 0) || (bc && bv != 0))) {
    return constant(1);
  }

  if (ac && bc) {
    int64_t v = 0;
    bool foldable = true;
    switch (n.op) {
      case Op::kAdd: v = av + bv; break;
      case Op::kSub: v = av - bv; break;
      case Op::kMul: v = av * bv; break;
      case Op::kDiv:
        // Division/modulo by zero must keep failing at evaluation time.
        if (bv == 0) foldable = false;
        else v = av / bv;
        break;
      case Op::kMod:
        if (bv == 0) foldable = false;
        else v = av % bv;
        break;
      case Op::kLt: v = av < bv; break;
      case Op::kLe: v = av <= bv; break;
      case Op::kEq: v = av == bv; break;
      case Op::kNe: v = av != bv; break;
      case Op::kGe: v = av >= bv; break;
      case Op::kGt: v = av > bv; break;
      case Op::kAnd: v = (av != 0 && bv != 0) ? 1 : 0; break;
      case Op::kOr: v = (av != 0 || bv != 0) ? 1 : 0; break;
      case Op::kMin: v = std::min(av, bv); break;
      case Op::kMax: v = std::max(av, bv); break;
      default: foldable = false; break;
    }
    if (foldable && v >= kI32Min && v <= kI32Max) return constant(v);
  }
  if (a != n.a || b != n.b) return rewrite(pool.binary(n.op, a, b));
  return e;
}

// ------------------------------------------------------------------------
// Pass 1: constant folding + constant-variable propagation.
// ------------------------------------------------------------------------

namespace {

/// Cells some assignment may write. Like the lint usage collector, a
/// non-constant index taints the whole array range.
std::vector<uint8_t> assignedCells(const Ir& ir) {
  std::vector<uint8_t> assigned(ir.varInit.size(), 0);
  for (const IrProcess& p : ir.procs) {
    for (const IrEdge& e : p.edges) {
      for (const Assign& as : e.assigns) {
        if (as.index == kNoExpr) {
          assigned[static_cast<size_t>(as.base)] = 1;
          continue;
        }
        const ExprNode& idx = ir.pool.node(as.index);
        if (idx.op == Op::kConst) {
          if (idx.a >= 0 && idx.a < as.arraySize) {
            assigned[static_cast<size_t>(as.base + idx.a)] = 1;
          }
        } else {
          for (int32_t k = 0; k < as.arraySize; ++k) {
            assigned[static_cast<size_t>(as.base + k)] = 1;
          }
        }
      }
    }
  }
  return assigned;
}

}  // namespace

bool passConstFold(Ir& ir, PassStats& st) {
  // A variable no assignment can ever write holds its initial value in
  // every reachable state — propagate it. (Location reachability is not
  // needed: an unreachable write is still a write; the dead passes will
  // remove it and the next fixpoint round picks the constant up.)
  const std::vector<uint8_t> assigned = assignedCells(ir);
  std::vector<uint8_t> isConst(assigned.size());
  for (size_t v = 0; v < assigned.size(); ++v) isConst[v] = assigned[v] == 0;

  size_t applied = 0;
  for (IrProcess& p : ir.procs) {
    for (IrEdge& e : p.edges) {
      e.guard = foldExpr(ir.pool, e.guard, isConst, ir.varInit, &applied);
      // A guard folded to a nonzero constant is the absent (true) guard.
      if (e.guard != kNoExpr) {
        const ExprNode& g = ir.pool.node(e.guard);
        if (g.op == Op::kConst && g.a != 0) {
          e.guard = kNoExpr;
          ++applied;
        }
      }
      for (Assign& as : e.assigns) {
        as.rhs = foldExpr(ir.pool, as.rhs, isConst, ir.varInit, &applied);
        if (as.index == kNoExpr) continue;
        as.index = foldExpr(ir.pool, as.index, isConst, ir.varInit, &applied);
        const ExprNode& idx = ir.pool.node(as.index);
        if (idx.op == Op::kConst && idx.a >= 0 && idx.a < as.arraySize) {
          // Scalarize the write; later rounds see a smaller write set.
          as.base += idx.a;
          as.index = kNoExpr;
          as.arraySize = 1;
          ++applied;
        }
      }
    }
  }
  st.foldedExprs += applied;
  return applied != 0;
}

// ------------------------------------------------------------------------
// Pass 2a: never-enabled edge elimination (shared with lint L005/L006).
// ------------------------------------------------------------------------

bool passRemoveNeverEnabledEdges(Ir& ir, PassStats& st) {
  bool changed = false;
  for (IrProcess& p : ir.procs) {
    for (size_t ei = 0; ei < p.edges.size();) {
      const IrEdge& e = p.edges[ei];
      const EdgeViability v = classifyEdgeViability(
          ir.pool, e.guard, e.clockGuard,
          p.locs[static_cast<size_t>(e.src)].invariant);
      bool remove = v != EdgeViability::kViable;
      // A broadcast *receiver* participates iff its integer guard holds
      // — the engine never evaluates receiver clock guards when
      // assembling the maximal receiver set. Removing one for a
      // clock-guard reason would change which broadcasts fire, so only
      // the integer-guard-false case (where the engine agrees the edge
      // is out) is removable.
      if (remove && v != EdgeViability::kConstFalseGuard &&
          e.sync == Sync::kReceive && e.chan >= 0 &&
          ir.chanKinds[static_cast<size_t>(e.chan)] == ChanKind::kBroadcast) {
        remove = false;
      }
      if (remove) {
        p.edges.erase(p.edges.begin() + static_cast<std::ptrdiff_t>(ei));
        ++st.removedEdges;
        changed = true;
      } else {
        ++ei;
      }
    }
  }
  return changed;
}

// ------------------------------------------------------------------------
// Pass 2b: dead-location elimination (shared with lint L004).
// ------------------------------------------------------------------------

bool passRemoveDeadLocations(Ir& ir, PassStats& st) {
  bool changed = false;
  for (size_t ip = 0; ip < ir.procs.size(); ++ip) {
    IrProcess& p = ir.procs[ip];
    std::vector<std::pair<LocId, LocId>> pairs;
    pairs.reserve(p.edges.size());
    for (const IrEdge& e : p.edges) pairs.push_back({e.src, e.dst});
    const std::vector<bool> reach =
        reachableLocations(p.locs.size(), p.init, pairs);

    std::vector<LocId> remap(p.locs.size(), -1);
    LocId next = 0;
    for (size_t l = 0; l < p.locs.size(); ++l) {
      if (reach[l] || p.locs[l].pinned) remap[l] = next++;
    }
    if (static_cast<size_t>(next) == p.locs.size()) continue;
    changed = true;
    st.removedLocations += p.locs.size() - static_cast<size_t>(next);

    std::vector<IrLocation> keptLocs;
    keptLocs.reserve(static_cast<size_t>(next));
    for (size_t l = 0; l < p.locs.size(); ++l) {
      if (remap[l] >= 0) keptLocs.push_back(std::move(p.locs[l]));
    }
    p.locs = std::move(keptLocs);
    p.init = remap[static_cast<size_t>(p.init)];

    // Drop edges touching a removed location (their source is
    // unreachable, or they leave a pinned-but-unreachable location for
    // a removed one — either way they can never fire).
    for (size_t ei = 0; ei < p.edges.size();) {
      IrEdge& e = p.edges[ei];
      if (remap[static_cast<size_t>(e.src)] < 0 ||
          remap[static_cast<size_t>(e.dst)] < 0) {
        p.edges.erase(p.edges.begin() + static_cast<std::ptrdiff_t>(ei));
        ++st.removedEdges;
      } else {
        e.src = remap[static_cast<size_t>(e.src)];
        e.dst = remap[static_cast<size_t>(e.dst)];
        ++ei;
      }
    }

    // Keep the original-location map current.
    for (LocId& l : ir.locOf[ip]) {
      if (l >= 0) l = remap[static_cast<size_t>(l)];
    }
  }
  return changed;
}

// ------------------------------------------------------------------------
// Pass 3: dead-store elimination.
// ------------------------------------------------------------------------

namespace {

/// True when evaluating `e` can never set ok=false: no division/modulo
/// and every array access has a constant in-range index. Dropping an
/// assignment whose rhs could fail would enable a transition the
/// original model rejects.
bool exprTotal(const ExprPool& pool, ExprRef e) {
  if (e == kNoExpr) return true;
  const ExprNode& n = pool.node(e);
  switch (n.op) {
    case Op::kConst: return true;
    case Op::kVar: {
      if (n.b == kNoExpr) return true;
      const ExprNode& idx = pool.node(n.b);
      return idx.op == Op::kConst && idx.a >= 0 && idx.a < n.c &&
             exprTotal(pool, n.b);
    }
    case Op::kDiv:
    case Op::kMod: {
      // Division only fails on a zero divisor; a constant nonzero
      // divisor (the bounded-counter idiom `(n + 1) % k`) is total.
      const ExprNode& d = pool.node(n.b);
      return d.op == Op::kConst && d.a != 0 && exprTotal(pool, n.a);
    }
    case Op::kNeg:
    case Op::kNot: return exprTotal(pool, n.a);
    case Op::kIte:
      return exprTotal(pool, n.a) && exprTotal(pool, n.b) &&
             exprTotal(pool, n.c);
    default: return exprTotal(pool, n.a) && exprTotal(pool, n.b);
  }
}

}  // namespace

bool passDropDeadStores(Ir& ir, const OptPins& pins, PassStats& st) {
  // Liveness: a variable cell is live when a guard or the goal
  // predicate (pins) reads it, or when a *surviving* assignment's rhs
  // or index reads it. Reads performed by assignments that are
  // themselves about to be dropped do not count — otherwise a bounded
  // event counter (`events = (events + 1) % 8`, written everywhere,
  // read by nothing else) keeps itself alive through its own
  // increment. Computed as a fixpoint: an assignment survives when it
  // can fail at runtime (a guard in disguise — division by a variable,
  // dynamic index) or when a cell it may write is live; surviving
  // assignments then contribute their reads. Variables stay declared
  // (no renumbering) — a dead store's variable simply freezes at its
  // initial value, which merges discrete states that differed only in
  // it.
  std::vector<uint8_t> live(ir.varInit.size(), 0);
  for (const VarId v : pins.vars) live[static_cast<size_t>(v)] = 1;
  for (const IrProcess& p : ir.procs) {
    for (const IrEdge& e : p.edges) collectExprReads(ir.pool, e.guard, live);
  }

  // An assignment that can fail must stay. A write through an index
  // that is not a constant in range disables the whole transition once
  // the index leaves the array, so it is a guard in disguise even when
  // nothing reads the array.
  const auto assignTotal = [&](const Assign& as) {
    if (!exprTotal(ir.pool, as.rhs)) return false;
    if (as.index == kNoExpr) return true;
    const ExprNode& idx = ir.pool.node(as.index);
    return idx.op == Op::kConst && idx.a >= 0 && idx.a < as.arraySize;
  };
  const auto writesLiveCell = [&](const Assign& as) {
    if (as.index == kNoExpr) return live[static_cast<size_t>(as.base)] != 0;
    const ExprNode& idx = ir.pool.node(as.index);
    if (idx.op == Op::kConst && idx.a >= 0 && idx.a < as.arraySize) {
      return live[static_cast<size_t>(as.base + idx.a)] != 0;
    }
    for (int32_t k = 0; k < as.arraySize; ++k) {
      if (live[static_cast<size_t>(as.base + k)] != 0) return true;
    }
    return false;
  };
  const auto markWrites = [&](const Assign& as) {
    if (as.index == kNoExpr) {
      live[static_cast<size_t>(as.base)] = 1;
      return;
    }
    const ExprNode& idx = ir.pool.node(as.index);
    if (idx.op == Op::kConst && idx.a >= 0 && idx.a < as.arraySize) {
      live[static_cast<size_t>(as.base + idx.a)] = 1;
      return;
    }
    for (int32_t k = 0; k < as.arraySize; ++k) {
      live[static_cast<size_t>(as.base + k)] = 1;
    }
  };

  const auto liveCount = [&] {
    size_t n = 0;
    for (const uint8_t b : live) n += b;
    return n;
  };
  for (size_t before = liveCount();; before = liveCount()) {
    for (const IrProcess& p : ir.procs) {
      for (const IrEdge& e : p.edges) {
        for (const Assign& as : e.assigns) {
          if (!assignTotal(as)) {
            // Stays no matter what; its writes keep the variable
            // varying, so sibling (total) stores must stay too.
            markWrites(as);
          } else if (!writesLiveCell(as)) {
            continue;
          }
          collectExprReads(ir.pool, as.rhs, live);
          if (as.index != kNoExpr) {
            collectExprReads(ir.pool, as.index, live);
          }
        }
      }
    }
    if (liveCount() == before) break;
  }

  bool changed = false;
  for (IrProcess& p : ir.procs) {
    for (IrEdge& e : p.edges) {
      for (size_t ai = 0; ai < e.assigns.size();) {
        const Assign& as = e.assigns[ai];
        if (assignTotal(as) && !writesLiveCell(as)) {
          if (ir.elidedSeen[static_cast<size_t>(as.base)] == 0) {
            ir.elidedSeen[static_cast<size_t>(as.base)] = 1;
            ++st.elidedVars;
          }
          e.assigns.erase(e.assigns.begin() +
                          static_cast<std::ptrdiff_t>(ai));
          changed = true;
        } else {
          ++ai;
        }
      }
    }
  }
  return changed;
}

// ------------------------------------------------------------------------
// Pass 4: clock-equality unification.
// ------------------------------------------------------------------------

bool passUnifyClocks(Ir& ir, const OptPins& pins, PassStats& st) {
  if (ir.numClocks < 2) return false;

  // Reset signature: the exact set of (process, edge, value) resets.
  // Two clocks with identical signatures start at 0 together and are
  // reset together to the same values forever — their valuations are
  // equal in every reachable state, so collapsing them onto one
  // representative is an exact bisimulation (see DESIGN.md).
  // Only clocks still live (in the image of the cumulative clockRep
  // map) participate; merged-away clocks all have empty signatures and
  // would otherwise re-merge every round.
  std::vector<uint8_t> liveClock(ir.numClocks + 1, 0);
  for (ClockId c = 1; c <= static_cast<ClockId>(ir.numClocks); ++c) {
    liveClock[static_cast<size_t>(ir.clockRep[static_cast<size_t>(c)])] = 1;
  }

  std::map<std::vector<std::tuple<size_t, size_t, dbm::value_t>>,
           std::vector<ClockId>>
      groups;
  {
    std::vector<std::vector<std::tuple<size_t, size_t, dbm::value_t>>> sig(
        ir.numClocks + 1);
    for (size_t ip = 0; ip < ir.procs.size(); ++ip) {
      for (size_t ei = 0; ei < ir.procs[ip].edges.size(); ++ei) {
        for (const ClockReset& r : ir.procs[ip].edges[ei].resets) {
          sig[static_cast<size_t>(r.clock)].push_back({ip, ei, r.value});
        }
      }
    }
    for (ClockId c = 1; c <= static_cast<ClockId>(ir.numClocks); ++c) {
      if (liveClock[static_cast<size_t>(c)] == 0) continue;
      auto& s = sig[static_cast<size_t>(c)];
      std::sort(s.begin(), s.end());
      s.erase(std::unique(s.begin(), s.end()), s.end());
      groups[s].push_back(c);
    }
  }

  std::vector<ClockId> rep(ir.numClocks + 1);
  for (size_t c = 0; c < rep.size(); ++c) rep[c] = static_cast<ClockId>(c);
  bool anyGroup = false;
  for (const auto& [signature, members] : groups) {
    if (members.size() < 2) continue;
    anyGroup = true;
    for (const ClockId c : members) rep[static_cast<size_t>(c)] = members[0];
  }
  if (!anyGroup) return false;

  // Gate: a constraint between two merged clocks degenerates to
  // x - x <bound> b. On edge guards a false diagonal just kills the
  // edge (handled below); on invariants or pinned goal constraints it
  // would misstate the model, so any such case vetoes the whole round
  // (conservative and, with weak-0-satisfiable bounds, vanishingly
  // rare).
  const auto degenerateUnsat = [&](const ClockConstraint& cc) {
    return cc.i != 0 && cc.j != 0 &&
           rep[static_cast<size_t>(cc.i)] == rep[static_cast<size_t>(cc.j)] &&
           cc.bound < dbm::boundWeak(0);
  };
  for (const IrProcess& p : ir.procs) {
    for (const IrLocation& l : p.locs) {
      for (const ClockConstraint& cc : l.invariant) {
        if (degenerateUnsat(cc)) return false;
      }
    }
  }
  for (const ClockConstraint& cc : pins.clockConstraints) {
    if (degenerateUnsat(cc)) return false;
  }

  // Apply: rewrite constraints, drop satisfied diagonals, turn
  // unsatisfiable guard diagonals into a constant-false guard (the
  // edge-removal pass cuts those next round), merge duplicate resets.
  const auto rewriteList = [&](std::vector<ClockConstraint>& list,
                               bool* falsified) {
    for (size_t k = 0; k < list.size();) {
      ClockConstraint& cc = list[k];
      cc.i = rep[static_cast<size_t>(cc.i)];
      cc.j = rep[static_cast<size_t>(cc.j)];
      if (cc.i == cc.j) {
        if (cc.bound < dbm::boundWeak(0)) {
          if (falsified != nullptr) *falsified = true;
        }
        list.erase(list.begin() + static_cast<std::ptrdiff_t>(k));
      } else {
        ++k;
      }
    }
  };
  for (IrProcess& p : ir.procs) {
    for (IrLocation& l : p.locs) rewriteList(l.invariant, nullptr);
    for (IrEdge& e : p.edges) {
      bool falsified = false;
      rewriteList(e.clockGuard, &falsified);
      if (falsified) e.guard = ir.pool.constant(0);
      for (ClockReset& r : e.resets) {
        r.clock = rep[static_cast<size_t>(r.clock)];
      }
      std::sort(e.resets.begin(), e.resets.end(),
                [](const ClockReset& a, const ClockReset& b) {
                  return a.clock < b.clock;
                });
      e.resets.erase(std::unique(e.resets.begin(), e.resets.end(),
                                 [](const ClockReset& a, const ClockReset& b) {
                                   return a.clock == b.clock;
                                 }),
                     e.resets.end());
    }
  }

  // Fold into the cumulative original->representative map and count.
  size_t merged = 0;
  for (ClockId c = 1; c <= static_cast<ClockId>(ir.numClocks); ++c) {
    if (rep[static_cast<size_t>(c)] != c) ++merged;
  }
  for (ClockId& r : ir.clockRep) r = rep[static_cast<size_t>(r)];
  st.unifiedClocks += merged;
  return true;
}

}  // namespace ta
