#include "ta/ir.hpp"

#include <chrono>
#include <set>
#include <string>
#include <utility>

namespace ta {

namespace {

/// Deep-copy an expression from one pool into another (arenas are
/// append-only, so refs into `dst` stay valid while it grows).
ExprRef copyExpr(const ExprPool& src, ExprRef e, ExprPool& dst) {
  if (e == kNoExpr) return kNoExpr;
  const ExprNode n = src.node(e);
  switch (n.op) {
    case Op::kConst:
      return dst.constant(n.a);
    case Op::kVar: {
      if (n.b == kNoExpr) return dst.var(n.a);
      const ExprRef idx = copyExpr(src, n.b, dst);
      return dst.arrayCell(n.a, idx, n.c);
    }
    case Op::kNeg:
    case Op::kNot:
      return dst.unary(n.op, copyExpr(src, n.a, dst));
    case Op::kIte: {
      const ExprRef a = copyExpr(src, n.a, dst);
      const ExprRef b = copyExpr(src, n.b, dst);
      const ExprRef c = copyExpr(src, n.c, dst);
      return dst.ite(a, b, c);
    }
    default: {
      const ExprRef a = copyExpr(src, n.a, dst);
      const ExprRef b = copyExpr(src, n.b, dst);
      return dst.binary(n.op, a, b);
    }
  }
}

/// System does not reject duplicate process or location names, but the
/// printer round trip needs them unique: suffix repeats with '_k'.
std::string uniqueName(std::string base, std::set<std::string>& used) {
  if (base.empty()) base = "s";
  std::string name = base;
  int k = 2;
  while (!used.insert(name).second) {
    name = base + "_" + std::to_string(k++);
  }
  return name;
}

}  // namespace

Ir Ir::lower(const System& sys, const OptPins& pins) {
  Ir ir;
  ir.pool = sys.pool();
  ir.numClocks = sys.numClocks();
  for (ClockId c = 1; c <= static_cast<ClockId>(ir.numClocks); ++c) {
    ir.clockNames.push_back(sys.clockName(c));
  }
  ir.varInit = sys.initialVars();
  ir.varNames = sys.varNames();
  ir.arrays = sys.arrays();
  for (ChanId c = 0; c < static_cast<ChanId>(sys.numChannels()); ++c) {
    ir.chanNames.push_back(sys.channelName(c));
    ir.chanKinds.push_back(sys.channelKind(c));
  }

  for (ProcId p = 0; p < static_cast<ProcId>(sys.numAutomata()); ++p) {
    const Automaton& a = sys.automaton(p);
    IrProcess ip;
    ip.name = a.name();
    ip.init = a.initial();
    for (size_t l = 0; l < a.numLocations(); ++l) {
      const Location& loc = a.location(static_cast<LocId>(l));
      ip.locs.push_back(
          {loc.name, loc.invariant, loc.urgent, loc.committed, false});
    }
    for (size_t ei = 0; ei < a.edges().size(); ++ei) {
      const Edge& e = a.edges()[ei];
      IrEdge ie;
      ie.src = e.src;
      ie.dst = e.dst;
      ie.clockGuard = e.clockGuard;
      ie.guard = e.guard;
      ie.chan = e.chan;
      ie.sync = e.sync;
      ie.resets = e.resets;
      ie.assigns = e.assigns;
      ie.label = e.label;
      ie.origin = static_cast<int32_t>(ei);
      ip.edges.push_back(std::move(ie));
    }
    ir.procs.push_back(std::move(ip));
  }

  ir.clockRep.resize(ir.numClocks + 1);
  for (size_t c = 0; c < ir.clockRep.size(); ++c) {
    ir.clockRep[c] = static_cast<ClockId>(c);
  }
  ir.locOf.resize(ir.procs.size());
  for (size_t p = 0; p < ir.procs.size(); ++p) {
    ir.locOf[p].resize(ir.procs[p].locs.size());
    for (size_t l = 0; l < ir.locOf[p].size(); ++l) {
      ir.locOf[p][l] = static_cast<LocId>(l);
    }
  }
  ir.elidedSeen.assign(ir.varInit.size(), 0);

  for (const auto& [p, l] : pins.locations) {
    ir.procs[static_cast<size_t>(p)].locs[static_cast<size_t>(l)].pinned =
        true;
  }
  return ir;
}

namespace {

/// Fixpoint safety bound: the passes feed each other, but real models
/// quiesce in two or three rounds.
constexpr int kMaxRounds = 8;

/// Variables with no surviving write hold their initial value forever —
/// the substitution `mapExpr` applies to goal predicates. Dynamic-index
/// writes taint the whole cell range, like the lint usage collector.
void constVarsOf(const Ir& ir, std::vector<uint8_t>* isConst,
                 std::vector<int32_t>* constVal) {
  std::vector<uint8_t> written(ir.varInit.size(), 0);
  for (const IrProcess& p : ir.procs) {
    for (const IrEdge& e : p.edges) {
      for (const Assign& as : e.assigns) {
        if (as.index == kNoExpr) {
          written[static_cast<size_t>(as.base)] = 1;
          continue;
        }
        const ExprNode& idx = ir.pool.node(as.index);
        if (idx.op == Op::kConst) {
          if (idx.a >= 0 && idx.a < as.arraySize) {
            written[static_cast<size_t>(as.base + idx.a)] = 1;
          }
        } else {
          for (int32_t k = 0; k < as.arraySize; ++k) {
            written[static_cast<size_t>(as.base + k)] = 1;
          }
        }
      }
    }
  }
  isConst->resize(written.size());
  for (size_t v = 0; v < written.size(); ++v) {
    (*isConst)[v] = written[v] == 0;
  }
  *constVal = ir.varInit;
}

void emitSystem(const Ir& ir, System& sys, std::vector<ClockId>& clockMap) {
  // Clocks: keep the representatives, in original order under their
  // original names (merged names simply disappear).
  std::vector<ClockId> newId(ir.numClocks + 1, 0);
  std::vector<uint8_t> live(ir.numClocks + 1, 0);
  for (ClockId c = 1; c <= static_cast<ClockId>(ir.numClocks); ++c) {
    live[static_cast<size_t>(ir.clockRep[static_cast<size_t>(c)])] = 1;
  }
  for (ClockId c = 1; c <= static_cast<ClockId>(ir.numClocks); ++c) {
    if (live[static_cast<size_t>(c)] != 0) {
      newId[static_cast<size_t>(c)] =
          sys.addClock(ir.clockNames[static_cast<size_t>(c - 1)]);
    }
  }
  clockMap.assign(ir.numClocks + 1, 0);
  for (ClockId c = 1; c <= static_cast<ClockId>(ir.numClocks); ++c) {
    clockMap[static_cast<size_t>(c)] =
        newId[static_cast<size_t>(ir.clockRep[static_cast<size_t>(c)])];
  }
  const auto mapCk = [&](ClockId c) {
    return c == 0 ? 0 : clockMap[static_cast<size_t>(c)];
  };
  const auto mapCc = [&](const ClockConstraint& cc) {
    return ClockConstraint{mapCk(cc.i), mapCk(cc.j), cc.bound};
  };

  // Variables: reproduce the id layout exactly (expressions refer to
  // cells by flat id) — arrays via addArray, everything else addVar.
  std::vector<int32_t> sizeAtBase(ir.varInit.size(), 0);
  for (const auto& [base, size] : ir.arrays) {
    sizeAtBase[static_cast<size_t>(base)] = size;
  }
  for (VarId v = 0; v < static_cast<VarId>(ir.varInit.size());) {
    const int32_t size = sizeAtBase[static_cast<size_t>(v)];
    if (size > 0) {
      std::string name = ir.varNames[static_cast<size_t>(v)];
      if (const size_t b = name.find('['); b != std::string::npos) {
        name.resize(b);
      }
      sys.addArray(name, size, 0);
      for (int32_t k = 0; k < size; ++k) {
        sys.setVarInit(v + k, ir.varInit[static_cast<size_t>(v + k)]);
      }
      v += size;
    } else {
      sys.addVar(ir.varNames[static_cast<size_t>(v)],
                 ir.varInit[static_cast<size_t>(v)]);
      ++v;
    }
  }

  for (size_t c = 0; c < ir.chanNames.size(); ++c) {
    sys.addChannel(ir.chanNames[c], ir.chanKinds[c]);
  }

  std::set<std::string> procNames;
  for (const IrProcess& p : ir.procs) {
    const ProcId np = sys.addAutomaton(uniqueName(p.name, procNames));
    Automaton& a = sys.automaton(np);
    std::set<std::string> locNames;
    for (const IrLocation& loc : p.locs) {
      const LocId l =
          a.addLocation(uniqueName(loc.name, locNames), loc.urgent,
                        loc.committed);
      std::vector<ClockConstraint> inv;
      inv.reserve(loc.invariant.size());
      for (const ClockConstraint& cc : loc.invariant) inv.push_back(mapCc(cc));
      a.setInvariant(l, std::move(inv));
    }
    a.setInitial(p.init);
    for (const IrEdge& e : p.edges) {
      EdgeBuilder eb = sys.edge(np, e.src, e.dst);
      for (const ClockConstraint& cc : e.clockGuard) eb.when(mapCc(cc));
      if (e.guard != kNoExpr) {
        eb.guard(copyExpr(ir.pool, e.guard, sys.pool()));
      }
      if (e.sync == Sync::kSend) eb.send(e.chan);
      if (e.sync == Sync::kReceive) eb.receive(e.chan);
      for (const ClockReset& r : e.resets) eb.reset(mapCk(r.clock), r.value);
      for (const Assign& as : e.assigns) {
        const ExprRef rhs = copyExpr(ir.pool, as.rhs, sys.pool());
        if (as.index == kNoExpr) {
          eb.assign(as.base, Ex(sys.pool(), rhs));
        } else {
          const ExprRef idx = copyExpr(ir.pool, as.index, sys.pool());
          eb.assignCell(as.base, Ex(sys.pool(), idx), as.arraySize,
                        Ex(sys.pool(), rhs));
        }
      }
      if (!e.label.empty()) eb.label(e.label);
    }
  }
  sys.finalize();
}

}  // namespace

ClockConstraint OptimizedModel::mapConstraint(const ClockConstraint& cc) const {
  ClockConstraint r{mapClock(cc.i), mapClock(cc.j), cc.bound};
  if (r.i == r.j) {
    // Both clocks were unified: the constraint degenerated to x - x,
    // which is satisfiable here (unification refuses to merge clocks a
    // pinned constraint would separate) — i.e. trivially true.
    return {0, 0, dbm::kZeroBound};
  }
  return r;
}

ExprRef OptimizedModel::mapExpr(const ExprPool& srcPool, ExprRef e) {
  if (e == kNoExpr) return kNoExpr;
  const ExprRef copied = copyExpr(srcPool, e, sys_.pool());
  size_t applied = 0;
  return foldExpr(sys_.pool(), copied, varIsConst_, varConstVal_, &applied);
}

OptimizedModel optimizeModel(const System& sys, const OptPins& pins,
                             int level) {
  OptimizedModel out;
  if (level <= 0) return out;

  const auto t0 = std::chrono::steady_clock::now();
  Ir ir = Ir::lower(sys, pins);
  PassStats st;
  for (int round = 0; round < kMaxRounds; ++round) {
    ++st.iterations;
    bool changed = passConstFold(ir, st);
    changed |= passRemoveNeverEnabledEdges(ir, st);
    changed |= passRemoveDeadLocations(ir, st);
    if (level >= 2) {
      changed |= passDropDeadStores(ir, pins, st);
      changed |= passUnifyClocks(ir, pins, st);
    }
    if (!changed) break;
  }

  if (st.any()) {
    out.changed_ = true;
    emitSystem(ir, out.sys_, out.clockMap_);
    out.locMap_ = ir.locOf;
    out.origins_.resize(ir.procs.size());
    for (size_t p = 0; p < ir.procs.size(); ++p) {
      out.origins_[p].reserve(ir.procs[p].edges.size());
      for (const IrEdge& e : ir.procs[p].edges) {
        out.origins_[p].push_back(e.origin);
      }
    }
    constVarsOf(ir, &out.varIsConst_, &out.varConstVal_);
  }
  st.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count();
  out.stats_ = st;
  return out;
}

}  // namespace ta
