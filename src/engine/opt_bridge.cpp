#include "engine/opt_bridge.hpp"

#include <cstdint>

namespace engine::opt_bridge {

ta::OptimizedModel optimizeForGoal(
    const ta::System& sys, const Goal& goal, int optLevel,
    const std::vector<std::pair<ta::ProcId, ta::LocId>>&
        extraPinnedLocations) {
  // Lifted mid-run starts (System::setClockInit) are exempt from the
  // pass pipeline: dead-location elimination and clock unification
  // reason from the zero-origin initial state, which no longer exists.
  // Returning the unchanged model keeps every engine on the original
  // system, exactly as at optLevel 0.
  if (sys.hasNonzeroClockInit()) return {};

  ta::OptPins pins;
  pins.locations = goal.locations;
  pins.locations.insert(pins.locations.end(), extraPinnedLocations.begin(),
                        extraPinnedLocations.end());
  pins.clockConstraints = goal.clockConstraints;
  if (goal.predicate != ta::kNoExpr) {
    std::vector<uint8_t> read(sys.numVars(), 0);
    ta::collectExprReads(sys.pool(), goal.predicate, read);
    for (ta::VarId v = 0; v < static_cast<ta::VarId>(read.size()); ++v) {
      if (read[static_cast<size_t>(v)] != 0) pins.vars.push_back(v);
    }
  }
  return ta::optimizeModel(sys, pins, optLevel);
}

Goal mapGoal(const ta::System& orig, const Goal& goal,
             ta::OptimizedModel& model) {
  Goal g;
  g.deadlock = goal.deadlock;
  g.locations.reserve(goal.locations.size());
  for (const auto& [p, l] : goal.locations) {
    g.locations.push_back({p, model.mapLoc(p, l)});
  }
  g.predicate = model.mapExpr(orig.pool(), goal.predicate);
  g.clockConstraints.reserve(goal.clockConstraints.size());
  for (const ta::ClockConstraint& cc : goal.clockConstraints) {
    g.clockConstraints.push_back(model.mapConstraint(cc));
  }
  return g;
}

SymbolicTrace backMapTrace(const ta::System& orig,
                           const ta::OptimizedModel& model,
                           const SymbolicTrace& opt) {
  SymbolicTrace out;
  if (opt.steps.empty()) return out;

  DiscreteState cur;
  cur.vars = orig.initialVars();
  cur.locs.reserve(orig.numAutomata());
  for (size_t p = 0; p < orig.numAutomata(); ++p) {
    cur.locs.push_back(orig.automaton(static_cast<ta::ProcId>(p)).initial());
  }
  out.steps.push_back(TraceStep{Transition{}, cur});

  for (size_t k = 1; k < opt.steps.size(); ++k) {
    Transition via;
    for (const TransitionPart& part : opt.steps[k].via.parts) {
      via.parts.push_back({part.proc, model.originOf(part.proc, part.edge)});
    }
    // Effects in the engine's (and validator's) order — per part:
    // assignments observing earlier ones, then the location move.
    for (const TransitionPart& part : via.parts) {
      const ta::Edge& e =
          orig.automaton(part.proc).edges()[static_cast<size_t>(part.edge)];
      for (const ta::Assign& as : e.assigns) {
        bool ok = true;
        const int64_t rhs = orig.pool().eval(as.rhs, cur.vars, &ok);
        int64_t idx = 0;
        if (as.index != ta::kNoExpr) {
          idx = orig.pool().eval(as.index, cur.vars, &ok);
        }
        // Skipped only under an unsound pass: the engine fired this
        // transition on the optimized system, so it evaluates here too.
        if (!ok || idx < 0 || idx >= as.arraySize) continue;
        cur.vars[static_cast<size_t>(as.base + idx)] =
            static_cast<int32_t>(rhs);
      }
      cur.locs[static_cast<size_t>(part.proc)] = e.dst;
    }
    out.steps.push_back(TraceStep{std::move(via), cur});
  }
  return out;
}

void mergePassStats(Stats& st, const ta::PassStats& ps) {
  st.foldedExprs += ps.foldedExprs;
  st.removedLocations += ps.removedLocations;
  st.removedEdges += ps.removedEdges;
  st.elidedVars += ps.elidedVars;
  st.unifiedClocks += ps.unifiedClocks;
  st.optSeconds += ps.seconds;
}

}  // namespace engine::opt_bridge
