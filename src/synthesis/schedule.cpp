#include "synthesis/schedule.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "engine/best_first.hpp"

namespace synthesis {

std::string Schedule::toText() const {
  std::ostringstream os;
  int64_t now = 0;
  for (const ScheduleItem& item : items) {
    if (item.time > now) {
      os << "Delay(" << (item.time - now) << ")\n";
      now = item.time;
    }
    os << item.text() << "\n";
  }
  return os.str();
}

Schedule project(const ta::System& sys, const engine::ConcreteTrace& trace) {
  Schedule out;
  for (const engine::ConcreteStep& step : trace.steps) {
    for (const engine::TransitionPart& part : step.via.parts) {
      const ta::Edge& e =
          sys.automaton(part.proc).edges()[static_cast<size_t>(part.edge)];
      // Plant commands are the labels of the form "Unit.Command"; the
      // model's internal synchronizations carry other labels (or none)
      // and are projected away — "Some of the synchronizations are not
      // relevant for the scheduling" (paper §6).
      const size_t dot = e.label.find('.');
      if (dot == std::string::npos || dot == 0 ||
          dot + 1 == e.label.size()) {
        continue;
      }
      out.items.push_back(ScheduleItem{
          step.timestamp, e.label.substr(0, dot), e.label.substr(dot + 1)});
    }
  }
  out.makespan = trace.makespan();
  return out;
}

bool parseOptimizer(const std::string& s, Optimizer* out) {
  if (s == "binary") {
    *out = Optimizer::kBinary;
    return true;
  }
  if (s == "bestfirst") {
    *out = Optimizer::kBestFirst;
    return true;
  }
  return false;
}

namespace {

/// Concretize + project, tolerating failure (an engine bug would be the
/// only cause; the caller surfaces the empty schedule).
bool makeSchedule(const ta::System& sys, const engine::SymbolicTrace& trace,
                  Schedule* out, int64_t* makespan) {
  const auto ct = engine::concretize(sys, trace);
  if (!ct.has_value()) return false;
  *out = project(sys, *ct);
  *makespan = ct->makespan();
  return true;
}

}  // namespace

OptimizeResult optimizeMakespan(const ta::System& sys,
                                const engine::Goal& goal,
                                ta::ClockId makespanClock,
                                const OptimizeOptions& opts) {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  OptimizeResult out;

  // First-found bootstrap: any schedule at all, as fast as possible.
  engine::Reachability first(sys, opts.engine);
  const engine::Result res0 = first.run(goal);
  if (!res0.reachable) {
    out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    return out;
  }
  out.feasible = true;
  Schedule firstSchedule;
  if (!makeSchedule(sys, res0.trace, &firstSchedule, &out.firstMakespan)) {
    out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    return out;
  }
  out.incumbents.push_back(out.firstMakespan);

  if (opts.optimizer == Optimizer::kBinary) {
    int64_t lo = 0;
    int64_t hi = out.firstMakespan;
    engine::SymbolicTrace best = res0.trace;
    while (lo < hi) {
      const int64_t mid = lo + (hi - lo) / 2;
      engine::Goal probe = goal;
      probe.clockConstraints.push_back(
          ta::ccLe(makespanClock, static_cast<dbm::value_t>(mid)));
      engine::Reachability checker(sys, opts.engine);
      const engine::Result res = checker.run(probe);
      ++out.runs;
      out.stats.statesExplored += res.stats.statesExplored;
      out.stats.statesGenerated += res.stats.statesGenerated;
      out.stats.seconds += res.stats.seconds;
      out.stats.peakBytes = std::max(out.stats.peakBytes, res.stats.peakBytes);
      // The first probe cut-off is kept; any one voids the optimum.
      if (out.stats.cutoff == engine::Cutoff::kNone) {
        out.stats.cutoff = res.stats.cutoff;
      }
      if (res.reachable) {
        hi = mid;
        best = res.trace;
        out.incumbents.push_back(mid);
      } else {
        lo = mid + 1;
      }
    }
    // The last feasible probe ran at bound == final hi == lo, so the
    // greedy-earliest concretization of its trace lands exactly on the
    // optimum.
    out.optimalMakespan = lo;
    out.cost = lo;
    out.optimal = out.stats.cutoff == engine::Cutoff::kNone;
    int64_t concrete = 0;
    if (makeSchedule(sys, best, &out.schedule, &concrete)) {
      out.optimalMakespan = concrete;
      out.cost = concrete;
    }
  } else {
    engine::BestFirst bf(sys, opts.engine, makespanClock);
    // A plain makespan is only an upper bound on the cost when no
    // penalties inflate it.
    if (opts.engine.softGuides.empty()) {
      bf.setInitialIncumbent(out.firstMakespan);
    }
    if (!opts.heuristicTargets.empty()) {
      bf.setHeuristicTargets(opts.heuristicTargets);
    }
    engine::BestFirstResult res = bf.run(goal);
    out.runs = 1;
    out.stats = res.stats;
    out.optimal = res.optimal;
    out.incumbents.insert(out.incumbents.end(),
                          res.stats.incumbentCosts.begin(),
                          res.stats.incumbentCosts.end());
    if (res.reachable) {
      out.cost = res.cost;
      if (!makeSchedule(sys, res.trace, &out.schedule,
                        &out.optimalMakespan)) {
        out.optimalMakespan = res.cost;
      }
    } else {
      // Strictly-cheaper search came up empty: the bootstrap schedule
      // is the optimum (proven when the run wasn't cut off).
      out.cost = out.firstMakespan;
      out.optimalMakespan = out.firstMakespan;
      out.schedule = std::move(firstSchedule);
    }
  }

  out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return out;
}

}  // namespace synthesis
