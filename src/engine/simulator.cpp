#include "engine/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace engine {

namespace {

constexpr int64_t kUnbounded = std::numeric_limits<int64_t>::max() / 4;

/// Run the assignments of `parts` over `vars` in firing order (sender
/// first, each observing the earlier ones). False when one fails to
/// evaluate or writes out of range: that disables the transition, as
/// in the engine.
bool assignAll(const ta::System& sys, const std::vector<TransitionPart>& parts,
               std::vector<int32_t>& vars) {
  for (const TransitionPart& part : parts) {
    const ta::Edge& e =
        sys.automaton(part.proc).edges()[static_cast<size_t>(part.edge)];
    for (const ta::Assign& as : e.assigns) {
      bool ok = true;
      const int64_t rhs = sys.pool().eval(as.rhs, vars, &ok);
      int64_t idx = 0;
      if (as.index != ta::kNoExpr) idx = sys.pool().eval(as.index, vars, &ok);
      if (!ok || idx < 0 || idx >= as.arraySize) return false;
      vars[static_cast<size_t>(as.base + idx)] = static_cast<int32_t>(rhs);
    }
  }
  return true;
}

}  // namespace

Simulator::Simulator(const ta::System& sys)
    : sys_(sys),
      gen_(sys, opts_),
      vars_(sys.initialVars()),
      clocks_(sys.dbmDimension(), 0) {
  for (uint32_t c = 1; c < sys.dbmDimension(); ++c) {
    clocks_[c] = sys.initialClock(static_cast<ta::ClockId>(c));
  }
  locs_.reserve(sys.numAutomata());
  for (size_t p = 0; p < sys.numAutomata(); ++p) {
    locs_.push_back(sys.automaton(static_cast<ta::ProcId>(p)).initial());
  }
}

void Simulator::restore(const Snapshot& s) {
  locs_ = s.locs;
  vars_ = s.vars;
  clocks_ = s.clocks;
  now_ = s.now;
}

bool Simulator::delayAllowed(int64_t d) const {
  if (d < 0) return false;
  for (size_t p = 0; p < locs_.size(); ++p) {
    const ta::Location& l =
        sys_.automaton(static_cast<ta::ProcId>(p)).location(locs_[p]);
    if ((l.urgent || l.committed) && d > 0) return false;
    for (const ta::ClockConstraint& cc : l.invariant) {
      if (cc.i == 0 || cc.j != 0) continue;  // only upper bounds move
      const int64_t val = dbm::boundValue(cc.bound);
      const int64_t lhs = clocks_[static_cast<size_t>(cc.i)] + d;
      if (dbm::isStrict(cc.bound) ? lhs >= val : lhs > val) return false;
    }
  }
  return true;
}

std::optional<int64_t> Simulator::maxDelay() const {
  int64_t hi = kUnbounded;
  for (size_t p = 0; p < locs_.size(); ++p) {
    const ta::Location& l =
        sys_.automaton(static_cast<ta::ProcId>(p)).location(locs_[p]);
    if (l.urgent || l.committed) return 0;
    for (const ta::ClockConstraint& cc : l.invariant) {
      if (cc.i == 0 || cc.j != 0) continue;
      const int64_t val = dbm::boundValue(cc.bound);
      hi = std::min(hi, val - clocks_[static_cast<size_t>(cc.i)] -
                            (dbm::isStrict(cc.bound) ? 1 : 0));
    }
  }
  if (hi >= kUnbounded) return std::nullopt;
  return std::max<int64_t>(hi, 0);
}

std::vector<EnabledTransition> Simulator::enabled() const {
  std::vector<EnabledTransition> out;

  // Delay window [lo, hi] for a candidate's clock guards under the
  // current invariants; nullopt = infeasible.
  const auto window = [&](const std::vector<TransitionPart>& parts)
      -> std::optional<std::pair<int64_t, int64_t>> {
    int64_t lo = 0;
    int64_t hi = kUnbounded;
    if (const auto md = maxDelay(); md.has_value()) hi = *md;
    for (const TransitionPart& part : parts) {
      const ta::Edge& e =
          sys_.automaton(part.proc).edges()[static_cast<size_t>(part.edge)];
      if (!sys_.pool().evalBool(e.guard, vars_)) return std::nullopt;
      for (const ta::ClockConstraint& cc : e.clockGuard) {
        const int64_t val = dbm::boundValue(cc.bound);
        const bool strict = dbm::isStrict(cc.bound);
        if (cc.i != 0 && cc.j != 0) {
          const int64_t diff = clocks_[static_cast<size_t>(cc.i)] -
                               clocks_[static_cast<size_t>(cc.j)];
          if (strict ? diff >= val : diff > val) return std::nullopt;
        } else if (cc.j == 0) {
          hi = std::min(hi, val - clocks_[static_cast<size_t>(cc.i)] -
                                (strict ? 1 : 0));
        } else {
          lo = std::max(lo, -val - clocks_[static_cast<size_t>(cc.j)] +
                                (strict ? 1 : 0));
        }
      }
    }
    if (lo > hi) return std::nullopt;
    return std::make_pair(lo, hi);
  };

  const auto push = [&](std::vector<TransitionPart> parts) {
    const auto w = window(parts);
    if (!w.has_value()) return;
    std::vector<int32_t> vars = vars_;
    if (!assignAll(sys_, parts, vars)) return;
    EnabledTransition et;
    et.via.parts = std::move(parts);
    et.label = gen_.label(et.via);
    et.earliestDelay = w->first;
    if (w->second < kUnbounded) et.latestDelay = w->second;
    out.push_back(std::move(et));
  };

  bool anyCommitted = false;
  for (size_t p = 0; p < locs_.size(); ++p) {
    anyCommitted =
        anyCommitted ||
        sys_.automaton(static_cast<ta::ProcId>(p)).location(locs_[p]).committed;
  }
  const auto committedOk = [&](std::initializer_list<ta::ProcId> procs) {
    if (!anyCommitted) return true;
    for (const ta::ProcId p : procs) {
      if (sys_.automaton(p).location(locs_[static_cast<size_t>(p)]).committed)
        return true;
    }
    return false;
  };

  const auto numProcs = static_cast<ta::ProcId>(sys_.numAutomata());
  for (ta::ProcId p = 0; p < numProcs; ++p) {
    const ta::Automaton& a = sys_.automaton(p);
    for (int32_t ei : a.outgoing(locs_[static_cast<size_t>(p)])) {
      const ta::Edge& e = a.edges()[static_cast<size_t>(ei)];
      switch (e.sync) {
        case ta::Sync::kNone:
          if (committedOk({p})) push({{p, ei}});
          break;
        case ta::Sync::kSend:
          if (sys_.channelKind(e.chan) == ta::ChanKind::kBinary) {
            for (const auto& [q, ej] : sys_.receivers(e.chan)) {
              if (q == p) continue;
              const ta::Edge& r =
                  sys_.automaton(q).edges()[static_cast<size_t>(ej)];
              if (r.src != locs_[static_cast<size_t>(q)]) continue;
              if (committedOk({p, q})) push({{p, ei}, {q, ej}});
            }
          } else {
            std::vector<TransitionPart> parts{{p, ei}};
            for (const auto& [q, ej] : sys_.receivers(e.chan)) {
              if (q == p) continue;
              const ta::Edge& r =
                  sys_.automaton(q).edges()[static_cast<size_t>(ej)];
              if (r.src != locs_[static_cast<size_t>(q)]) continue;
              if (!sys_.pool().evalBool(r.guard, vars_)) continue;
              // First enabled receive per process (as in the engine).
              const bool already =
                  std::any_of(parts.begin() + 1, parts.end(),
                              [&, q = q](const TransitionPart& tp) {
                                return tp.proc == q;
                              });
              if (!already) parts.push_back({q, ej});
            }
            if (committedOk({p})) push(std::move(parts));
          }
          break;
        case ta::Sync::kReceive:
          break;
      }
    }
  }
  return out;
}

bool Simulator::delay(int64_t d) {
  if (d == 0) return true;
  if (!delayAllowed(d)) return false;
  history_.push_back(snapshot());
  for (size_t c = 1; c < clocks_.size(); ++c) clocks_[c] += d;
  now_ += d;
  return true;
}

void Simulator::applyParts(const Transition& via) {
  // enabled() listed `via` only if every assignment evaluates.
  [[maybe_unused]] const bool ok = assignAll(sys_, via.parts, vars_);
  assert(ok);
  for (const TransitionPart& part : via.parts) {
    const ta::Edge& e =
        sys_.automaton(part.proc).edges()[static_cast<size_t>(part.edge)];
    for (const ta::ClockReset& r : e.resets) {
      clocks_[static_cast<size_t>(r.clock)] = r.value;
    }
    locs_[static_cast<size_t>(part.proc)] = e.dst;
  }
}

bool Simulator::fire(size_t index) {
  const std::vector<EnabledTransition> opts = enabled();
  if (index >= opts.size()) return false;
  const EnabledTransition& et = opts[index];
  history_.push_back(snapshot());
  for (size_t c = 1; c < clocks_.size(); ++c) clocks_[c] += et.earliestDelay;
  now_ += et.earliestDelay;
  applyParts(et.via);
  return true;
}

bool Simulator::fireLabeled(const std::string& label) {
  const std::vector<EnabledTransition> opts = enabled();
  for (size_t i = 0; i < opts.size(); ++i) {
    if (opts[i].label == label) return fire(i);
  }
  return false;
}

bool Simulator::undo() {
  if (history_.empty()) return false;
  restore(history_.back());
  history_.pop_back();
  return true;
}

void Simulator::reset() {
  while (undo()) {
  }
}

std::string Simulator::describe() const {
  std::string out;
  for (size_t p = 0; p < locs_.size(); ++p) {
    const ta::Automaton& a = sys_.automaton(static_cast<ta::ProcId>(p));
    if (p > 0) out += " ";
    out += a.name() + "." + a.location(locs_[p]).name;
  }
  out += " |";
  for (size_t v = 0; v < vars_.size(); ++v) {
    out += " " + sys_.varName(static_cast<ta::VarId>(v)) + "=" +
           std::to_string(vars_[v]);
  }
  out += " |";
  for (uint32_t c = 1; c < sys_.dbmDimension(); ++c) {
    out += " " + sys_.clockName(static_cast<ta::ClockId>(c)) + "=" +
           std::to_string(clocks_[c]);
  }
  out += " @t=" + std::to_string(now_);
  return out;
}

}  // namespace engine
