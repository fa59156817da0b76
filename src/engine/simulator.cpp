#include "engine/simulator.hpp"

#include <algorithm>

#include "engine/successors.hpp"
#include "ta/printer.hpp"

namespace engine {

namespace {

/// Report a failed check: the message is built only if someone reads it.
template <class Msg>
bool fail(std::string* why, Msg&& msg) {
  if (why != nullptr) *why = msg();
  return false;
}

std::string locName(const ta::System& sys, ta::ProcId p, ta::LocId l) {
  const ta::Automaton& a = sys.automaton(p);
  return a.name() + "." + a.location(l).name;
}

std::string edgeName(const ta::System& sys, const TransitionPart& part) {
  return label(sys, Transition{{part}});
}

const ta::Edge& edgeOf(const ta::System& sys, const TransitionPart& part) {
  return sys.automaton(part.proc).edges()[static_cast<size_t>(part.edge)];
}

}  // namespace

Simulator::Simulator(const ta::System& sys)
    : sys_(sys),
      vars_(sys.initialVars()),
      clocks_(sys.dbmDimension(), 0),
      allMove_(sys.dbmDimension(), 1) {
  allMove_[0] = 0;
  for (uint32_t c = 1; c < sys.dbmDimension(); ++c) {
    clocks_[c] = sys.initialClock(static_cast<ta::ClockId>(c));
  }
  locs_.reserve(sys.numAutomata());
  for (size_t p = 0; p < sys.numAutomata(); ++p) {
    const ta::Automaton& a = sys.automaton(static_cast<ta::ProcId>(p));
    locs_.push_back(a.initial());
    committed_ += a.location(a.initial()).committed ? 1 : 0;
  }
}

void Simulator::narrow(Window& w, const ta::ClockConstraint& cc,
                       const std::vector<int64_t>& at,
                       const std::vector<char>& moves) {
  // Over integers, x_i - x_j < c is x_i - x_j <= c - 1. With x = at + d
  // on the moving clocks: (at_i - at_j) + (moves_i - moves_j) d <= bound.
  const auto i = static_cast<size_t>(cc.i);
  const auto j = static_cast<size_t>(cc.j);
  const int64_t slack = dbm::boundValue(cc.bound) -
                        (dbm::isStrict(cc.bound) ? 1 : 0) - (at[i] - at[j]);
  switch (moves[i] - moves[j]) {
    case 1:
      w.hi = std::min(w.hi, slack);
      break;
    case -1:
      w.lo = std::max(w.lo, -slack);
      break;
    default:  // holds after every delay or after none
      if (slack < 0) w.hi = w.lo - 1;
      break;
  }
}

bool Simulator::narrowByInvariants(Window& w, std::string* why) const {
  for (size_t p = 0; p < locs_.size(); ++p) {
    const auto proc = static_cast<ta::ProcId>(p);
    const ta::Location& l = sys_.automaton(proc).location(locs_[p]);
    if (l.urgent || l.committed) {
      w.hi = std::min<int64_t>(w.hi, 0);
      if (w.lo > w.hi) {
        return fail(why, [&] {
          return std::string("no delay in ") +
                 (l.urgent ? "urgent" : "committed") + " location " +
                 locName(sys_, proc, locs_[p]) + " at t=" +
                 std::to_string(now_);
        });
      }
    }
    for (const ta::ClockConstraint& cc : l.invariant) {
      narrow(w, cc, clocks_, allMove_);
      if (w.lo > w.hi) {
        return fail(why, [&] {
          return "invariant " + ta::printClockAtom(sys_, cc) + " of " +
                 locName(sys_, proc, locs_[p]) +
                 " forbids the delay at t=" + std::to_string(now_);
        });
      }
    }
  }
  return true;
}

bool Simulator::offers(const Transition& via, std::string* why) const {
  if (via.parts.empty()) {
    return fail(why, [] { return std::string("empty transition"); });
  }
  const TransitionPart& lead = via.parts.front();
  if (lead.proc < 0 || static_cast<size_t>(lead.proc) >= sys_.numAutomata() ||
      lead.edge < 0 ||
      static_cast<size_t>(lead.edge) >=
          sys_.automaton(lead.proc).edges().size()) {
    return fail(why, [] { return std::string("no such edge"); });
  }
  const ta::LocId at = locs_[static_cast<size_t>(lead.proc)];
  if (edgeOf(sys_, lead).src != at) {
    return fail(why, [&] {
      return "edge '" + edgeName(sys_, lead) + "' does not leave " +
             locName(sys_, lead.proc, at) + " at t=" + std::to_string(now_);
    });
  }
  bool found = false;
  forEachTransitionLedBy(sys_, locs_, vars_, committed_ > 0, lead.proc,
                         lead.edge, next_.parts,
                         [&](const std::vector<TransitionPart>& parts) {
                           found = found || parts == via.parts;
                         });
  if (found) return true;
  return fail(why, [&] {
    return "edge '" + edgeName(sys_, lead) + "' leads no transition with " +
           std::to_string(via.parts.size()) + " part(s) like this at t=" +
           std::to_string(now_) +
           (committed_ > 0 ? " (a committed location has priority)" : "");
  });
}

bool Simulator::admit(const std::vector<TransitionPart>& parts, Window& w,
                      std::string* why) const {
  // Time of firing, for messages: fire() passes the single delay.
  const auto at = [&] { return " at t=" + std::to_string(now_ + w.lo); };
  for (const TransitionPart& part : parts) {
    for (const ta::ClockConstraint& cc : edgeOf(sys_, part).clockGuard) {
      narrow(w, cc, clocks_, allMove_);
      if (w.lo > w.hi) {
        return fail(why, [&] {
          return "clock guard " + ta::printClockAtom(sys_, cc) +
                 " of edge '" + edgeName(sys_, part) +
                 "' false after the delay from t=" + std::to_string(now_);
        });
      }
    }
  }
  // Integer guards read the pre-state valuation; a guard that fails to
  // evaluate is false.
  for (const TransitionPart& part : parts) {
    if (!sys_.pool().evalBool(edgeOf(sys_, part).guard, vars_)) {
      return fail(why, [&] {
        return "integer guard of edge '" + edgeName(sys_, part) + "' false" +
               at();
      });
    }
  }
  // Assignments, leading edge first, each observing the earlier ones.
  next_.vars = vars_;
  for (const TransitionPart& part : parts) {
    for (const ta::Assign& as : edgeOf(sys_, part).assigns) {
      bool ok = true;
      const int64_t rhs = sys_.pool().eval(as.rhs, next_.vars, &ok);
      int64_t idx = 0;
      if (as.index != ta::kNoExpr) {
        idx = sys_.pool().eval(as.index, next_.vars, &ok);
      }
      if (!ok) {
        return fail(why, [&] {
          return "assignment of edge '" + edgeName(sys_, part) +
                 "' fails to evaluate" + at();
        });
      }
      if (idx < 0 || idx >= as.arraySize) {
        return fail(why, [&] {
          return "assignment index out of bounds on edge '" +
                 edgeName(sys_, part) + "'" + at();
        });
      }
      next_.vars[static_cast<size_t>(as.base + idx)] =
          static_cast<int32_t>(rhs);
    }
  }
  // Target invariants, with each reset clock held at its reset value.
  next_.locs = locs_;
  next_.clocks = clocks_;
  next_.moves = allMove_;
  for (const TransitionPart& part : parts) {
    const ta::Edge& e = edgeOf(sys_, part);
    for (const ta::ClockReset& r : e.resets) {
      next_.clocks[static_cast<size_t>(r.clock)] = r.value;
      next_.moves[static_cast<size_t>(r.clock)] = 0;
    }
    next_.locs[static_cast<size_t>(part.proc)] = e.dst;
  }
  for (size_t p = 0; p < next_.locs.size(); ++p) {
    const auto proc = static_cast<ta::ProcId>(p);
    for (const ta::ClockConstraint& cc :
         sys_.automaton(proc).location(next_.locs[p]).invariant) {
      narrow(w, cc, next_.clocks, next_.moves);
      if (w.lo > w.hi) {
        return fail(why, [&] {
          return "invariant " + ta::printClockAtom(sys_, cc) +
                 " violated entering " + locName(sys_, proc, next_.locs[p]) +
                 " from t=" + std::to_string(now_);
        });
      }
    }
  }
  return true;
}

std::vector<EnabledTransition> Simulator::enabled() const {
  std::vector<EnabledTransition> out;
  Window inv;
  if (!narrowByInvariants(inv, nullptr)) return out;
  forEachTransition(sys_, locs_, vars_, next_.parts,
                    [&](const std::vector<TransitionPart>& parts) {
                      Window w = inv;
                      if (!admit(parts, w, nullptr)) return;
                      EnabledTransition et;
                      et.via.parts = parts;
                      et.label = label(sys_, et.via);
                      et.earliestDelay = w.lo;
                      if (w.hi < kUnbounded) et.latestDelay = w.hi;
                      out.push_back(std::move(et));
                    });
  return out;
}

std::optional<int64_t> Simulator::maxDelay() const {
  Window w;
  if (!narrowByInvariants(w, nullptr)) return 0;
  if (w.hi >= kUnbounded) return std::nullopt;
  return w.hi;
}

bool Simulator::delay(int64_t d) {
  Window w{d, d};
  if (d < 0 || !narrowByInvariants(w, nullptr)) return false;
  for (size_t c = 1; c < clocks_.size(); ++c) clocks_[c] += d;
  now_ += d;
  return true;
}

bool Simulator::fire(const Transition& via, int64_t delay, std::string* why) {
  if (!offers(via, why)) return false;
  if (delay < 0) {
    return fail(why, [&] { return "negative delay " + std::to_string(delay); });
  }
  Window w{delay, delay};
  if (!narrowByInvariants(w, why) || !admit(via.parts, w, why)) return false;
  for (size_t c = 1; c < clocks_.size(); ++c) clocks_[c] += delay;
  for (const TransitionPart& part : via.parts) {
    for (const ta::ClockReset& r : edgeOf(sys_, part).resets) {
      clocks_[static_cast<size_t>(r.clock)] = r.value;
    }
    const ta::Automaton& a = sys_.automaton(part.proc);
    const auto p = static_cast<size_t>(part.proc);
    committed_ += (a.location(next_.locs[p]).committed ? 1 : 0) -
                  (a.location(locs_[p]).committed ? 1 : 0);
  }
  locs_.swap(next_.locs);
  vars_.swap(next_.vars);
  now_ += delay;
  return true;
}

bool Simulator::fire(size_t index) {
  const std::vector<EnabledTransition> opts = enabled();
  if (index >= opts.size()) return false;
  return fire(opts[index].via, opts[index].earliestDelay);
}

bool Simulator::fireLabeled(const std::string& label) {
  const std::vector<EnabledTransition> opts = enabled();
  for (const EnabledTransition& et : opts) {
    if (et.label == label) return fire(et.via, et.earliestDelay);
  }
  return false;
}

std::string Simulator::describe() const {
  std::string out;
  for (size_t p = 0; p < locs_.size(); ++p) {
    if (p > 0) out += " ";
    out += locName(sys_, static_cast<ta::ProcId>(p), locs_[p]);
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
