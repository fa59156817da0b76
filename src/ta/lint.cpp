#include "ta/lint.hpp"

#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dbm/bound.hpp"
#include "ta/opt_passes.hpp"

namespace ta {

namespace {

/// Values at or above this in a clock constraint are flagged: boundAdd
/// sums two encoded bounds, so constants past half the encodable range
/// can overflow during zone arithmetic.
constexpr dbm::value_t kSafeBoundLimit = dbm::kMaxValue / 2;

Span at(const std::vector<Span>& v, size_t i) {
  return i < v.size() ? v[i] : Span{};
}

Span at2(const std::vector<std::vector<Span>>& v, size_t i, size_t j) {
  return i < v.size() && j < v[i].size() ? v[i][j] : Span{};
}

class Linter {
 public:
  Linter(const System& sys, const std::vector<ParsedQuery>& queries,
         const SourceMap& map, bool queriesKnown,
         std::vector<Diagnostic>* out)
      : sys_(sys), queries_(queries), map_(map), queriesKnown_(queriesKnown),
        out_(out) {}

  void run() {
    collectUsage();
    unusedDecls();
    reachability();
    edgeSatisfiability();
    urgencyMisuse();
    duplicateLabels();
    outOfRangeConstants();
    if (queriesKnown_ && queries_.empty()) {
      warn(DiagCode::kNoQuery, {1, 1, 0},
           "model declares no 'query' line; nothing to check");
    }
  }

 private:
  void warn(DiagCode code, Span span, std::string message,
            std::string note = {}) {
    out_->push_back(
        {Severity::kWarning, code, span, std::move(message), std::move(note)});
  }

  // -- usage collection ---------------------------------------------------

  void useClock(const ClockConstraint& cc) {
    if (cc.i != 0) clockUsed_.insert(cc.i);
    if (cc.j != 0) clockUsed_.insert(cc.j);
  }

  void useExpr(ExprRef e) {
    if (e == kNoExpr) return;
    const ExprNode& n = sys_.pool().node(e);
    switch (n.op) {
      case Op::kConst:
        return;
      case Op::kVar:
        if (n.b == kNoExpr) {
          varRead_.insert(n.a);
        } else {
          for (int32_t k = 0; k < n.c; ++k) varRead_.insert(n.a + k);
          useExpr(n.b);
        }
        return;
      case Op::kNeg:
      case Op::kNot:
        useExpr(n.a);
        return;
      case Op::kIte:
        useExpr(n.a);
        useExpr(n.b);
        useExpr(n.c);
        return;
      default:  // binary operators, min/max
        useExpr(n.a);
        useExpr(n.b);
        return;
    }
  }

  void collectUsage() {
    for (size_t p = 0; p < sys_.numAutomata(); ++p) {
      const Automaton& a = sys_.automaton(static_cast<ProcId>(p));
      for (size_t l = 0; l < a.numLocations(); ++l) {
        for (const ClockConstraint& cc :
             a.location(static_cast<LocId>(l)).invariant) {
          useClock(cc);
        }
      }
      for (const Edge& e : a.edges()) {
        for (const ClockConstraint& cc : e.clockGuard) useClock(cc);
        for (const ClockReset& r : e.resets) clockUsed_.insert(r.clock);
        useExpr(e.guard);
        if (e.chan >= 0) {
          (e.sync == Sync::kSend ? chanSent_ : chanReceived_).insert(e.chan);
        }
        for (const Assign& as : e.assigns) {
          useExpr(as.rhs);
          if (as.index == kNoExpr) {
            varWritten_.insert(as.base);
          } else {
            useExpr(as.index);
            for (int32_t k = 0; k < as.arraySize; ++k) {
              varWritten_.insert(as.base + k);
            }
          }
        }
      }
    }
    for (const ParsedQuery& q : queries_) {
      for (const ClockConstraint& cc : q.clockConstraints) useClock(cc);
      useExpr(q.predicate);
    }
  }

  // -- L001 / L002 / L003 -------------------------------------------------

  void unusedDecls() {
    for (ClockId c = 1; c <= static_cast<ClockId>(sys_.numClocks()); ++c) {
      if (clockUsed_.count(c) == 0) {
        warn(DiagCode::kUnusedClock,
             at(map_.clockDecls, static_cast<size_t>(c - 1)),
             "clock '" + sys_.clockName(c) + "' is never used");
      }
    }

    // Arrays report once for the whole cell range; a cell id is covered
    // when it belongs to some declared array.
    std::vector<bool> inArray(sys_.numVars(), false);
    for (const auto& [base, size] : sys_.arrays()) {
      bool read = false, written = false;
      for (int32_t k = 0; k < size; ++k) {
        read = read || varRead_.count(base + k) != 0;
        written = written || varWritten_.count(base + k) != 0;
        inArray[static_cast<size_t>(base + k)] = true;
      }
      std::string name = sys_.varName(base);
      if (const size_t bracket = name.find('['); bracket != std::string::npos) {
        name.resize(bracket);
      }
      reportVarUsage(name, base, read, written);
    }
    for (VarId v = 0; v < static_cast<VarId>(sys_.numVars()); ++v) {
      if (inArray[static_cast<size_t>(v)]) continue;
      reportVarUsage(sys_.varName(v), v, varRead_.count(v) != 0,
                     varWritten_.count(v) != 0);
    }

    for (ChanId c = 0; c < static_cast<ChanId>(sys_.numChannels()); ++c) {
      const bool sent = chanSent_.count(c) != 0;
      const bool received = chanReceived_.count(c) != 0;
      const Span s = at(map_.chanDecls, static_cast<size_t>(c));
      const std::string name = "channel '" + sys_.channelName(c) + "'";
      if (!sent && !received) {
        warn(DiagCode::kUnusedChannel, s, name + " is never used");
      } else if (sent && !received &&
                 sys_.channelKind(c) == ChanKind::kBinary) {
        // A broadcast send with no receivers fires alone; a binary send
        // can never synchronize.
        warn(DiagCode::kUnusedChannel, s,
             name + " is sent on but never received; its send edges can "
                    "never fire");
      } else if (received && !sent) {
        warn(DiagCode::kUnusedChannel, s,
             name + " is received on but never sent; its receive edges can "
                    "never fire");
      }
    }
  }

  void reportVarUsage(const std::string& name, VarId v, bool read,
                      bool written) {
    const Span s = at(map_.varDecls, static_cast<size_t>(v));
    if (!read && !written) {
      warn(DiagCode::kUnusedVar, s, "variable '" + name + "' is never used");
    } else if (written && !read) {
      warn(DiagCode::kUnusedVar, s,
           "variable '" + name + "' is assigned but never read");
    }
  }

  // -- L004 ---------------------------------------------------------------

  void reachability() {
    // Same analysis the optimizer's dead-location pass runs: L004 warns
    // exactly where passRemoveDeadLocations would cut.
    for (size_t p = 0; p < sys_.numAutomata(); ++p) {
      const Automaton& a = sys_.automaton(static_cast<ProcId>(p));
      if (a.numLocations() == 0) continue;
      std::vector<std::pair<LocId, LocId>> pairs;
      pairs.reserve(a.edges().size());
      for (const Edge& e : a.edges()) pairs.push_back({e.src, e.dst});
      const std::vector<bool> seen =
          reachableLocations(a.numLocations(), a.initial(), pairs);
      for (size_t l = 0; l < a.numLocations(); ++l) {
        if (!seen[l]) {
          warn(DiagCode::kUnreachableLocation, at2(map_.locDecls, p, l),
               "location '" + a.name() + "." +
                   a.location(static_cast<LocId>(l)).name +
                   "' is unreachable from the initial location");
        }
      }
    }
  }

  // -- L005 / L006 --------------------------------------------------------

  void edgeSatisfiability() {
    // Shared with passRemoveNeverEnabledEdges: the classification below
    // is the one the optimizer removes on, so detector and remover
    // cannot diverge.
    for (size_t p = 0; p < sys_.numAutomata(); ++p) {
      const Automaton& a = sys_.automaton(static_cast<ProcId>(p));
      for (size_t ei = 0; ei < a.edges().size(); ++ei) {
        const Edge& e = a.edges()[ei];
        const Span span = at2(map_.edgeDecls, p, ei);
        const std::string where = "edge '" + a.location(e.src).name + " -> " +
                                  a.location(e.dst).name + "' in process '" +
                                  a.name() + "'";
        switch (classifyEdgeViability(sys_.pool(), e.guard, e.clockGuard,
                                      a.location(e.src).invariant)) {
          case EdgeViability::kViable:
            break;
          case EdgeViability::kConstFalseGuard:
            warn(DiagCode::kNeverEnabledEdge, span,
                 where + " is never enabled: its guard is constant false");
            break;
          case EdgeViability::kClockGuardUnsat:
            warn(DiagCode::kNeverEnabledEdge, span,
                 where + " is never enabled: its clock guard is unsatisfiable");
            break;
          case EdgeViability::kGuardContradictsInvariant:
            warn(DiagCode::kGuardContradictsInvariant, span,
                 "guard on " + where + " contradicts the invariant of '" +
                     a.location(e.src).name + "'",
                 "the conjunction of the guard and the source invariant is "
                 "empty, so the edge can never fire");
            break;
        }
      }
    }
  }

  // -- L007 ---------------------------------------------------------------

  void urgencyMisuse() {
    for (size_t p = 0; p < sys_.numAutomata(); ++p) {
      const Automaton& a = sys_.automaton(static_cast<ProcId>(p));
      for (size_t l = 0; l < a.numLocations(); ++l) {
        const Location& loc = a.location(static_cast<LocId>(l));
        if (!loc.urgent && !loc.committed) continue;
        const char* kind = loc.committed ? "committed" : "urgent";
        const Span span = at2(map_.locDecls, p, l);
        if (!loc.invariant.empty()) {
          warn(DiagCode::kSuspiciousUrgency, span,
               std::string("invariant on ") + kind + " location '" + a.name() +
                   "." + loc.name + "' is suspicious: time cannot elapse here",
               "did you mean a guard on the outgoing edges?");
        }
        bool hasOutgoing = false;
        for (const Edge& e : a.edges()) {
          if (e.src == static_cast<LocId>(l)) {
            hasOutgoing = true;
            break;
          }
        }
        if (!hasOutgoing) {
          warn(DiagCode::kSuspiciousUrgency, span,
               std::string(kind) + " location '" + a.name() + "." + loc.name +
                   "' has no outgoing edge: the system deadlocks on entry");
        }
      }
    }
  }

  // -- L008 ---------------------------------------------------------------

  void duplicateLabels() {
    std::map<std::pair<ProcId, std::string>, Span> first;
    for (const SourceMap::ExplicitLabel& l : map_.labels) {
      const auto [it, fresh] = first.insert({{l.proc, l.text}, l.span});
      if (!fresh) {
        warn(DiagCode::kDuplicateLabel, l.span,
             "duplicate edge label \"" + l.text + "\" in process '" +
                 sys_.automaton(l.proc).name() + "'",
             "first used at line " + std::to_string(it->second.line));
      }
    }
  }

  // -- L009 ---------------------------------------------------------------

  void checkBound(const ClockConstraint& cc, Span span) {
    const dbm::value_t v = dbm::boundValue(cc.bound);
    if (std::abs(static_cast<long>(v)) >= kSafeBoundLimit) {
      warn(DiagCode::kConstantOutOfRange, span,
           "clock bound " + std::to_string(v) +
               " risks overflow in zone arithmetic (safe limit " +
               std::to_string(kSafeBoundLimit) + ")");
    }
  }

  void checkConstIndexes(ExprRef e, Span span) {
    if (e == kNoExpr) return;
    const ExprNode& n = sys_.pool().node(e);
    switch (n.op) {
      case Op::kConst:
        return;
      case Op::kVar:
        if (n.b != kNoExpr) {
          const ExprNode& idx = sys_.pool().node(n.b);
          if (idx.op == Op::kConst && (idx.a < 0 || idx.a >= n.c)) {
            std::string name = sys_.varName(n.a);
            if (const size_t b = name.find('['); b != std::string::npos) {
              name.resize(b);
            }
            warn(DiagCode::kConstantOutOfRange, span,
                 "constant index " + std::to_string(idx.a) +
                     " is out of bounds for array '" + name + "' of size " +
                     std::to_string(n.c));
          }
          checkConstIndexes(n.b, span);
        }
        return;
      case Op::kNeg:
      case Op::kNot:
        checkConstIndexes(n.a, span);
        return;
      case Op::kIte:
        checkConstIndexes(n.a, span);
        checkConstIndexes(n.b, span);
        checkConstIndexes(n.c, span);
        return;
      default:
        checkConstIndexes(n.a, span);
        checkConstIndexes(n.b, span);
        return;
    }
  }

  void outOfRangeConstants() {
    for (size_t p = 0; p < sys_.numAutomata(); ++p) {
      const Automaton& a = sys_.automaton(static_cast<ProcId>(p));
      for (size_t l = 0; l < a.numLocations(); ++l) {
        for (const ClockConstraint& cc :
             a.location(static_cast<LocId>(l)).invariant) {
          checkBound(cc, at2(map_.locDecls, p, l));
        }
      }
      for (size_t ei = 0; ei < a.edges().size(); ++ei) {
        const Edge& e = a.edges()[ei];
        const Span span = at2(map_.edgeDecls, p, ei);
        for (const ClockConstraint& cc : e.clockGuard) checkBound(cc, span);
        checkConstIndexes(e.guard, span);
        for (const Assign& as : e.assigns) {
          checkConstIndexes(as.rhs, span);
          if (as.index != kNoExpr) {
            const ExprNode& idx = sys_.pool().node(as.index);
            if (idx.op == Op::kConst &&
                (idx.a < 0 || idx.a >= as.arraySize)) {
              std::string name = sys_.varName(as.base);
              if (const size_t b = name.find('['); b != std::string::npos) {
                name.resize(b);
              }
              warn(DiagCode::kConstantOutOfRange, span,
                   "constant index " + std::to_string(idx.a) +
                       " is out of bounds for array '" + name + "' of size " +
                       std::to_string(as.arraySize));
            }
            checkConstIndexes(as.index, span);
          }
        }
      }
    }
    for (size_t qi = 0; qi < queries_.size(); ++qi) {
      const Span span = at(map_.queryDecls, qi);
      for (const ClockConstraint& cc : queries_[qi].clockConstraints) {
        checkBound(cc, span);
      }
      checkConstIndexes(queries_[qi].predicate, span);
    }
  }

  const System& sys_;
  const std::vector<ParsedQuery>& queries_;
  const SourceMap& map_;
  const bool queriesKnown_;
  std::vector<Diagnostic>* out_;

  std::set<ClockId> clockUsed_;
  std::set<VarId> varRead_;
  std::set<VarId> varWritten_;
  std::set<ChanId> chanSent_;
  std::set<ChanId> chanReceived_;
};

}  // namespace

void runLints(const System& sys, const std::vector<ParsedQuery>& queries,
              const SourceMap& map, std::vector<Diagnostic>* out) {
  Linter(sys, queries, map, /*queriesKnown=*/true, out).run();
}

void runLints(const System& sys, std::vector<Diagnostic>* out) {
  static const std::vector<ParsedQuery> kNoQueries;
  static const SourceMap kNoMap;
  Linter(sys, kNoQueries, kNoMap, /*queriesKnown=*/false, out).run();
}

}  // namespace ta
