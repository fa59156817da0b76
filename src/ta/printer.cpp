#include "ta/printer.hpp"

#include <string>

namespace ta {

namespace {

/// "pos[0]" -> "pos": array cells carry their index in the symbol
/// table; the surface syntax uses the bare array name.
std::string baseName(const std::string& cellName) {
  const size_t b = cellName.find('[');
  return b == std::string::npos ? cellName : cellName.substr(0, b);
}

class ExprPrinter {
 public:
  ExprPrinter(const System& sys) : sys_(sys) {}

  std::string print(ExprRef e) const {
    const ExprNode& n = sys_.pool().node(e);
    switch (n.op) {
      case Op::kConst:
        return n.a < 0 ? "(-" + std::to_string(-static_cast<int64_t>(n.a)) +
                             ")"
                       : std::to_string(n.a);
      case Op::kVar:
        if (n.b == kNoExpr) return sys_.varName(n.a);
        return baseName(sys_.varName(n.a)) + "[" + print(n.b) + "]";
      case Op::kAdd: return bin(n, " + ");
      case Op::kSub: return bin(n, " - ");
      case Op::kMul: return bin(n, " * ");
      case Op::kDiv: return bin(n, " / ");
      case Op::kMod: return bin(n, " % ");
      case Op::kNeg: return "(-" + print(n.a) + ")";
      case Op::kLt: return bin(n, " < ");
      case Op::kLe: return bin(n, " <= ");
      case Op::kEq: return bin(n, " == ");
      case Op::kNe: return bin(n, " != ");
      case Op::kGe: return bin(n, " >= ");
      case Op::kGt: return bin(n, " > ");
      case Op::kAnd: return bin(n, " && ");
      case Op::kOr: return bin(n, " || ");
      case Op::kNot: return "(!" + print(n.a) + ")";
      case Op::kIte:
        return "(" + print(n.a) + " ? " + print(n.b) + " : " + print(n.c) +
               ")";
      // No surface syntax; lower to the equivalent conditional.
      case Op::kMin:
        return "((" + print(n.a) + " < " + print(n.b) + ") ? " + print(n.a) +
               " : " + print(n.b) + ")";
      case Op::kMax:
        return "((" + print(n.a) + " > " + print(n.b) + ") ? " + print(n.a) +
               " : " + print(n.b) + ")";
    }
    return "0";
  }

 private:
  std::string bin(const ExprNode& n, const char* op) const {
    return "(" + print(n.a) + op + print(n.b) + ")";
  }

  const System& sys_;
};

}  // namespace

std::string printClockAtom(const System& sys, const ClockConstraint& cc) {
  const dbm::value_t v = dbm::boundValue(cc.bound);
  const bool strict = dbm::isStrict(cc.bound);
  if (cc.i == 0) {
    // 0 - x <bound> v  ==  x >(=) -v
    return sys.clockName(cc.j) + (strict ? " > " : " >= ") +
           std::to_string(-static_cast<int64_t>(v));
  }
  std::string lhs = sys.clockName(cc.i);
  if (cc.j != 0) lhs += " - " + sys.clockName(cc.j);
  return lhs + (strict ? " < " : " <= ") + std::to_string(v);
}

std::string printExpr(const System& sys, ExprRef e) {
  if (e == kNoExpr) return "true";  // an absent guard
  return ExprPrinter(sys).print(e);
}

std::string printModel(const System& sys,
                       const std::vector<ParsedQuery>& queries) {
  std::string out;
  const ExprPrinter ep(sys);

  for (ClockId c = 1; c <= static_cast<ClockId>(sys.numClocks()); ++c) {
    out += "clock " + sys.clockName(c) + ";\n";
  }

  // Scalars and arrays interleave in VarId order; walk the array table
  // alongside the flat cell list.
  const auto& arrays = sys.arrays();
  size_t nextArray = 0;
  for (VarId v = 0; v < static_cast<VarId>(sys.numVars());) {
    if (nextArray < arrays.size() && arrays[nextArray].first == v) {
      const int32_t size = arrays[nextArray].second;
      out += "int " + baseName(sys.varName(v)) + "[" +
             std::to_string(size) + "]";
      const int32_t init = sys.initialVars()[static_cast<size_t>(v)];
      if (init != 0) out += " = " + std::to_string(init);
      out += ";\n";
      v += size;
      ++nextArray;
      continue;
    }
    out += "int " + sys.varName(v);
    const int32_t init = sys.initialVars()[static_cast<size_t>(v)];
    if (init != 0) out += " = " + std::to_string(init);
    out += ";\n";
    ++v;
  }

  for (ChanId c = 0; c < static_cast<ChanId>(sys.numChannels()); ++c) {
    if (sys.channelKind(c) == ChanKind::kBroadcast) out += "broadcast ";
    out += "chan " + sys.channelName(c) + ";\n";
  }

  for (ProcId p = 0; p < static_cast<ProcId>(sys.numAutomata()); ++p) {
    const Automaton& a = sys.automaton(p);
    out += "\nprocess " + a.name() + " {\n";
    for (LocId l = 0; l < static_cast<LocId>(a.numLocations()); ++l) {
      const Location& loc = a.location(l);
      out += "  ";
      if (loc.urgent) out += "urgent ";
      if (loc.committed) out += "committed ";
      out += "loc " + loc.name;
      if (!loc.invariant.empty()) {
        out += " { inv ";
        for (size_t k = 0; k < loc.invariant.size(); ++k) {
          if (k != 0) out += " && ";
          out += printClockAtom(sys, loc.invariant[k]);
        }
        out += "; }";
      } else {
        out += ";";
      }
      out += "\n";
    }
    out += "  init " + a.location(a.initial()).name + ";\n";
    for (const Edge& e : a.edges()) {
      out += "  edge " + a.location(e.src).name + " -> " +
             a.location(e.dst).name + " {\n";
      if (!e.clockGuard.empty() || e.guard != kNoExpr) {
        out += "    guard ";
        bool first = true;
        for (const ClockConstraint& cc : e.clockGuard) {
          if (!first) out += " && ";
          out += printClockAtom(sys, cc);
          first = false;
        }
        if (e.guard != kNoExpr) {
          if (!first) out += " && ";
          out += ep.print(e.guard);
        }
        out += ";\n";
      }
      if (e.sync != Sync::kNone) {
        out += "    sync " + sys.channelName(e.chan) +
               (e.sync == Sync::kSend ? "!" : "?") + ";\n";
      }
      if (!e.resets.empty()) {
        out += "    reset ";
        for (size_t k = 0; k < e.resets.size(); ++k) {
          if (k != 0) out += ", ";
          out += sys.clockName(e.resets[k].clock);
          if (e.resets[k].value != 0) {
            out += " = " + std::to_string(e.resets[k].value);
          }
        }
        out += ";\n";
      }
      if (!e.assigns.empty()) {
        out += "    assign ";
        for (size_t k = 0; k < e.assigns.size(); ++k) {
          if (k != 0) out += ", ";
          const Assign& as = e.assigns[k];
          if (as.index == kNoExpr) {
            out += sys.varName(as.base);
          } else {
            out += baseName(sys.varName(as.base)) + "[" + ep.print(as.index) +
                   "]";
          }
          out += " = " + ep.print(as.rhs);
        }
        out += ";\n";
      }
      // Sync edges get the decorated channel name as their default
      // label; only deviations need an explicit statement.
      std::string defaultLabel;
      if (e.sync != Sync::kNone) {
        defaultLabel =
            sys.channelName(e.chan) + (e.sync == Sync::kSend ? "!" : "?");
      }
      if (!e.label.empty() && e.label != defaultLabel) {
        out += "    label \"" + e.label + "\";\n";
      }
      out += "  }\n";
    }
    out += "}\n";
  }

  for (const ParsedQuery& q : queries) {
    out += "\nquery reach";
    bool first = true;
    for (const auto& [proc, loc] : q.locations) {
      out += first ? " " : " && ";
      out += sys.automaton(proc).name() + "." +
             sys.automaton(proc).location(loc).name;
      first = false;
    }
    for (const ClockConstraint& cc : q.clockConstraints) {
      out += first ? " " : " && ";
      out += printClockAtom(sys, cc);
      first = false;
    }
    if (q.predicate != kNoExpr) {
      out += first ? " " : " && ";
      out += printExpr(sys, q.predicate);
      first = false;
    }
    out += ";\n";
  }
  return out;
}

}  // namespace ta
