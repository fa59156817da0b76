#include "ta/parser.hpp"

#include <map>
#include <string>
#include <utility>

#include "ta/lexer.hpp"
#include "ta/lint.hpp"

namespace ta {

namespace {

/// Thrown to abort the construct being parsed after a diagnostic has
/// been emitted; the enclosing loop synchronizes to the next
/// declaration / process-item / edge-item boundary and keeps going.
struct Recover {};

/// Thrown when the error cap is hit; aborts the whole parse.
struct FatalStop {};

constexpr int kMaxExprDepth = 200;

bool isDeclKeyword(const std::string& s) {
  return s == "clock" || s == "int" || s == "chan" || s == "broadcast" ||
         s == "process" || s == "query";
}

bool isProcessItemKeyword(const std::string& s) {
  return s == "loc" || s == "init" || s == "edge" || s == "urgent" ||
         s == "committed";
}

class Parser {
 public:
  Parser(const std::string& text, const FrontendOptions& opts,
         FrontendResult* out)
      : lex_(text, &out->diagnostics), opts_(opts), out_(out) {}

  void run() {
    try {
      while (lex_.peek().kind != Tok::kEnd) {
        try {
          parseTopLevel();
        } catch (const Recover&) {
          syncTopLevel();
        }
      }
    } catch (const FatalStop&) {
      // Error cap hit; whatever was parsed so far stands.
    }
  }

 private:
  [[nodiscard]] System& sys() { return *out_->system; }
  [[nodiscard]] SourceMap& map() { return out_->sourceMap; }

  // -- Diagnostics --------------------------------------------------------

  void error(Span span, DiagCode code, std::string message,
             std::string note = {}) {
    if (errors_ >= opts_.maxErrors) {
      out_->diagnostics.push_back(
          {Severity::kError, DiagCode::kTooManyErrors, span,
           "too many errors (" + std::to_string(errors_) + "); giving up",
           {}});
      throw FatalStop{};
    }
    ++errors_;
    out_->diagnostics.push_back({Severity::kError, code, span,
                                 std::move(message), std::move(note)});
  }

  // -- Token helpers ------------------------------------------------------

  /// Consume a token of the given kind. On mismatch: report the
  /// *offending* token's exact span, leave it unconsumed (the sync
  /// routines decide what to skip), and unwind to the nearest recovery
  /// point.
  Token expect(Tok kind, const char* what) {
    if (lex_.peek().kind != kind) {
      error(lex_.peek().span, DiagCode::kUnexpectedToken,
            std::string("expected ") + what + " before " +
                describeToken(lex_.peek()));
      throw Recover{};
    }
    return lex_.next();
  }

  Token expectKeyword(const std::string& kw) {
    const Token t = expect(Tok::kIdent, ("'" + kw + "'").c_str());
    if (t.text != kw) {
      error(t.span, DiagCode::kUnexpectedToken, "expected '" + kw + "'");
      throw Recover{};
    }
    return t;
  }

  bool accept(Tok kind) {
    if (lex_.peek().kind == kind) {
      lex_.next();
      return true;
    }
    return false;
  }

  // -- Synchronization ----------------------------------------------------

  /// Skip to the next top-level declaration keyword, past a ';', or to
  /// end of input. Braces opened while skipping are balanced so a
  /// malformed process header swallows its whole body instead of
  /// spraying "unexpected X" errors over every line of it.
  void syncTopLevel() {
    int depth = 0;
    for (;;) {
      const Token& t = lex_.peek();
      if (t.kind == Tok::kEnd) return;
      if (depth == 0) {
        if (t.kind == Tok::kSemi) {
          lex_.next();
          return;
        }
        if (t.kind == Tok::kIdent && isDeclKeyword(t.text)) return;
      }
      if (t.kind == Tok::kLBrace) ++depth;
      if (t.kind == Tok::kRBrace && depth > 0) --depth;
      lex_.next();
    }
  }

  /// Skip to the next `loc` / `init` / `edge` / `urgent` / `committed`,
  /// past a ';', or to the process's closing '}'. Balances nested
  /// braces (a malformed edge header swallows the edge body).
  void syncProcessItem() {
    int depth = 0;
    for (;;) {
      const Token& t = lex_.peek();
      if (t.kind == Tok::kEnd) return;
      if (depth == 0) {
        if (t.kind == Tok::kRBrace) return;
        if (t.kind == Tok::kSemi) {
          lex_.next();
          return;
        }
        if (t.kind == Tok::kIdent && isProcessItemKeyword(t.text)) return;
      }
      if (t.kind == Tok::kLBrace) ++depth;
      if (t.kind == Tok::kRBrace && depth > 0) --depth;
      lex_.next();
    }
  }

  /// Skip to the next ';' (consumed), the next edge-item keyword, or
  /// the edge's closing '}'.
  void syncEdgeItem() {
    for (;;) {
      const Token& t = lex_.peek();
      if (t.kind == Tok::kEnd || t.kind == Tok::kRBrace) return;
      if (t.kind == Tok::kSemi) {
        lex_.next();
        return;
      }
      if (t.kind == Tok::kIdent &&
          (t.text == "guard" || t.text == "sync" || t.text == "reset" ||
           t.text == "assign" || t.text == "label")) {
        return;
      }
      lex_.next();
    }
  }

  // -- Declarations -------------------------------------------------------

  void parseTopLevel() {
    if (lex_.peek().kind != Tok::kIdent) {
      error(lex_.peek().span, DiagCode::kUnexpectedDecl,
            "expected a declaration (clock, int, chan, broadcast, process "
            "or query) before " +
                describeToken(lex_.peek()));
      throw Recover{};
    }
    const Token t = lex_.next();
    if (t.text == "clock") {
      parseClockDecl();
    } else if (t.text == "int") {
      parseIntDecl();
    } else if (t.text == "chan") {
      parseChanDecl(ChanKind::kBinary);
    } else if (t.text == "broadcast") {
      expectKeyword("chan");
      parseChanDecl(ChanKind::kBroadcast);
    } else if (t.text == "process") {
      parseProcess();
    } else if (t.text == "query") {
      parseQuery(t.span);
    } else {
      error(t.span, DiagCode::kUnexpectedDecl,
            "unexpected '" + t.text + "'",
            "expected clock, int, chan, broadcast, process or query");
      throw Recover{};
    }
  }

  /// Report a redefinition (with a note pointing at the first site) and
  /// return false; true when the name is fresh.
  bool checkFresh(const Token& n) {
    const auto it = declSites_.find(n.text);
    if (it != declSites_.end()) {
      error(n.span, DiagCode::kRedefinition,
            "'" + n.text + "' already declared",
            "first declared at line " + std::to_string(it->second.line));
      return false;
    }
    declSites_[n.text] = n.span;
    return true;
  }

  void parseClockDecl() {
    do {
      const Token n = expect(Tok::kIdent, "clock name");
      if (!checkFresh(n)) continue;
      clocks_[n.text] = sys().addClock(n.text);
      map().clockDecls.push_back(n.span);
    } while (accept(Tok::kComma));
    expect(Tok::kSemi, "';'");
  }

  void parseIntDecl() {
    do {
      const Token n = expect(Tok::kIdent, "variable name");
      const bool fresh = checkFresh(n);
      int32_t size = 1;
      if (accept(Tok::kLBracket)) {
        const Token st = expect(Tok::kInt, "array size");
        size = static_cast<int32_t>(st.value);
        if (size <= 0) {
          error(st.span, DiagCode::kBadConstant, "array size must be > 0");
          size = 1;
        }
        expect(Tok::kRBracket, "']'");
      }
      int32_t init = 0;
      if (accept(Tok::kAssign)) {
        const bool neg = accept(Tok::kMinus);
        init = static_cast<int32_t>(expect(Tok::kInt, "initializer").value);
        if (neg) init = -init;
      }
      if (!fresh) continue;
      const VarId base = size == 1 ? sys().addVar(n.text, init)
                                   : sys().addArray(n.text, size, init);
      vars_[n.text] = {base, size};
      for (int32_t k = 0; k < size; ++k) map().varDecls.push_back(n.span);
    } while (accept(Tok::kComma));
    expect(Tok::kSemi, "';'");
  }

  void parseChanDecl(ChanKind kind) {
    do {
      const Token n = expect(Tok::kIdent, "channel name");
      if (!checkFresh(n)) continue;
      chans_[n.text] = sys().addChannel(n.text, kind);
      map().chanDecls.push_back(n.span);
    } while (accept(Tok::kComma));
    expect(Tok::kSemi, "';'");
  }

  // -- Processes ----------------------------------------------------------

  void parseProcess() {
    const Token n = expect(Tok::kIdent, "process name");
    checkFresh(n);
    const ProcId p = sys().addAutomaton(n.text);
    procs_[n.text] = p;
    auto& locs = procLocs_[n.text];
    map().locDecls.emplace_back();
    map().edgeDecls.emplace_back();
    expect(Tok::kLBrace, "'{'");
    bool haveInit = false;
    while (!accept(Tok::kRBrace)) {
      if (lex_.peek().kind == Tok::kEnd) {
        error(lex_.peek().span, DiagCode::kUnexpectedToken,
              "missing '}' closing process '" + n.text + "'");
        break;
      }
      try {
        parseProcessItem(p, locs, &haveInit);
      } catch (const Recover&) {
        syncProcessItem();
      }
    }
    if (!haveInit && !locs.empty()) {
      // Default: first declared location (already location 0).
      sys().automaton(p).setInitial(0);
    }
    if (sys().automaton(p).numLocations() == 0) {
      error(n.span, DiagCode::kEmptyProcess,
            "process '" + n.text + "' has no locations");
    }
  }

  void parseProcessItem(ProcId p, std::map<std::string, LocId>& locs,
                        bool* haveInit) {
    const Token t = expect(Tok::kIdent, "'loc', 'init' or 'edge'");
    bool urgent = false;
    bool committed = false;
    std::string kw = t.text;
    if (kw == "urgent" || kw == "committed") {
      urgent = kw == "urgent";
      committed = kw == "committed";
      expectKeyword("loc");
      kw = "loc";
    }
    if (kw == "loc") {
      parseLoc(p, locs, urgent, committed);
    } else if (kw == "init") {
      const Token ln = expect(Tok::kIdent, "location name");
      const auto it = locs.find(ln.text);
      if (it == locs.end()) {
        error(ln.span, DiagCode::kUndefinedName,
              "init location '" + ln.text + "' not declared");
      } else {
        sys().automaton(p).setInitial(it->second);
        *haveInit = true;
      }
      expect(Tok::kSemi, "';'");
    } else if (kw == "edge") {
      parseEdge(p, locs);
    } else {
      error(t.span, DiagCode::kUnexpectedToken,
            "unexpected '" + kw + "' in process");
      throw Recover{};
    }
  }

  void parseLoc(ProcId p, std::map<std::string, LocId>& locs, bool urgent,
                bool committed) {
    const Token ln = expect(Tok::kIdent, "location name");
    LocId l;
    const auto it = locs.find(ln.text);
    if (it != locs.end()) {
      error(ln.span, DiagCode::kRedefinition,
            "location '" + ln.text + "' redeclared");
      l = it->second;
    } else {
      l = sys().automaton(p).addLocation(ln.text, urgent, committed);
      locs[ln.text] = l;
      map().locDecls.back().push_back(ln.span);
    }
    if (accept(Tok::kLBrace)) {
      // Recover locally so a bad invariant doesn't desynchronize the
      // brace structure (the '}' below would otherwise be mistaken for
      // the process's closing brace).
      try {
        expectKeyword("inv");
        do {
          const ClockAtom atom = parseClockAtom();
          if (atom.valid) {
            sys().automaton(p).addInvariant(l, atom.first);
            if (atom.hasSecond) {
              sys().automaton(p).addInvariant(l, atom.second);
            }
          }
        } while (accept(Tok::kAnd));
        expect(Tok::kSemi, "';'");
      } catch (const Recover&) {
        syncEdgeItem();
      }
      expect(Tok::kRBrace, "'}'");
    }
    accept(Tok::kSemi);
  }

  void parseEdge(ProcId p, const std::map<std::string, LocId>& locs) {
    const Token from = expect(Tok::kIdent, "source location");
    expect(Tok::kArrow, "'->'");
    const Token to = expect(Tok::kIdent, "target location");
    const auto fi = locs.find(from.text);
    const auto ti = locs.find(to.text);
    bool valid = true;
    if (fi == locs.end()) {
      error(from.span, DiagCode::kUndefinedName,
            "unknown location '" + from.text + "'");
      valid = false;
    }
    if (ti == locs.end()) {
      error(to.span, DiagCode::kUndefinedName,
            "unknown location '" + to.text + "'");
      valid = false;
    }
    // On an unresolvable endpoint the body still parses (for its own
    // diagnostics) into a discarded edge.
    Edge discard;
    EdgeBuilder eb = valid ? sys().edge(p, fi->second, ti->second)
                           : EdgeBuilder(sys(), discard);
    if (valid) map().edgeDecls.back().push_back(from.span);
    expect(Tok::kLBrace, "'{'");
    while (!accept(Tok::kRBrace)) {
      if (lex_.peek().kind == Tok::kEnd) {
        error(lex_.peek().span, DiagCode::kUnexpectedToken,
              "missing '}' closing edge '" + from.text + " -> " + to.text +
                  "'");
        throw Recover{};
      }
      try {
        parseEdgeItem(p, eb, valid);
      } catch (const Recover&) {
        syncEdgeItem();
      }
    }
  }

  void parseEdgeItem(ProcId p, EdgeBuilder& eb, bool valid) {
    const Token t =
        expect(Tok::kIdent, "'guard', 'sync', 'reset', 'assign' or 'label'");
    if (t.text == "guard") {
      do {
        parseGuardAtom(eb);
      } while (accept(Tok::kAnd));
    } else if (t.text == "sync") {
      const Token cn = expect(Tok::kIdent, "channel name");
      const auto ci = chans_.find(cn.text);
      if (ci == chans_.end()) {
        error(cn.span, DiagCode::kUndefinedName,
              "unknown channel '" + cn.text + "'");
        // Still consume the direction marker so the ';' check lines up.
        if (!accept(Tok::kBang)) accept(Tok::kQuest);
      } else if (accept(Tok::kBang)) {
        eb.send(ci->second);
      } else if (accept(Tok::kQuest)) {
        eb.receive(ci->second);
      } else {
        error(lex_.peek().span, DiagCode::kBadSync,
              "expected '!' or '?' after channel '" + cn.text + "'");
        throw Recover{};
      }
    } else if (t.text == "reset") {
      do {
        const Token cn = expect(Tok::kIdent, "clock name");
        const auto ci = clocks_.find(cn.text);
        dbm::value_t v = 0;
        if (accept(Tok::kAssign)) {
          v = static_cast<dbm::value_t>(
              expect(Tok::kInt, "reset value").value);
        }
        if (ci == clocks_.end()) {
          error(cn.span, DiagCode::kUndefinedName,
                "unknown clock '" + cn.text + "'");
        } else {
          eb.reset(ci->second, v);
        }
      } while (accept(Tok::kComma));
    } else if (t.text == "assign") {
      do {
        const Token vn = expect(Tok::kIdent, "variable name");
        const auto vi = vars_.find(vn.text);
        if (vi == vars_.end()) {
          error(vn.span, DiagCode::kUndefinedName,
                "unknown variable '" + vn.text + "'");
        }
        ExprRef index = kNoExpr;
        if (accept(Tok::kLBracket)) {
          index = parseExpr();
          expect(Tok::kRBracket, "']'");
        }
        expect(Tok::kAssign, "'='");
        const ExprRef rhs = parseExpr();
        if (vi == vars_.end()) continue;  // diagnosed; discard
        if (index == kNoExpr) {
          eb.assign(vi->second.first, Ex(sys().pool(), rhs));
        } else {
          eb.assignCell(vi->second.first, Ex(sys().pool(), index),
                        vi->second.second, Ex(sys().pool(), rhs));
        }
      } while (accept(Tok::kComma));
    } else if (t.text == "label") {
      const Token ls = expect(Tok::kString, "label string");
      eb.label(ls.text);
      if (valid) map().labels.push_back({p, ls.text, ls.span});
    } else {
      error(t.span, DiagCode::kUnexpectedToken,
            "unexpected '" + t.text + "' in edge");
      throw Recover{};
    }
    expect(Tok::kSemi, "';'");
  }

  // -- Guards / clock atoms -----------------------------------------------

  [[nodiscard]] bool nextIsClockAtom() {
    const Token& t = lex_.peek();
    return t.kind == Tok::kIdent && clocks_.count(t.text) != 0;
  }

  struct ClockAtom {
    ClockConstraint first;
    ClockConstraint second;
    bool hasSecond = false;
    bool valid = false;
  };

  /// Parse one clock atom (`x <= 5`, `x - y < 2`, `x == 7`). `x == c`
  /// yields two constraints. Returns valid=false (with diagnostics
  /// already emitted) when a name fails to resolve.
  ClockAtom parseClockAtom() {
    ClockAtom out;
    const Token cn = expect(Tok::kIdent, "clock name");
    const auto ci = clocks_.find(cn.text);
    bool resolved = true;
    if (ci == clocks_.end()) {
      error(cn.span, DiagCode::kUndefinedName,
            "unknown clock '" + cn.text + "'");
      resolved = false;
    }
    const ClockId x = resolved ? ci->second : 0;
    ClockId y = 0;
    if (accept(Tok::kMinus)) {
      const Token cn2 = expect(Tok::kIdent, "clock name");
      const auto ci2 = clocks_.find(cn2.text);
      if (ci2 == clocks_.end()) {
        error(cn2.span, DiagCode::kUndefinedName,
              "unknown clock '" + cn2.text + "'");
        resolved = false;
      } else {
        y = ci2->second;
      }
    }
    const Token op = lex_.next();
    const bool neg = accept(Tok::kMinus);
    const Token val = expect(Tok::kInt, "integer bound");
    auto c = static_cast<dbm::value_t>(val.value);
    if (neg) c = -c;
    out.valid = resolved;
    switch (op.kind) {
      case Tok::kLe: out.first = {x, y, dbm::boundWeak(c)}; return out;
      case Tok::kLt: out.first = {x, y, dbm::boundStrict(c)}; return out;
      case Tok::kGe: out.first = {y, x, dbm::boundWeak(-c)}; return out;
      case Tok::kGt: out.first = {y, x, dbm::boundStrict(-c)}; return out;
      case Tok::kEq:
        out.first = {x, y, dbm::boundWeak(c)};
        out.second = {y, x, dbm::boundWeak(-c)};
        out.hasSecond = true;
        return out;
      default:
        error(op.span, DiagCode::kBadClockConstraint,
              "expected a comparison after clock '" + cn.text + "'");
        throw Recover{};
    }
  }

  /// One guard conjunct: a clock atom or an integer expression (no
  /// top-level && — use parentheses).
  void parseGuardAtom(EdgeBuilder& eb) {
    if (nextIsClockAtom()) {
      const ClockAtom atom = parseClockAtom();
      if (atom.valid) {
        eb.when(atom.first);
        if (atom.hasSecond) eb.when(atom.second);
      }
      return;
    }
    eb.guard(Ex(sys().pool(), parseOrNoAnd()));
  }

  // -- Expression grammar (precedence climbing) ---------------------------

  struct DepthGuard {
    explicit DepthGuard(Parser& p) : p_(p) {
      if (++p_.depth_ > kMaxExprDepth) {
        p_.error(p_.lex_.peek().span, DiagCode::kNestingTooDeep,
                 "expression nests too deeply (limit " +
                     std::to_string(kMaxExprDepth) + ")");
        --p_.depth_;
        throw Recover{};
      }
    }
    ~DepthGuard() { --p_.depth_; }
    Parser& p_;
  };

  ExprRef parseExpr() {
    DepthGuard guard(*this);
    return parseTernary();
  }

  ExprRef parseTernary() {
    const ExprRef cond = parseOr();
    if (!accept(Tok::kQuest)) return cond;
    const ExprRef a = parseExpr();
    expect(Tok::kColon, "':'");
    const ExprRef b = parseExpr();
    return sys().pool().ite(cond, a, b);
  }

  ExprRef parseOr() {
    ExprRef e = parseAnd();
    while (accept(Tok::kOr)) {
      e = sys().pool().binary(Op::kOr, e, parseAnd());
    }
    return e;
  }

  /// Or-level that refuses to eat a top-level && (guard separator).
  ExprRef parseOrNoAnd() {
    DepthGuard guard(*this);
    ExprRef e = parseCmp();
    while (accept(Tok::kOr)) {
      e = sys().pool().binary(Op::kOr, e, parseCmp());
    }
    return e;
  }

  ExprRef parseAnd() {
    ExprRef e = parseCmp();
    while (accept(Tok::kAnd)) {
      e = sys().pool().binary(Op::kAnd, e, parseCmp());
    }
    return e;
  }

  ExprRef parseCmp() {
    ExprRef e = parseAdd();
    const Tok k = lex_.peek().kind;
    Op op;
    switch (k) {
      case Tok::kLt: op = Op::kLt; break;
      case Tok::kLe: op = Op::kLe; break;
      case Tok::kGt: op = Op::kGt; break;
      case Tok::kGe: op = Op::kGe; break;
      case Tok::kEq: op = Op::kEq; break;
      case Tok::kNe: op = Op::kNe; break;
      default: return e;
    }
    lex_.next();
    return sys().pool().binary(op, e, parseAdd());
  }

  ExprRef parseAdd() {
    ExprRef e = parseMul();
    for (;;) {
      if (accept(Tok::kPlus)) {
        e = sys().pool().binary(Op::kAdd, e, parseMul());
      } else if (accept(Tok::kMinus)) {
        e = sys().pool().binary(Op::kSub, e, parseMul());
      } else {
        return e;
      }
    }
  }

  ExprRef parseMul() {
    ExprRef e = parseUnary();
    for (;;) {
      if (accept(Tok::kStar)) {
        e = sys().pool().binary(Op::kMul, e, parseUnary());
      } else if (accept(Tok::kSlash)) {
        e = sys().pool().binary(Op::kDiv, e, parseUnary());
      } else if (accept(Tok::kPercent)) {
        e = sys().pool().binary(Op::kMod, e, parseUnary());
      } else {
        return e;
      }
    }
  }

  ExprRef parseUnary() {
    DepthGuard guard(*this);
    if (accept(Tok::kMinus)) {
      return sys().pool().unary(Op::kNeg, parseUnary());
    }
    if (accept(Tok::kBang)) {
      return sys().pool().unary(Op::kNot, parseUnary());
    }
    return parsePrimary();
  }

  ExprRef parsePrimary() {
    const Token t = lex_.next();
    if (t.kind == Tok::kInt) {
      return sys().pool().constant(static_cast<int32_t>(t.value));
    }
    if (t.kind == Tok::kLParen) {
      const ExprRef e = parseExpr();
      expect(Tok::kRParen, "')'");
      return e;
    }
    if (t.kind == Tok::kIdent) {
      if (t.text == "true") return sys().pool().constant(1);
      if (t.text == "false") return sys().pool().constant(0);
      const auto vi = vars_.find(t.text);
      if (vi == vars_.end()) {
        error(t.span, DiagCode::kUndefinedName,
              "unknown variable '" + t.text + "'");
        // Recover with a constant so expression parsing continues; the
        // model is already marked broken by the diagnostic.
        if (accept(Tok::kLBracket)) {
          (void)parseExpr();
          expect(Tok::kRBracket, "']'");
        }
        return sys().pool().constant(0);
      }
      if (accept(Tok::kLBracket)) {
        const ExprRef idx = parseExpr();
        expect(Tok::kRBracket, "']'");
        return sys().pool().arrayCell(vi->second.first, idx,
                                      vi->second.second);
      }
      return sys().pool().var(vi->second.first);
    }
    error(t.span, DiagCode::kUnexpectedToken,
          "expected an expression before " + describeToken(t));
    throw Recover{};
  }

  // -- Queries ------------------------------------------------------------

  void parseQuery(Span kwSpan) {
    expectKeyword("reach");
    ParsedQuery q;
    ExprRef pred = kNoExpr;
    do {
      // Location atom: Proc.loc
      const Token& t = lex_.peek();
      if (t.kind == Tok::kIdent && procs_.count(t.text) != 0) {
        const Token pn = lex_.next();
        expect(Tok::kDot, "'.'");
        const Token ln = expect(Tok::kIdent, "location name");
        const auto& locs = procLocs_[pn.text];
        const auto li = locs.find(ln.text);
        if (li == locs.end()) {
          error(ln.span, DiagCode::kUndefinedName,
                "unknown location '" + pn.text + "." + ln.text + "'");
        } else {
          q.locations.push_back({procs_[pn.text], li->second});
        }
      } else if (nextIsClockAtom()) {
        const ClockAtom atom = parseClockAtom();
        if (atom.valid) {
          q.clockConstraints.push_back(atom.first);
          if (atom.hasSecond) q.clockConstraints.push_back(atom.second);
        }
      } else {
        const ExprRef atom = parseOrNoAnd();
        pred = pred == kNoExpr ? atom
                               : sys().pool().binary(Op::kAnd, pred, atom);
      }
    } while (accept(Tok::kAnd));
    expect(Tok::kSemi, "';'");
    q.predicate = pred;
    out_->queries.push_back(std::move(q));
    map().queryDecls.push_back(kwSpan);
  }

  Lexer lex_;
  const FrontendOptions& opts_;
  FrontendResult* out_;
  int errors_ = 0;
  int depth_ = 0;
  std::map<std::string, Span> declSites_;
  std::map<std::string, ClockId> clocks_;
  std::map<std::string, std::pair<VarId, int32_t>> vars_;  // base, size
  std::map<std::string, ChanId> chans_;
  std::map<std::string, ProcId> procs_;
  std::map<std::string, std::map<std::string, LocId>> procLocs_;
};

}  // namespace

FrontendResult parseModelEx(const std::string& text,
                            const FrontendOptions& opts) {
  FrontendResult result;
  result.system = std::make_unique<System>();
  Parser(text, opts, &result).run();
  result.ok = countErrors(result.diagnostics) == 0;
  if (result.ok) {
    result.system->finalize();
    if (opts.lint) {
      runLints(*result.system, result.queries, result.sourceMap,
               &result.diagnostics);
    }
  }
  sortBySource(result.diagnostics);
  return result;
}

}  // namespace ta
