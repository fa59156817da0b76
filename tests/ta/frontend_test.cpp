// Unit tests for the frontend pipeline pieces the golden corpus can't
// pin down: exact token spans (line AND column), the
// report-without-consuming recovery discipline, diagnostic rendering,
// and the error cap.
#include <string>

#include <gtest/gtest.h>

#include "dbm/bound.hpp"
#include "ta/diagnostics.hpp"
#include "ta/lexer.hpp"
#include "ta/parser.hpp"

namespace {

// -- Lexer spans ----------------------------------------------------------

TEST(LexerSpans, TokensCarryLineColAndLength) {
  std::vector<ta::Diagnostic> diags;
  ta::Lexer lex("clock x;\n  int foo;\n", &diags);

  ta::Token t = lex.next();
  EXPECT_EQ(t.kind, ta::Tok::kIdent);
  EXPECT_EQ(t.span.line, 1);
  EXPECT_EQ(t.span.col, 1);
  EXPECT_EQ(t.span.len, 5);

  t = lex.next();  // x
  EXPECT_EQ(t.span.line, 1);
  EXPECT_EQ(t.span.col, 7);
  EXPECT_EQ(t.span.len, 1);

  t = lex.next();  // ;
  EXPECT_EQ(t.span.col, 8);

  t = lex.next();  // int (indented two spaces on line 2)
  EXPECT_EQ(t.span.line, 2);
  EXPECT_EQ(t.span.col, 3);

  t = lex.next();  // foo
  EXPECT_EQ(t.span.col, 7);
  EXPECT_EQ(t.span.len, 3);
  EXPECT_TRUE(diags.empty());
}

TEST(LexerSpans, TwoCharOperatorsAndStrings) {
  std::vector<ta::Diagnostic> diags;
  ta::Lexer lex("-> \"hi\" <=", &diags);
  ta::Token t = lex.next();
  EXPECT_EQ(t.kind, ta::Tok::kArrow);
  EXPECT_EQ(t.span.len, 2);
  t = lex.next();
  EXPECT_EQ(t.kind, ta::Tok::kString);
  EXPECT_EQ(t.text, "hi");
  EXPECT_EQ(t.span.col, 4);
  EXPECT_EQ(t.span.len, 4);  // includes both quotes
  t = lex.next();
  EXPECT_EQ(t.kind, ta::Tok::kLe);
}

TEST(LexerSpans, IntegerOverflowClampsWithDiagnostic) {
  // The old std::stoll-based scanner threw std::out_of_range out of
  // the parser on literals past int64. Now: clamp + P005.
  std::vector<ta::Diagnostic> diags;
  ta::Lexer lex("99999999999999999999", &diags);
  const ta::Token t = lex.next();
  EXPECT_EQ(t.kind, ta::Tok::kInt);
  EXPECT_EQ(t.value, dbm::kMaxValue);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, ta::DiagCode::kBadConstant);
  EXPECT_EQ(diags[0].span.len, 20);
}

TEST(LexerSpans, StringsDoNotCrossNewlines) {
  // The old lexer happily consumed everything to the next '"', eating
  // whole models into one string literal.
  std::vector<ta::Diagnostic> diags;
  ta::Lexer lex("\"unclosed\nclock", &diags);
  const ta::Token s = lex.next();
  EXPECT_EQ(s.kind, ta::Tok::kString);
  EXPECT_EQ(s.text, "unclosed");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, ta::DiagCode::kUnterminatedString);
  const ta::Token next = lex.next();
  EXPECT_EQ(next.kind, ta::Tok::kIdent);
  EXPECT_EQ(next.text, "clock");
  EXPECT_EQ(next.span.line, 2);
}

// -- Diagnostic spans out of the parser -----------------------------------

ta::FrontendResult run(const std::string& text) {
  return ta::parseModelEx(text);
}

TEST(DiagnosticSpans, RedefinitionPointsAtTheSecondName) {
  const auto r = run("clock x;\nclock x;\n");
  ASSERT_EQ(r.errorCount(), 1u);
  const ta::Diagnostic& d = r.diagnostics[0];
  EXPECT_EQ(d.code, ta::DiagCode::kRedefinition);
  EXPECT_EQ(d.span.line, 2);
  EXPECT_EQ(d.span.col, 7);
  EXPECT_EQ(d.span.len, 1);
  EXPECT_NE(d.note.find("line 1"), std::string::npos);
}

TEST(DiagnosticSpans, ExpectReportsTheOffendingTokenUnconsumed) {
  // "int v = ;" — the error is at the ';' (line 1, col 9), and the
  // parser recovers *at* that ';' without cascading.
  const auto r = run("int v = ;\nclock x;\n");
  ASSERT_EQ(r.errorCount(), 1u) << ta::renderDiagnostics(r.diagnostics);
  EXPECT_EQ(r.diagnostics[0].span.line, 1);
  EXPECT_EQ(r.diagnostics[0].span.col, 9);
}

TEST(DiagnosticSpans, EdgeRecoveryKeepsPerItemPositions) {
  const auto r = run(
      "clock x;\n"
      "chan go;\n"
      "process P {\n"
      "  loc a;\n"
      "  init a;\n"
      "  edge a -> a {\n"
      "    sync go;\n"      // error at the ';' (col 12)
      "    reset y;\n"      // error at 'y' (col 11)
      "    guard x >= 1;\n"
      "  }\n"
      "}\n"
      "query reach P.a;\n");
  ASSERT_EQ(r.errorCount(), 2u) << ta::renderDiagnostics(r.diagnostics);
  EXPECT_EQ(r.diagnostics[0].code, ta::DiagCode::kBadSync);
  EXPECT_EQ(r.diagnostics[0].span.line, 7);
  EXPECT_EQ(r.diagnostics[0].span.col, 12);
  EXPECT_EQ(r.diagnostics[1].code, ta::DiagCode::kUndefinedName);
  EXPECT_EQ(r.diagnostics[1].span.line, 8);
  EXPECT_EQ(r.diagnostics[1].span.col, 11);
  EXPECT_EQ(r.diagnostics[1].span.len, 1);
}

TEST(DiagnosticSpans, AllDiagnosticsSortedBySource) {
  const auto r = run("int v = ;\nbogus;\nclock x;\nclock x;\n");
  ASSERT_GE(r.diagnostics.size(), 3u);
  for (size_t i = 1; i < r.diagnostics.size(); ++i) {
    const ta::Span& a = r.diagnostics[i - 1].span;
    const ta::Span& b = r.diagnostics[i].span;
    EXPECT_TRUE(a.line < b.line || (a.line == b.line && a.col <= b.col));
  }
}

// -- Error cap ------------------------------------------------------------

TEST(ErrorCap, StopsWithTooManyErrors) {
  ta::FrontendOptions opts;
  opts.maxErrors = 2;
  const auto r = ta::parseModelEx("a;\nb;\nc;\nd;\n", opts);
  ASSERT_EQ(r.diagnostics.size(), 3u);
  EXPECT_EQ(r.diagnostics[0].code, ta::DiagCode::kUnexpectedDecl);
  EXPECT_EQ(r.diagnostics[1].code, ta::DiagCode::kUnexpectedDecl);
  EXPECT_EQ(r.diagnostics[2].code, ta::DiagCode::kTooManyErrors);
  EXPECT_EQ(r.diagnostics[2].span.line, 3);
}

// -- Rendering ------------------------------------------------------------

TEST(Rendering, ToStringFormatsFilePositionCodeAndNote) {
  const ta::Diagnostic d{ta::Severity::kError, ta::DiagCode::kUndefinedName,
                         {3, 7, 2}, "unknown clock 'tt'", "did you mean 't'?"};
  EXPECT_EQ(ta::toString(d, "m.gta"),
            "m.gta:3:7: error[P004]: unknown clock 'tt'\n"
            "  note: did you mean 't'?");
  const ta::Diagnostic w{
      ta::Severity::kWarning, ta::DiagCode::kUnusedClock, {0, 0, 0},
      "clock 'z' is never used", ""};
  EXPECT_EQ(ta::toString(w), "warning[L001]: clock 'z' is never used");
}

TEST(Rendering, CodeNamesRoundTrip) {
  for (const ta::DiagCode code : ta::allDiagCodes()) {
    ta::DiagCode back;
    ASSERT_TRUE(ta::diagCodeFromName(ta::diagCodeName(code), &back));
    EXPECT_EQ(back, code);
  }
  ta::DiagCode ignore;
  EXPECT_FALSE(ta::diagCodeFromName("P999", &ignore));
  EXPECT_FALSE(ta::diagCodeFromName("", &ignore));
}

}  // namespace
