#include "ta/parser.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "engine/reachability.hpp"
#include "engine/trace.hpp"

namespace ta {
namespace {

FrontendResult parse(const std::string& text) {
  FrontendOptions opts;
  opts.lint = false;
  return parseModelEx(text, opts);
}

/// The first error diagnostic of a failed parse.
Diagnostic firstError(const FrontendResult& r) {
  for (const Diagnostic& d : r.diagnostics) {
    if (d.severity == Severity::kError) return d;
  }
  ADD_FAILURE() << "no error diagnostic";
  return {};
}

constexpr const char* kHandshake = R"(
// worker/listener handshake
clock x;
int n = 0;
chan sig;

process Worker {
  loc warm { inv x <= 5; }
  loc done;
  init warm;
  edge warm -> done { guard x >= 3; sync sig!; label "go"; }
}

process Listener {
  loc idle;
  loc got;
  init idle;
  edge idle -> got { sync sig?; assign n = n + 1; }
}

query reach Worker.done && Listener.got && n == 1;
)";

TEST(Parser, HandshakeParses) {
  const FrontendResult r = parse(kHandshake);
  ASSERT_TRUE(r.ok) << renderDiagnostics(r.diagnostics);
  EXPECT_EQ(r.system->numAutomata(), 2u);
  EXPECT_EQ(r.system->numClocks(), 1u);
  EXPECT_EQ(r.system->numVars(), 1u);
  EXPECT_EQ(r.system->numChannels(), 1u);
  ASSERT_EQ(r.queries.size(), 1u);
  EXPECT_EQ(r.queries[0].locations.size(), 2u);
  EXPECT_NE(r.queries[0].predicate, kNoExpr);
  EXPECT_TRUE(r.system->finalized());
}

TEST(Parser, ParsedModelChecksLikeHandBuilt) {
  const FrontendResult r = parse(kHandshake);
  ASSERT_TRUE(r.ok) << renderDiagnostics(r.diagnostics);
  engine::Goal goal{r.queries[0].locations, r.queries[0].predicate,
                    r.queries[0].clockConstraints};
  engine::Reachability checker(*r.system, engine::Options{});
  const engine::Result res = checker.run(goal);
  ASSERT_TRUE(res.reachable);
  std::string err;
  const auto ct = engine::concretize(*r.system, res.trace, &err);
  ASSERT_TRUE(ct.has_value()) << err;
  EXPECT_EQ(ct->makespan(), 3) << "guard x >= 3 forces the delay";
}

TEST(Parser, ArraysAndDynamicIndexing) {
  const char* text = R"(
int pos[3] = 0;
int i = 0;
process P {
  loc l;
  edge l -> l { guard i < 3 && pos[i] == 0; assign pos[i] = 1, i = i + 1; }
}
query reach pos[2] == 1;
)";
  const FrontendResult r = parse(text);
  ASSERT_TRUE(r.ok) << renderDiagnostics(r.diagnostics);
  engine::Goal goal{r.queries[0].locations, r.queries[0].predicate, {}};
  engine::Reachability checker(*r.system, engine::Options{});
  EXPECT_TRUE(checker.run(goal).reachable);
}

TEST(Parser, ClockEqualityAndDifferenceAtoms) {
  const char* text = R"(
clock x, y;
process P {
  loc a { inv x <= 10; }
  loc b;
  edge a -> b { guard x == 7 && x - y <= 0; }
}
query reach P.b && y >= 7;
)";
  const FrontendResult r = parse(text);
  ASSERT_TRUE(r.ok) << renderDiagnostics(r.diagnostics);
  engine::Goal goal{r.queries[0].locations, r.queries[0].predicate,
                    r.queries[0].clockConstraints};
  engine::Reachability checker(*r.system, engine::Options{});
  const engine::Result res = checker.run(goal);
  EXPECT_TRUE(res.reachable);
}

TEST(Parser, UrgentAndCommittedLocations) {
  const char* text = R"(
clock x;
process P {
  loc a;
  urgent loc u;
  committed loc c;
  loc b;
  edge a -> u { }
  edge u -> c { }
  edge c -> b { guard x >= 1; }
}
query reach P.b;
)";
  const FrontendResult r = parse(text);
  ASSERT_TRUE(r.ok) << renderDiagnostics(r.diagnostics);
  // No time may pass in u or c, so x >= 1 can never hold... unless time
  // passed in a first. a has no invariant: delay there, then race
  // through. Reachable.
  engine::Goal goal{r.queries[0].locations, r.queries[0].predicate, {}};
  engine::Reachability checker(*r.system, engine::Options{});
  EXPECT_TRUE(checker.run(goal).reachable);
  // And the parsed flags are set.
  const Automaton& a = r.system->automaton(0);
  EXPECT_TRUE(a.location(a.findLocation("u")).urgent);
  EXPECT_TRUE(a.location(a.findLocation("c")).committed);
}

TEST(Parser, BroadcastChannel) {
  const char* text = R"(
broadcast chan all;
process S { loc s0; loc s1; edge s0 -> s1 { sync all!; } }
process R1 { loc r0; loc r1; edge r0 -> r1 { sync all?; } }
process R2 { loc r0; loc r1; edge r0 -> r1 { sync all?; } }
query reach S.s1 && R1.r1 && R2.r1;
)";
  const FrontendResult r = parse(text);
  ASSERT_TRUE(r.ok) << renderDiagnostics(r.diagnostics);
  EXPECT_EQ(r.system->channelKind(0), ChanKind::kBroadcast);
  engine::Goal goal{r.queries[0].locations, r.queries[0].predicate, {}};
  engine::Reachability checker(*r.system, engine::Options{});
  const engine::Result res = checker.run(goal);
  ASSERT_TRUE(res.reachable);
  EXPECT_EQ(res.trace.steps[1].via.parts.size(), 3u);
}

TEST(Parser, ResetToValueAndTernary) {
  const char* text = R"(
clock x;
int v = 0;
process P {
  loc a;
  loc b;
  edge a -> b { guard x >= 2; reset x = 5; assign v = v < 1 ? 10 : 20; }
  edge b -> a { guard x >= 6; assign v = v + 1; }
}
query reach P.a && v == 11;
)";
  const FrontendResult r = parse(text);
  ASSERT_TRUE(r.ok) << renderDiagnostics(r.diagnostics);
  engine::Goal goal{r.queries[0].locations, r.queries[0].predicate, {}};
  engine::Reachability checker(*r.system, engine::Options{});
  EXPECT_TRUE(checker.run(goal).reachable);
}

// -- Error reporting -----------------------------------------------------

TEST(Parser, ErrorsCarryLineNumbers) {
  const FrontendResult r = parse("clock x\nint y;");
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(firstError(r).span.line, 2) << renderDiagnostics(r.diagnostics);
}

TEST(Parser, UnknownIdentifiersRejected) {
  for (const auto& [text, expected] :
       {std::pair{"process P { loc a; edge a -> nowhere { } }", "nowhere"},
        std::pair{"process P { loc a; edge a -> a { sync ghost!; } }",
                  "ghost"},
        std::pair{"process P { loc a; edge a -> a { reset t; } }",
                  "unknown clock"}}) {
    const FrontendResult r = parse(text);
    ASSERT_FALSE(r.ok) << text;
    const Diagnostic d = firstError(r);
    EXPECT_EQ(d.span.line, 1) << text;
    EXPECT_NE(d.message.find(expected), std::string::npos) << d.message;
  }
}

TEST(Parser, DuplicateDeclarationsRejected) {
  const FrontendResult r = parse("clock x; int x;");
  ASSERT_FALSE(r.ok);
  const Diagnostic d = firstError(r);
  EXPECT_EQ(d.span.line, 1);
  EXPECT_NE(d.message.find("already declared"), std::string::npos)
      << d.message;
}

TEST(Parser, QueryOnUnknownLocationRejected) {
  const FrontendResult r = parse("process P { loc a; }\nquery reach P.b;");
  ASSERT_FALSE(r.ok);
  const Diagnostic d = firstError(r);
  EXPECT_EQ(d.span.line, 2);
  EXPECT_NE(d.message.find("P.b"), std::string::npos) << d.message;
}

}  // namespace
}  // namespace ta
