// Lint is advisory: running the static-analysis passes must not change
// the parsed model in any observable way. The checked-in example
// models lint clean, and parsing them with lint on/off yields
// byte-identical printed models, identical verdicts, and identical
// deterministic engine statistics.
// Their queries also answer the same with and without the optimizer.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "engine/reachability.hpp"
#include "engine/trace.hpp"
#include "ta/lint.hpp"
#include "ta/parser.hpp"
#include "ta/printer.hpp"

namespace fs = std::filesystem;

namespace {

std::string readFile(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<fs::path> modelFiles() {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(MODELS_DIR)) {
    if (entry.is_regular_file() && entry.path().extension() == ".gta") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(LintSoundness, ExampleModelsLintClean) {
  for (const fs::path& f : modelFiles()) {
    const ta::FrontendResult r = ta::parseModelEx(readFile(f));
    EXPECT_TRUE(r.ok) << f.filename().string();
    EXPECT_EQ(r.warningCount(), 0u)
        << f.filename().string() << ":\n"
        << ta::renderDiagnostics(r.diagnostics, f.filename().string());
  }
}

TEST(LintSoundness, LintDoesNotPerturbVerdictsOrStats) {
  for (const fs::path& f : modelFiles()) {
    const std::string text = readFile(f);
    const std::string name = f.filename().string();

    ta::FrontendOptions lintOn;
    ta::FrontendOptions lintOff;
    lintOff.lint = false;
    const ta::FrontendResult on = ta::parseModelEx(text, lintOn);
    const ta::FrontendResult off = ta::parseModelEx(text, lintOff);
    ASSERT_TRUE(on.ok && off.ok) << name;

    // Both paths must build the very same model.
    EXPECT_EQ(ta::printModel(*on.system, on.queries),
              ta::printModel(*off.system, off.queries))
        << name;

    // And drive the engine identically: same verdict, same
    // deterministic exploration counters (time-dependent fields such
    // as Stats::seconds are excluded by construction here).
    ASSERT_EQ(on.queries.size(), off.queries.size()) << name;
    for (size_t q = 0; q < on.queries.size(); ++q) {
      const engine::Goal gOn{on.queries[q].locations, on.queries[q].predicate,
                             on.queries[q].clockConstraints};
      const engine::Goal gOff{off.queries[q].locations,
                              off.queries[q].predicate,
                              off.queries[q].clockConstraints};
      engine::Reachability cOn(*on.system, {});
      engine::Reachability cOff(*off.system, {});
      const engine::Result rOn = cOn.run(gOn);
      const engine::Result rOff = cOff.run(gOff);
      EXPECT_EQ(rOn.reachable, rOff.reachable) << name << " query " << q;
      EXPECT_EQ(rOn.exhausted, rOff.exhausted) << name << " query " << q;
      EXPECT_EQ(rOn.stats.statesExplored, rOff.stats.statesExplored)
          << name << " query " << q;
      EXPECT_EQ(rOn.stats.statesGenerated, rOff.stats.statesGenerated)
          << name << " query " << q;
      EXPECT_EQ(rOn.stats.storedZones, rOff.stats.storedZones)
          << name << " query " << q;
    }
  }
}

// The optimizer must not change what a bundled query answers: the same
// verdict at optLevel 0 and 2, and every witness concretizes and
// validates on the parsed (unoptimized) model.
TEST(LintSoundness, QueriesAgreeAcrossOptLevels) {
  for (const fs::path& f : modelFiles()) {
    const std::string name = f.filename().string();
    const ta::FrontendResult r = ta::parseModelEx(readFile(f));
    ASSERT_TRUE(r.ok) << name;
    for (size_t q = 0; q < r.queries.size(); ++q) {
      const engine::Goal goal{r.queries[q].locations, r.queries[q].predicate,
                              r.queries[q].clockConstraints};
      std::vector<bool> verdicts;
      for (const int level : {0, 2}) {
        engine::Options o;
        o.optLevel = level;
        engine::Reachability checker(*r.system, o);
        const engine::Result res = checker.run(goal);
        const std::string where = name + " query " + std::to_string(q) +
                                  " at optLevel " + std::to_string(level);
        ASSERT_TRUE(res.reachable || res.exhausted) << where;
        verdicts.push_back(res.reachable);
        if (!res.reachable) continue;
        std::string err;
        const auto ct = engine::concretize(*r.system, res.trace, &err);
        ASSERT_TRUE(ct.has_value()) << where << ": " << err;
        EXPECT_TRUE(engine::validate(*r.system, *ct, &err))
            << where << ": " << err;
      }
      EXPECT_EQ(verdicts[0], verdicts[1]) << name << " query " << q;
    }
  }
}

// The hand-built model overload (no SourceMap, no queries) anchors
// warnings at zero spans but still names the construct.
TEST(LintSoundness, HandBuiltModelsGetZeroSpanWarnings) {
  ta::System sys;
  sys.addClock("unused");
  const ta::ProcId p = sys.addAutomaton("P");
  sys.automaton(p).addLocation("a");
  sys.automaton(p).setInitial(0);

  std::vector<ta::Diagnostic> diags;
  ta::runLints(sys, &diags);
  ASSERT_EQ(diags.size(), 1u) << ta::renderDiagnostics(diags);
  EXPECT_EQ(diags[0].code, ta::DiagCode::kUnusedClock);
  EXPECT_EQ(diags[0].span.line, 0);
  EXPECT_NE(diags[0].message.find("'unused'"), std::string::npos);
  // No L010: the convenience overload does not know about queries.
}

}  // namespace
