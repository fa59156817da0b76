// A small textual model format and its compiler-grade frontend, so
// networks of timed automata can be written and checked without C++
// (UPPAAL models are XML + a C-like expression language; this is the
// equivalent idea in a compact form):
//
//   // one-line comments
//   clock x, y;
//   int v = 0;
//   int pos[4] = 0;
//   chan go;
//   broadcast chan all;
//
//   process Worker {
//     loc warmup { inv x <= 5; }
//     loc done;
//     init warmup;
//     urgent loc hold;
//     committed loc now;
//     edge warmup -> done {
//       guard x >= 3 && v < 2;
//       sync go!;
//       reset x;
//       assign v = v + 1, pos[v] = 0;
//       label "go";
//     }
//   }
//
//   query reach Worker.done && v == 1;
//
// Guards mix clock atoms (x >= 3, x - y < 2 — recognized because the
// names resolve to clocks) and integer expressions, conjoined at the
// top level exactly as in UPPAAL.  `query reach` lines compile into
// engine::Goal-compatible results.
//
// The frontend is a pipeline: a lexer producing tokens with line:col
// spans (ta/lexer.hpp), a recovering recursive-descent parser that
// synchronizes at declaration / process-item / edge-item boundaries
// and emits *multiple* structured diagnostics per run
// (ta/diagnostics.hpp), and a static-analysis pass suite over the
// parsed model (ta/lint.hpp). `parseModelEx` is the full pipeline.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ta/diagnostics.hpp"
#include "ta/system.hpp"

namespace ta {

/// A parsed `query reach ...` line: location requirements plus an
/// integer predicate (kNoExpr if none).
struct ParsedQuery {
  std::vector<std::pair<ProcId, LocId>> locations;
  ExprRef predicate = kNoExpr;
  std::vector<ClockConstraint> clockConstraints;
};

/// Source spans for the named entities of a parsed model — the side
/// table the lint passes use to anchor their warnings. All vectors are
/// indexed by the corresponding id; they may be empty (hand-built
/// models), in which case lints fall back to zero spans.
struct SourceMap {
  std::vector<Span> clockDecls;               ///< [ClockId - 1]
  std::vector<Span> varDecls;                 ///< [VarId] (cells share)
  std::vector<Span> chanDecls;                ///< [ChanId]
  std::vector<std::vector<Span>> locDecls;    ///< [proc][loc]
  std::vector<std::vector<Span>> edgeDecls;   ///< [proc][edge]
  struct ExplicitLabel {
    ProcId proc = 0;
    std::string text;
    Span span;
  };
  /// `label "..."` statements as written (sync-derived default labels
  /// are not listed) — input to the duplicate-label lint.
  std::vector<ExplicitLabel> labels;
  std::vector<Span> queryDecls;  ///< [query index]
};

struct FrontendOptions {
  /// Run the static-analysis passes after a clean parse. Lint findings
  /// are warnings; they never change the parsed model.
  bool lint = true;
  /// Stop after this many parse errors (a kTooManyErrors diagnostic
  /// marks the cut).
  int maxErrors = 16;
};

struct FrontendResult {
  /// Never null. Finalized and engine-ready only when `ok`.
  std::unique_ptr<System> system;
  std::vector<ParsedQuery> queries;
  /// All diagnostics in source order (parse errors and lint warnings
  /// interleaved by position).
  std::vector<Diagnostic> diagnostics;
  SourceMap sourceMap;
  /// True iff no error-severity diagnostic was emitted. Warnings do
  /// not affect ok.
  bool ok = false;

  [[nodiscard]] size_t errorCount() const { return countErrors(diagnostics); }
  [[nodiscard]] size_t warningCount() const {
    return countWarnings(diagnostics);
  }
};

/// The full frontend pipeline: lex, parse with recovery, and (when the
/// parse is clean) finalize + lint.
[[nodiscard]] FrontendResult parseModelEx(const std::string& text,
                                          const FrontendOptions& opts = {});

}  // namespace ta
