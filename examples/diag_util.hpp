// Shared diagnostic plumbing for the example binaries.
//
// Every example accepts three shared flags:
//   --no-lint       skip the static-analysis passes (parse errors only)
//   --Werror        treat lint warnings as fatal (exit status 3)
//   --opt-level N   pre-exploration optimizer level (0/1/2, default 2;
//                   also accepted as --opt-level=N), forwarded into
//                   engine::Options.optLevel by every engine-running
//                   example
//
// Models loaded from .gta files go through loadModelOrExit(), which
// prints *all* frontend diagnostics (multiple errors per run, each
// with file:line:col and an optional note) instead of the old
// first-error-only behavior. Hand-built models go through
// lintHandBuilt(), which runs the same lint passes without source
// spans.
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "ta/lint.hpp"
#include "ta/parser.hpp"

namespace examples {

struct FrontendFlags {
  bool lint = true;
  bool werror = false;
  /// Mirrors engine::Options.optLevel (0 = explore the model exactly
  /// as built; 2 = full pass pipeline).
  int optLevel = 2;

  /// Consume "--no-lint" / "--Werror" / "--opt-level=N"; returns true
  /// when `arg` was one of ours (the caller's flag loop should
  /// `continue`).
  bool consume(const std::string& arg) {
    if (arg == "--no-lint") {
      lint = false;
      return true;
    }
    if (arg == "--Werror") {
      werror = true;
      return true;
    }
    if (arg.rfind("--opt-level=", 0) == 0) {
      optLevel = std::atoi(arg.c_str() + 12);
      return true;
    }
    return false;
  }

  /// Index-advancing variant that additionally accepts the two-token
  /// "--opt-level N" form.
  bool consume(int argc, char** argv, int& i) {
    const std::string arg = argv[i];
    if (arg == "--opt-level" && i + 1 < argc) {
      optLevel = std::atoi(argv[++i]);
      return true;
    }
    return consume(arg);
  }
};

/// Load and parse `path`, printing every diagnostic to stderr. Exits 2
/// on read or parse errors, 3 when --Werror and any warning fired.
/// On return the result is `ok` and the system finalized.
inline ta::FrontendResult loadModelOrExit(const std::string& path,
                                          const FrontendFlags& flags) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    std::exit(2);
  }
  std::ostringstream buf;
  buf << in.rdbuf();

  ta::FrontendOptions opts;
  opts.lint = flags.lint;
  ta::FrontendResult r = ta::parseModelEx(buf.str(), opts);
  if (!r.diagnostics.empty()) {
    std::cerr << ta::renderDiagnostics(r.diagnostics, path);
  }
  if (!r.ok) {
    std::cerr << path << ": " << r.errorCount() << " error(s)\n";
    std::exit(2);
  }
  if (flags.werror && r.warningCount() > 0) {
    std::cerr << path << ": " << r.warningCount()
              << " warning(s) treated as errors (--Werror)\n";
    std::exit(3);
  }
  return r;
}

/// Lint a hand-built (builder-API) system against the queries the
/// example runs on it (none given: the queries are unknown, so no
/// L010): print any warnings to stderr, exit 3 under --Werror. Zero
/// spans — the messages still name the offending construct.
inline void lintHandBuilt(const ta::System& sys, const FrontendFlags& flags,
                          const std::string& what,
                          const std::vector<ta::ParsedQuery>& queries = {}) {
  if (!flags.lint) return;
  std::vector<ta::Diagnostic> diags;
  if (queries.empty()) {
    ta::runLints(sys, &diags);
  } else {
    ta::runLints(sys, queries, ta::SourceMap{}, &diags);
  }
  if (!diags.empty()) {
    std::cerr << ta::renderDiagnostics(diags, what);
    if (flags.werror) {
      std::cerr << what << ": " << diags.size()
                << " warning(s) treated as errors (--Werror)\n";
      std::exit(3);
    }
  }
}

}  // namespace examples
