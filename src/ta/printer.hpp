// Pretty-printer from a System (plus its queries) back to `.gta` text.
//
// The output re-parses: `parseModelEx(printModel(sys, qs))` succeeds for
// any model whose names are plain identifiers (everything the parser can
// produce, and the hand-built example plants). Printing is canonical —
// a print → parse → print round trip is a fixpoint — which is what the
// round-trip tests check structural equality with.
//
// Constructs without surface syntax are lowered: min/max print as the
// equivalent `?:`, negative constants as unary minus.
#pragma once

#include <string>
#include <vector>

#include "ta/parser.hpp"

namespace ta {

/// Render one clock atom (`x <= 5`, `x - y < 2`, `x >= 3`) using the
/// system's clock names.
[[nodiscard]] std::string printClockAtom(const System& sys,
                                         const ClockConstraint& cc);

/// Render an expression in re-parseable form (fully parenthesized);
/// kNoExpr, an absent guard, renders as `true`.
[[nodiscard]] std::string printExpr(const System& sys, ExprRef e);

/// Render the whole model as `.gta` source.
[[nodiscard]] std::string printModel(const System& sys,
                                     const std::vector<ParsedQuery>& queries);

}  // namespace ta
