// Concretization of symbolic traces.
//
// UPPAAL's diagnostic trace is symbolic (a sequence of zones); to
// synthesize a control program the paper needs concrete delays ("the
// produced trace should be as precise and detailed as possible,
// especially with respect to timing information").
//
// The engines' traces carry only transitions and discrete states: the
// zones they searched are extrapolated, so they could not anchor
// concrete valuations anyway. We use the standard forward/backward
// scheme: a forward pass re-derives the *exact* (un-extrapolated)
// post-transition zone of every step from the transitions, over the
// step's live clocks as the engines keep theirs; then a backward pass
// picks the delays — starting from an earliest point of the final zone
// and choosing, at each step, firing values for reset clocks and the
// smallest feasible delay. The delays and resets fix every clock's
// value; on each step's live clocks that is a point of an
// exactly-computed zone, and no guard or invariant reads the other
// clocks before they are reset. So the resulting timed trace satisfies
// all guards and invariants by construction (and `validate` re-checks
// it independently).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engine/reachability.hpp"
#include "ta/system.hpp"

namespace engine {

struct ConcreteStep {
  /// Time spent in the predecessor state before firing (0 for the
  /// initial pseudo-step).
  int64_t delay = 0;
  /// Absolute model time after firing.
  int64_t timestamp = 0;
  Transition via;
  DiscreteState d;
  /// Clock valuation after firing (index 0 is the reference clock, 0).
  std::vector<int64_t> clocks;
};

struct ConcreteTrace {
  std::vector<ConcreteStep> steps;

  [[nodiscard]] int64_t makespan() const {
    return steps.empty() ? 0 : steps.back().timestamp;
  }
};

/// Replay a symbolic trace into a concrete timed trace. On failure
/// (greedy policy infeasible or — indicating an engine bug — a
/// constraint violated) returns nullopt and fills *error.
[[nodiscard]] std::optional<ConcreteTrace> concretize(
    const ta::System& sys, const SymbolicTrace& trace,
    std::string* error = nullptr);

/// Validate a concrete trace against the model by replaying it through
/// the Simulator: every step must be a transition of the model (the
/// engine's own enumeration) whose guards, assignments and invariants
/// hold, by concrete integer arithmetic, after the recorded delay, and
/// must reach the recorded locations, variables, clocks and time. This
/// is the "schedule is valid for the original model" check; it shares
/// nothing with the engine's zones, extrapolation, trace
/// reconstruction or concretize.
[[nodiscard]] bool validate(const ta::System& sys, const ConcreteTrace& trace,
                            std::string* error = nullptr);

/// Render a trace in UPPAAL-diagnostic style for humans.
[[nodiscard]] std::string toString(const ta::System& sys,
                                   const ConcreteTrace& trace);

}  // namespace engine
