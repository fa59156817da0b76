// Programmatic simulator for timed-automata networks — the counterpart
// of UPPAAL's simulator pane ("validation (via graphical simulation)"),
// usable from tests, debuggers and REPL-style tools, and the replay
// behind `validate`.
//
// The simulator walks *concrete* states: pick one of the currently
// enabled transitions (optionally after a delay), and inspect
// locations, variables and clocks at every step. Which transitions
// exist is the engine's own enumeration (forEachTransitionLedBy); the
// simulator adds the concrete arithmetic of delays, guards, assignments
// and invariants.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "engine/state.hpp"
#include "ta/system.hpp"

namespace engine {

/// One transition currently available from the simulator's state.
struct EnabledTransition {
  Transition via;
  std::string label;
  /// Smallest additional delay after which the transition can fire.
  int64_t earliestDelay = 0;
  /// Largest such delay, or nullopt if unbounded.
  std::optional<int64_t> latestDelay;
};

class Simulator {
 public:
  explicit Simulator(const ta::System& sys);

  // -- Inspection -------------------------------------------------------

  [[nodiscard]] const std::vector<ta::LocId>& locations() const {
    return locs_;
  }
  [[nodiscard]] const std::vector<int32_t>& variables() const {
    return vars_;
  }
  [[nodiscard]] const std::vector<int64_t>& clocks() const { return clocks_; }
  [[nodiscard]] int64_t time() const { return now_; }

  /// Human-readable state summary ("P0.l1 P1.idle | v=3 | x=2 y=0 @t=5").
  [[nodiscard]] std::string describe() const;

  /// Transitions fireable from the current state after some integer
  /// delay, each with the exact window of such delays: the engine's
  /// transitions at this state, in its order, that fire() accepts.
  [[nodiscard]] std::vector<EnabledTransition> enabled() const;

  /// Largest delay the invariants allow from here (nullopt: unbounded).
  [[nodiscard]] std::optional<int64_t> maxDelay() const;

  // -- Stepping -----------------------------------------------------------

  /// Let `delay` time units pass. False (no change) if an invariant or
  /// urgency forbids it.
  bool delay(int64_t delay);

  /// Fire the i-th transition of `enabled()` at its earliest delay.
  /// False if the index is out of range.
  bool fire(size_t index);

  /// Fire by label (first match). False if no enabled transition has it.
  bool fireLabeled(const std::string& label);

  /// Let `delay` time units pass, then fire `via`. Checks, in order:
  /// `via` is one of the transitions its leading edge yields here; the
  /// delay fits the current invariants and urgency; the clock guards
  /// hold after it; the integer guards hold; the assignments evaluate,
  /// with indices in range; and the invariants of every process's
  /// target location hold, each reset clock at its reset value. On
  /// failure the state is unchanged and *why (if given) says which
  /// check failed.
  bool fire(const Transition& via, int64_t delay, std::string* why = nullptr);

 private:
  static constexpr int64_t kUnbounded =
      std::numeric_limits<int64_t>::max() / 4;

  /// An interval [lo, hi] of integer delays; empty once lo > hi, and
  /// hi == kUnbounded when no constraint bounds it.
  struct Window {
    int64_t lo = 0;
    int64_t hi = kUnbounded;
  };

  /// Narrow `w` to the delays d after which `cc` holds, clock c then
  /// reading at[c] + d if moves[c], at[c] otherwise (the reference
  /// clock, and a clock the transition resets, stay put).
  static void narrow(Window& w, const ta::ClockConstraint& cc,
                     const std::vector<int64_t>& at,
                     const std::vector<char>& moves);

  /// Narrow `w` by urgency and the current invariants. False, saying
  /// why, once it is empty.
  bool narrowByInvariants(Window& w, std::string* why) const;

  /// Is `via` one of the transitions its leading edge yields here?
  bool offers(const Transition& via, std::string* why) const;

  /// Narrow `w` to the delays after which `parts` can fire from here:
  /// clock guards, integer guards, assignments (into next_.vars) and
  /// target invariants (next_.locs and next_.clocks, reset clocks
  /// held in place). False, saying why, once nothing is left.
  bool admit(const std::vector<TransitionPart>& parts, Window& w,
             std::string* why) const;

  const ta::System& sys_;
  std::vector<ta::LocId> locs_;
  std::vector<int32_t> vars_;
  std::vector<int64_t> clocks_;
  int64_t now_ = 0;
  /// How many processes are in a committed location.
  int32_t committed_ = 0;
  /// Every clock but the reference clock moves with a delay.
  std::vector<char> allMove_;

  /// Scratch reused from call to call: the transition being tried and
  /// the state admit() computes for it.
  struct Next {
    std::vector<TransitionPart> parts;
    std::vector<ta::LocId> locs;
    std::vector<int32_t> vars;
    std::vector<int64_t> clocks;
    std::vector<char> moves;
  };
  mutable Next next_;
};

}  // namespace engine
