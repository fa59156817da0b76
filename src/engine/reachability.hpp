// The reachability checker: answers "is a state satisfying the goal
// reachable?" and, if so, produces the symbolic trace the paper turns
// into a schedule.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/options.hpp"
#include "engine/state.hpp"
#include "engine/stats.hpp"
#include "engine/successors.hpp"
#include "ta/system.hpp"

namespace engine {

/// A reachability goal: all listed (process, location) pairs must hold,
/// the integer predicate must be true, and the zone must intersect the
/// clock constraints.  With `deadlock`, the goal instead matches states
/// with no discrete successor at all (after arbitrary delay) that still
/// satisfy the other conditions — e.g. the batch plant's timelocks at
/// the strictly-continuous caster.
///
/// Callers state clock constraints over the system's clocks. The
/// engines test zones kept over live clocks, so each run re-indexes its
/// copy of the goal once (SuccessorGenerator::observeGoalConstraints)
/// to the fixed slots the goal's clocks hold in every zone; matches()
/// reads constraints in whatever index space its zone uses.
struct Goal {
  std::vector<std::pair<ta::ProcId, ta::LocId>> locations;
  ta::ExprRef predicate = ta::kNoExpr;
  std::vector<ta::ClockConstraint> clockConstraints;
  bool deadlock = false;

  [[nodiscard]] bool matches(const ta::System& sys, const DiscreteState& d,
                             const dbm::Dbm& zone) const;
  [[nodiscard]] bool matches(const ta::System& sys,
                             const SymbolicState& s) const {
    return matches(sys, s.d, s.zone);
  }
};

/// One step of a symbolic trace: the transition fired (empty parts for
/// the initial state) and the discrete state reached. Traces carry no
/// zones: concretize re-derives exact full-width zones from the
/// transitions, and everything else reads only `via` and `d`.
struct TraceStep {
  Transition via;
  DiscreteState d;
};

struct SymbolicTrace {
  std::vector<TraceStep> steps;
};

struct Result {
  bool reachable = false;
  /// True when the full (pruned) state space was exhausted without
  /// finding the goal. Under bit-state hashing a negative answer is
  /// NOT conclusive (hash collisions prune real states).
  bool exhausted = false;
  Stats stats;
  SymbolicTrace trace;  ///< meaningful iff reachable
};

class StateInterner;

class Reachability {
 public:
  Reachability(const ta::System& sys, Options opts);
  ~Reachability();

  [[nodiscard]] Result run(const Goal& goal);

 private:
  [[nodiscard]] Result runBfs(const Goal& goal);
  [[nodiscard]] Result runDfs(const Goal& goal);
  /// Level-synchronous multi-threaded BFS (opts.threads > 1); defined
  /// in parallel_bfs.cpp. Verdict-equivalent to runBfs.
  [[nodiscard]] Result runParallelBfs(const Goal& goal);
  /// Work-stealing multi-threaded DFS (depth-first orders with
  /// opts.threads > 1); defined in parallel_dfs.cpp. Verdict-equivalent
  /// to runDfs (not trace-deterministic); positive verdicts are checked
  /// through the trace validator before being returned.
  [[nodiscard]] Result runParallelDfs(const Goal& goal);

  const ta::System& sys_;
  Options opts_;
  SuccessorGenerator gen_;
  /// Hash-consing arena for discrete states, created per run() and
  /// shared by every worker of that run. The engines' nodes/frames and
  /// the passed stores carry its 32-bit ids instead of DiscreteState
  /// copies.
  std::unique_ptr<StateInterner> interner_;
};

}  // namespace engine
