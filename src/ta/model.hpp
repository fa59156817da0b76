// Core model structures for networks of timed automata (UPPAAL-style):
// locations with invariants (normal / urgent / committed), edges with
// clock guards, integer guards, binary or broadcast channel
// synchronization, clock resets, and integer assignments.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dbm/bound.hpp"
#include "ta/expr.hpp"

namespace ta {

/// Clock index. Clock 0 is the implicit reference clock; model clocks
/// are numbered from 1.
using ClockId = int32_t;
using ChanId = int32_t;
using LocId = int32_t;
using ProcId = int32_t;

/// Atomic clock constraint  x_i - x_j  <bound>  b  (j == 0 for bounds
/// against a constant, i == 0 for lower bounds).
struct ClockConstraint {
  ClockId i = 0;
  ClockId j = 0;
  dbm::raw_t bound = dbm::kZeroBound;
};

// Constraint-building helpers used all over model construction code.
[[nodiscard]] inline ClockConstraint ccLe(ClockId x, dbm::value_t c) {
  return {x, 0, dbm::boundWeak(c)};
}
[[nodiscard]] inline ClockConstraint ccLt(ClockId x, dbm::value_t c) {
  return {x, 0, dbm::boundStrict(c)};
}
[[nodiscard]] inline ClockConstraint ccGe(ClockId x, dbm::value_t c) {
  return {0, x, dbm::boundWeak(-c)};
}
[[nodiscard]] inline ClockConstraint ccGt(ClockId x, dbm::value_t c) {
  return {0, x, dbm::boundStrict(-c)};
}
/// x - y <= c
[[nodiscard]] inline ClockConstraint ccDiffLe(ClockId x, ClockId y,
                                              dbm::value_t c) {
  return {x, y, dbm::boundWeak(c)};
}

/// x := value (UPPAAL resets are to constants in this fragment).
struct ClockReset {
  ClockId clock = 0;
  dbm::value_t value = 0;
};

/// The model clocks one static check names, sorted by global id and
/// numbered as slots 1..k of a (k + 1)-dimension DBM or array; slot 0
/// is the reference clock. A check over these slots is exact: in the
/// closure, a clock no constraint of the check names has only ∞ edges
/// out of it, so it tightens nothing (DESIGN.md, "Zone representation:
/// live clocks only").
class LocalClocks {
 public:
  void add(ClockId c) {
    if (c != 0) clocks_.push_back(c);
  }
  void add(std::span<const ClockConstraint> ccs) {
    clocks_.reserve(clocks_.size() + 2 * ccs.size());
    for (const ClockConstraint& cc : ccs) {
      add(cc.i);
      add(cc.j);
    }
  }
  /// Sort and deduplicate; call after the last add(), before slot().
  void seal() {
    std::sort(clocks_.begin(), clocks_.end());
    clocks_.erase(std::unique(clocks_.begin(), clocks_.end()), clocks_.end());
  }

  [[nodiscard]] uint32_t dimension() const noexcept {
    return static_cast<uint32_t>(clocks_.size()) + 1;
  }
  /// Global clock of slot `s` (1 <= s < dimension()).
  [[nodiscard]] ClockId clock(uint32_t s) const { return clocks_[s - 1]; }
  /// Slot of the reference clock or of an added clock.
  [[nodiscard]] uint32_t slot(ClockId c) const {
    if (c == 0) return 0;
    const auto it = std::lower_bound(clocks_.begin(), clocks_.end(), c);
    assert(it != clocks_.end() && *it == c && "clock was not added");
    return static_cast<uint32_t>(it - clocks_.begin()) + 1;
  }

 private:
  std::vector<ClockId> clocks_;
};

/// Integer assignment `base[index] := rhs` (index == kNoExpr for
/// scalars). Assignments on an edge execute in order, observing the
/// effects of earlier ones — UPPAAL's sequential assignment semantics.
struct Assign {
  VarId base = 0;
  ExprRef index = kNoExpr;
  int32_t arraySize = 1;
  ExprRef rhs = kNoExpr;
};

enum class Sync : uint8_t { kNone, kSend, kReceive };

enum class ChanKind : uint8_t { kBinary, kBroadcast };

struct Edge {
  LocId src = 0;
  LocId dst = 0;
  std::vector<ClockConstraint> clockGuard;
  ExprRef guard = kNoExpr;
  ChanId chan = -1;
  Sync sync = Sync::kNone;
  std::vector<ClockReset> resets;
  std::vector<Assign> assigns;
  /// Action label recorded in traces; sync edges default to the channel
  /// name decorated with ! or ?.
  std::string label;
};

struct Location {
  std::string name;
  std::vector<ClockConstraint> invariant;
  /// Urgent: time may not pass while any process is here.
  bool urgent = false;
  /// Committed: time may not pass AND the next transition must involve
  /// a committed process.
  bool committed = false;
};

}  // namespace ta
