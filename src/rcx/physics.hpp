// The physical plant, simulated at fine-grained tick resolution — our
// stand-in for the paper's LEGO MINDSTORMS plant (§6). Ticks are exact,
// but callers only step the ticks nextEventTick() names.
//
// The physics executes unit commands ("Track1Right", "Pickup3",
// "Start2", ...) with real durations, moves cranes continuously along
// the shared overhead track, and checks every physical invariant the
// LEGO plant enforces the hard way: one ladle per slot, no crane
// overtaking or near-collision, no horizontal movement while hoisting,
// continuous casting, the steel temperature deadline, and nothing left
// behind at the end of the run.  Violations are collected as SimErrors
// (the paper found three modelling errors exactly this way).
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "plant/config.hpp"
#include "rcx/snapshot.hpp"

namespace rcx {

struct SimError {
  int64_t tick = 0;
  std::string what;
};

class PlantPhysics {
 public:
  PlantPhysics(const plant::PlantConfig& cfg, int32_t ticksPerUnit,
               int64_t slackTicks);

  /// Execute a command arriving at `tick`. Physical impossibilities are
  /// recorded as errors; the unit still acknowledges receipt (the
  /// paper's plant gives no richer feedback).
  void command(const std::string& unit, const std::string& cmd, int64_t tick);

  /// Advance the plant by one tick (complete moves/lifts/casts, update
  /// crane positions, check for collisions).
  void step(int64_t tick);

  /// The first tick after `now` at which step() can change anything: a
  /// track move, crane move, hoist or cast completes, or the moving
  /// cranes may come too close. step() is a no-op at every tick in
  /// between. Call after step(now); INT64_MAX when nothing is pending.
  [[nodiscard]] int64_t nextEventTick(int64_t now) const;

  /// End-of-program checks: every ladle out, caster empty, machines off.
  void finish(int64_t tick);

  /// Per-unit clock drift (fault injection): every action duration of
  /// `unit` is scaled by the factor the provider returns for it (1.0 =
  /// a perfect local clock). Lazily consulted once per started action,
  /// so the provider may draw the factor on first use.
  void setDriftProvider(std::function<double(const std::string&)> provider) {
    drift_ = std::move(provider);
  }

  [[nodiscard]] const std::vector<SimError>& errors() const noexcept {
    return errors_;
  }
  [[nodiscard]] int64_t exitedCount() const noexcept;
  [[nodiscard]] bool allExited() const noexcept;

  // -- Snapshot / resume (replanning support) ------------------------

  /// No transient action in progress: every ladle stands on a slot or
  /// pad, hangs from a stationary crane, or sits in the caster.
  /// Casting and machine treatments may be running — they are
  /// interruptible states the model can express.
  [[nodiscard]] bool quiescent() const noexcept;

  /// Fill the physical-plant portion of a snapshot (loads, cranes,
  /// caster). Call only when quiescent(); channel/controller fields
  /// are the simulator's to fill.
  void capture(PlantSnapshot* out) const;

  /// Adopt the physical state of a snapshot, replacing the initial
  /// all-at-the-converter state. Timing baselines (pour ticks, cast
  /// start) are absolute ticks and stay valid because resumed
  /// simulations continue the absolute tick count.
  void restore(const PlantSnapshot& snap);

  // -- Introspection for tests ---------------------------------------
  [[nodiscard]] int64_t cranePosMilli(int c) const;
  [[nodiscard]] bool loadExited(int b) const;
  [[nodiscard]] bool loadInCaster(int b) const;

 private:
  struct Load {
    enum class Where {
      kNone,
      kTrack,
      kTrackMoving,
      kGround,   ///< on a crane-served pad (buffer/hold/castout/storage)
      kLifting,
      kOnCrane,
      kLowering,
      kInCaster,
      kExited,
    };
    Where where = Where::kNone;
    int32_t track = 0, slot = 0, toSlot = 0;
    int32_t groundK = 0;
    int32_t crane = -1;
    int64_t actionDone = 0;
    int64_t pourTick = -1;
    // Treatment bookkeeping for state lifting (replan/lift.cpp).
    int32_t treatmentsDone = 0;
    int32_t lastMachine = 0;     ///< id of last completed treatment (0: none)
    int64_t treatStart = -1;     ///< tick the running treatment started
  };

  struct Crane {
    int64_t basePos = 0;  ///< milli-positions (1000 per overhead slot)
    bool moving = false;
    int32_t dir = 0;
    int64_t moveStart = 0, moveDone = 0;
    bool lifting = false, lowering = false;
    int64_t hoistDone = 0;
    int32_t hoistLoad = -1, hoistK = -1;
    int32_t carrying = -1;
  };

  struct Machine {
    bool on = false;
    int32_t load = -1;
    int64_t onTick = 0;
  };

  void fail(int64_t tick, std::string what) {
    errors_.push_back(SimError{tick, std::move(what)});
  }

  /// `ticks` stretched (or shrunk) by the unit's clock-drift factor.
  [[nodiscard]] int64_t drifted(const std::string& unit,
                                int64_t ticks) const {
    if (!drift_) return ticks;
    return static_cast<int64_t>(
        std::llround(static_cast<double>(ticks) * drift_(unit)));
  }

  [[nodiscard]] bool trackSlotOccupied(int32_t track, int32_t slot) const;
  [[nodiscard]] bool groundOccupied(int32_t k) const;
  /// Load standing (not moving/lifting) at ground position k, or -1.
  [[nodiscard]] int32_t loadAtGround(int32_t k) const;
  [[nodiscard]] int64_t cranePosAt(const Crane& c, int64_t tick) const;

  plant::PlantConfig cfg_;
  int64_t tpu_;    ///< ticks per model time unit
  int64_t slack_;  ///< tolerance for timing checks, in ticks

  std::vector<Load> loads_;
  Crane cranes_[plant::kNumCranes];
  Machine machines_[5];
  int32_t casting_ = -1;       ///< batch currently in the caster
  bool castComplete_ = false;  ///< casting done, awaiting eject
  int64_t castDone_ = 0;
  int64_t castStart_ = -1;
  int64_t lastCastEnd_ = -1;
  int32_t castsDone_ = 0;
  bool collisionReported_ = false;
  std::function<double(const std::string&)> drift_;
  std::vector<SimError> errors_;
};

}  // namespace rcx
