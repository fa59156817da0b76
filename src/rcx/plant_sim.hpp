// Glue: run a synthesized central-controller program against the
// simulated physical plant over a lossy RCX-style message channel.
//
// This is the reproduction of paper §6: "The synthesized program will
// run in a central controller sending commands to the distributed local
// controllers... the only feedback from the local controllers are
// acknowledgements of commands received."
//
// The channel between the controllers is an adversarial `FaultChannel`
// (see rcx/fault.hpp): per-direction loss, bursty loss, duplication,
// reordering, jitter, local-controller crashes, and per-unit clock
// drift, each drawing from an independent split of the trial seed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "plant/config.hpp"
#include "rcx/fault.hpp"
#include "rcx/physics.hpp"
#include "rcx/snapshot.hpp"
#include "synthesis/rcx_codegen.hpp"

namespace rcx {

struct SimOptions {
  /// Legacy single-knob channel: i.i.d. loss probability applied to
  /// both directions, folded into `faults` at run start. Prefer
  /// `faults` for anything richer.
  double messageLossProb = 0.01;
  /// The composed adversary (defaults to a perfect channel; the
  /// legacy knob above is added on top).
  FaultPlan faults;
  uint64_t seed = 42;
  /// Physical tolerance for the timing checks (continuity, deadline):
  /// the command segments and retries make the program drift a little
  /// relative to the ideal schedule, just as the real plant tolerates
  /// small deviations.
  int64_t slackTicks = 600;

  // -- Replanning support (see replan/controller.hpp) ------------------

  /// Classify fatal deviations (watchdog halt, physics error) and end
  /// the run with a quiesced PlantSnapshot in SimResult::snapshot
  /// instead of limping on to the drain phase.
  bool snapshotOnFatal = false;
  /// Resume mid-run from a snapshot: the physics adopts its state, the
  /// channel presets its drift factors and crash downtimes, and the
  /// tick count continues from `startTick` (absolute).
  const PlantSnapshot* resume = nullptr;
  int64_t startTick = 0;

  /// The fault plan actually applied: `faults` with the legacy i.i.d.
  /// knob folded into both directions.
  [[nodiscard]] FaultPlan effectiveFaults() const {
    FaultPlan f = faults;
    f.commandLossProb = std::min(1.0, f.commandLossProb + messageLossProb);
    f.ackLossProb = std::min(1.0, f.ackLossProb + messageLossProb);
    return f;
  }
};

struct SimResult {
  bool programCompleted = false;
  bool allExited = false;
  /// The hardened program's watchdog gave up on a silent unit and
  /// halted (programCompleted is false in that case).
  bool watchdogHalted = false;
  std::vector<SimError> errors;
  int64_t ticks = 0;
  int64_t exited = 0;
  // Channel statistics.
  int64_t commandsSent = 0;     ///< SendPBMessage executions (incl. resends)
  int64_t commandsLost = 0;     ///< i.i.d. + burst losses, central -> unit
  int64_t acksLost = 0;         ///< i.i.d. + burst losses, unit -> central
  int64_t duplicatesIgnored = 0;  ///< resends/dup copies the units deduped
  int64_t duplicatesInjected = 0;  ///< channel-duplicated message copies
  int64_t reordered = 0;        ///< messages delayed past their successors
  int64_t crashes = 0;          ///< local-controller crash events
  int64_t crashDropped = 0;     ///< messages dropped at/to a crashed unit

  // -- Deviation classification + concrete end-state ------------------
  /// kNone: clean; kRecoverable: faults manifested but the hardened
  /// layer absorbed them; kWatchdogHalt / kPhysicsError: fatal (the
  /// run stopped early; `snapshot` is set when snapshotOnFatal was on).
  DeviationKind deviation = DeviationKind::kNone;
  std::string deviationDetail;
  std::optional<PlantSnapshot> snapshot;

  /// Per-unit drifted-clock factors the channel drew this run.
  std::map<std::string, double> unitDrift;
  /// Per-unit dedup state (last executed message id).
  std::map<std::string, int32_t> lastExecuted;
  /// Messages still in the air when the run ended (normally empty:
  /// the main loop drains the ether before finishing).
  std::vector<InFlightMsg> inFlight;

  [[nodiscard]] bool ok() const {
    return programCompleted && allExited && errors.empty();
  }
};

/// Execute the program in the simulated plant. `ticksPerTimeUnit` must
/// match the value used at synthesis time. Results are exact per tick,
/// but the loop only runs the ticks at which something can change
/// (DESIGN.md, "Plant simulation loop").
[[nodiscard]] SimResult runProgram(const synthesis::RcxProgram& program,
                                   const plant::PlantConfig& cfg,
                                   int32_t ticksPerTimeUnit = 100,
                                   const SimOptions& opts = {});

}  // namespace rcx
