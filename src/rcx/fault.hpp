// Adversarial RCX channel: a composable fault model for the inter-brick
// messaging and the plant units (paper §6: "the communication between
// the RCX bricks is unreliable and slow", and three modelling errors
// only surfaced when the synthesized program ran on the real plant).
//
// The simulator used to model exactly one fault — i.i.d. message loss
// at a fixed probability. A `FaultPlan` composes the misbehaviours a
// physical plant actually exhibits: per-direction loss (commands and
// acknowledgements fail independently), bursty loss (a Gilbert–Elliott
// two-state channel), message duplication, reordering, latency jitter,
// local-controller crash/restart, and per-unit clock drift. Each fault
// source draws from its own PRNG stream split off the trial seed, so
// enabling one fault never perturbs the random decisions of another —
// Monte-Carlo campaigns stay comparable trial-by-trial across plans.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <span>
#include <string>
#include <vector>

namespace rcx {

/// Gilbert–Elliott two-state loss model: the channel flips between a
/// Good and a Bad state once per carried message, and the loss
/// probability depends on the state. Captures the bursty dropouts of a
/// shared infrared medium that i.i.d. loss cannot (a retry storm right
/// after a loss is exactly when the channel is still bad).
struct GilbertElliott {
  double pGoodToBad = 0.0;  ///< P(Good -> Bad) evaluated per message
  double pBadToGood = 0.3;  ///< P(Bad -> Good) evaluated per message
  double lossGood = 0.0;    ///< loss probability while Good
  double lossBad = 1.0;     ///< loss probability while Bad

  [[nodiscard]] bool enabled() const noexcept { return pGoodToBad > 0.0; }
};

/// Local-controller crash/restart: a unit goes silent for `downTicks`
/// (it neither executes nor acknowledges anything; messages addressed
/// to it while down are lost — its pending command dies with it), then
/// restarts with no memory beyond its last-executed dedup id.
struct CrashPlan {
  double crashPerTick = 0.0;  ///< per-unit per-tick crash probability
  int64_t downTicks = 0;      ///< silence duration after a crash

  [[nodiscard]] bool enabled() const noexcept {
    return crashPerTick > 0.0 && downTicks > 0;
  }
};

/// The composed adversary. Default-constructed = a perfect channel.
struct FaultPlan {
  // -- Message loss ----------------------------------------------------
  double commandLossProb = 0.0;  ///< i.i.d. loss, central -> unit
  double ackLossProb = 0.0;      ///< i.i.d. loss, unit -> central
  GilbertElliott burst;          ///< bursty loss on top, both directions

  // -- Message mangling ------------------------------------------------
  double duplicateProb = 0.0;  ///< deliver a second copy (both directions)
  double reorderProb = 0.0;    ///< delay a message past its successors
  int32_t jitterTicks = 0;     ///< uniform extra latency in [0, jitter]

  // -- Unit faults -----------------------------------------------------
  CrashPlan crash;
  /// Per-unit clock skew magnitude in parts-per-million: each unit's
  /// action durations are scaled by a fixed factor drawn uniformly from
  /// [1 - ppm/1e6, 1 + ppm/1e6] at trial start (applied in physics).
  double driftPpm = 0.0;

  /// The legacy single-knob channel: i.i.d. loss at `p` in both
  /// directions, nothing else.
  [[nodiscard]] static FaultPlan iidLoss(double p) {
    FaultPlan f;
    f.commandLossProb = p;
    f.ackLossProb = p;
    return f;
  }

  [[nodiscard]] bool anyMessageFault() const noexcept {
    return commandLossProb > 0.0 || ackLossProb > 0.0 || burst.enabled() ||
           duplicateProb > 0.0 || reorderProb > 0.0 || jitterTicks > 0;
  }
};

/// One planned delivery of a message copy (relative to send time).
struct Delivery {
  int64_t extraTicks = 0;  ///< latency added on top of the base latency
};

/// The seeded adversarial channel. Every fault source owns an
/// independent mt19937_64 split off (seed, stream-tag) through
/// std::seed_seq, so the decision sequence of one source is a pure
/// function of (seed, its own call sequence) — composing in a new fault
/// leaves the others' decisions untouched.
class FaultChannel {
 public:
  FaultChannel(const FaultPlan& plan, uint64_t seed);

  /// Fate of one message: zero deliveries = lost, one = delivered,
  /// two = duplicated. `towardCentral` selects the ack direction.
  [[nodiscard]] std::vector<Delivery> offer(bool towardCentral);

  /// Draw the fixed clock-skew factor for one unit (stable per unit:
  /// the first call for a unit decides, later calls return the same).
  [[nodiscard]] double driftFactor(const std::string& unit);

  /// Advance the per-unit crash processes by one tick: each unit of
  /// `units` that is up draws one Bernoulli, in order. Returns the
  /// units that crashed at this tick (callers drop their state).
  std::vector<std::string> stepCrashes(int64_t tick,
                                       const std::vector<std::string>& units);

  /// The crash slot of `unit`, made on first use. A caller that steps
  /// the same units every tick resolves them once and passes the slots,
  /// so the per-tick step looks up no names.
  [[nodiscard]] int32_t crashSlot(const std::string& unit);
  [[nodiscard]] const std::string& slotUnit(int32_t slot) const {
    return slots_[static_cast<size_t>(slot)].unit;
  }
  /// stepCrashes over resolved slots: the same draws in the same
  /// order. Sets `crashed` to the slots that crashed at this tick.
  void stepCrashes(int64_t tick, std::span<const int32_t> slots,
                   std::vector<int32_t>* crashed);

  /// True while `unit` is crashed (silent) at `tick`.
  [[nodiscard]] bool isDown(const std::string& unit,
                            int64_t tick) const;

  // -- Splice support (replanning) -------------------------------------
  // A repair segment runs on a fresh channel (derived seed) but must
  // keep the physical state the aborted segment left behind: a unit's
  // clock does not change speed and a crashed unit stays silent across
  // the splice.

  /// Preset per-unit drift factors (from a PlantSnapshot); units not
  /// listed draw fresh factors on first use as usual.
  void presetDrift(const std::map<std::string, double>& factors) {
    for (const auto& [unit, f] : factors) drift_[unit] = f;
  }
  /// Preset crash downtime (absolute revival ticks) surviving a splice.
  void presetDownUntil(const std::map<std::string, int64_t>& down) {
    for (const auto& [unit, until] : down) {
      const int32_t slot = crashSlot(unit);
      slots_[static_cast<size_t>(slot)].downUntil = until;
    }
  }
  [[nodiscard]] const std::map<std::string, double>& driftMap()
      const noexcept {
    return drift_;
  }
  /// Every unit that crashed or was preset -> its (last) revival tick.
  [[nodiscard]] std::map<std::string, int64_t> downUntilMap() const;

  /// A Bernoulli(p) decision is `uniform_real_distribution<double>(0,
  /// 1)(rng) < p` on one engine draw. This is the largest draw for which
  /// it is true (p > 0), so `rng() <= maxFlipDraw(p)` is the same
  /// decision on the same draw. The crash process makes one decision
  /// per live unit per tick and compares draws against this instead of
  /// converting each to a double.
  [[nodiscard]] static uint64_t maxFlipDraw(double p);

  // -- Introspection (tests + campaign reporting) ----------------------
  [[nodiscard]] int64_t lossesCommand() const noexcept { return lossCmd_; }
  [[nodiscard]] int64_t lossesAck() const noexcept { return lossAck_; }
  [[nodiscard]] int64_t burstLosses() const noexcept { return lossBurst_; }
  [[nodiscard]] int64_t duplicates() const noexcept { return dups_; }
  [[nodiscard]] int64_t reorders() const noexcept { return reorders_; }
  [[nodiscard]] int64_t crashes() const noexcept { return crashes_; }
  [[nodiscard]] bool burstStateBad() const noexcept { return burstBad_; }

 private:
  /// Stream tags: each fault source's generator is seeded from
  /// seed_seq{seed_lo, seed_hi, tag} — fixed tags, stable across plans.
  enum Stream : uint32_t {
    kCmdLoss = 1,
    kAckLoss = 2,
    kBurst = 3,
    kDuplicate = 4,
    kReorder = 5,
    kJitter = 6,
    kCrash = 7,
    kDrift = 8,
  };

  [[nodiscard]] static std::mt19937_64 splitRng(uint64_t seed, uint32_t tag);
  [[nodiscard]] static bool flip(std::mt19937_64& rng, double p);

  FaultPlan plan_;
  uint64_t seed_;

  std::mt19937_64 cmdLossRng_, ackLossRng_, burstRng_, dupRng_, reorderRng_,
      jitterRng_, crashRng_, driftRng_;
  uint64_t maxCrashDraw_ = 0;  ///< maxFlipDraw(crash.crashPerTick)

  /// One unit's crash process: down while tick < downUntil.
  static constexpr int64_t kNeverDown = std::numeric_limits<int64_t>::min();
  struct CrashSlot {
    std::string unit;
    int64_t downUntil = kNeverDown;
  };

  bool burstBad_ = false;
  std::map<std::string, double> drift_;
  std::vector<CrashSlot> slots_;
  std::map<std::string, int32_t> slotOf_;

  int64_t lossCmd_ = 0, lossAck_ = 0, lossBurst_ = 0;
  int64_t dups_ = 0, reorders_ = 0, crashes_ = 0;
};

}  // namespace rcx
