#include "rcx/fault.hpp"

namespace rcx {

FaultChannel::FaultChannel(const FaultPlan& plan, uint64_t seed)
    : plan_(plan),
      seed_(seed),
      cmdLossRng_(splitRng(seed, kCmdLoss)),
      ackLossRng_(splitRng(seed, kAckLoss)),
      burstRng_(splitRng(seed, kBurst)),
      dupRng_(splitRng(seed, kDuplicate)),
      reorderRng_(splitRng(seed, kReorder)),
      jitterRng_(splitRng(seed, kJitter)),
      crashRng_(splitRng(seed, kCrash)),
      driftRng_(splitRng(seed, kDrift)) {
  if (plan_.crash.enabled()) {
    maxCrashDraw_ = maxFlipDraw(plan_.crash.crashPerTick);
  }
}

std::mt19937_64 FaultChannel::splitRng(uint64_t seed, uint32_t tag) {
  // seed_seq mixes all words, so (seed, tag) pairs give uncorrelated
  // streams even for adjacent seeds and tags.
  std::seed_seq seq{static_cast<uint32_t>(seed & 0xffffffffu),
                    static_cast<uint32_t>(seed >> 32), tag};
  return std::mt19937_64(seq);
}

bool FaultChannel::flip(std::mt19937_64& rng, double p) {
  if (p <= 0.0) return false;
  return std::uniform_real_distribution<double>(0.0, 1.0)(rng) < p;
}

namespace {

/// An engine with mt19937_64's range that returns one fixed draw.
struct FixedDraw {
  using result_type = std::mt19937_64::result_type;
  result_type x;
  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }
  result_type operator()() const { return x; }
};

}  // namespace

uint64_t FaultChannel::maxFlipDraw(double p) {
  // flip() maps its one engine draw x to a double in [0, 1) by a
  // monotone conversion, so flip is true exactly for the draws up to
  // some threshold. Find it by bisection on flip's own arithmetic.
  const auto flips = [p](uint64_t x) {
    FixedDraw e{x};
    return std::uniform_real_distribution<double>(0.0, 1.0)(e) < p;
  };
  uint64_t lo = FixedDraw::min();  // flips (p > 0)
  uint64_t hi = FixedDraw::max();
  if (flips(hi)) return hi;
  while (hi - lo > 1) {  // flips(lo) && !flips(hi)
    const uint64_t mid = lo + (hi - lo) / 2;
    (flips(mid) ? lo : hi) = mid;
  }
  return lo;
}

std::vector<Delivery> FaultChannel::offer(bool towardCentral) {
  std::vector<Delivery> out;

  // Direction-specific i.i.d. loss. Each direction consumes only its
  // own stream: an ack decision never advances the command stream.
  if (towardCentral) {
    if (flip(ackLossRng_, plan_.ackLossProb)) {
      ++lossAck_;
      return out;
    }
  } else {
    if (flip(cmdLossRng_, plan_.commandLossProb)) {
      ++lossCmd_;
      return out;
    }
  }

  // Bursty loss: one Gilbert–Elliott chain shared by both directions
  // (the physical medium is shared), stepped once per carried message.
  if (plan_.burst.enabled()) {
    burstBad_ = burstBad_ ? !flip(burstRng_, plan_.burst.pBadToGood)
                          : flip(burstRng_, plan_.burst.pGoodToBad);
    const double p = burstBad_ ? plan_.burst.lossBad : plan_.burst.lossGood;
    if (flip(burstRng_, p)) {
      ++lossBurst_;
      return out;
    }
  }

  Delivery first;
  if (plan_.jitterTicks > 0) {
    first.extraTicks = std::uniform_int_distribution<int32_t>(
        0, plan_.jitterTicks)(jitterRng_);
  }
  // Reordering: push this message past later traffic by an extra
  // jitter-window delay — the in-flight queue delivers strictly by due
  // tick, so a penalized message genuinely arrives after its
  // successors.
  if (flip(reorderRng_, plan_.reorderProb)) {
    ++reorders_;
    first.extraTicks += std::max<int32_t>(plan_.jitterTicks, 8) * 4;
  }
  out.push_back(first);

  if (flip(dupRng_, plan_.duplicateProb)) {
    ++dups_;
    Delivery dup = first;
    // The copy trails the original by a small offset (a retransmit echo
    // or a reflection, not a simultaneous twin).
    dup.extraTicks +=
        1 + std::uniform_int_distribution<int32_t>(
                0, std::max<int32_t>(plan_.jitterTicks, 4))(dupRng_);
    out.push_back(dup);
  }
  return out;
}

double FaultChannel::driftFactor(const std::string& unit) {
  // Preset factors (replan splice) win even when the plan draws none.
  const auto it = drift_.find(unit);
  if (it != drift_.end()) return it->second;
  if (plan_.driftPpm <= 0.0) return 1.0;
  const double ppm = std::uniform_real_distribution<double>(
      -plan_.driftPpm, plan_.driftPpm)(driftRng_);
  const double f = 1.0 + ppm / 1e6;
  drift_.emplace(unit, f);
  return f;
}

std::vector<std::string> FaultChannel::stepCrashes(
    int64_t tick, const std::vector<std::string>& units) {
  if (!plan_.crash.enabled()) return {};
  std::vector<int32_t> slots;
  slots.reserve(units.size());
  for (const std::string& u : units) slots.push_back(crashSlot(u));
  std::vector<int32_t> crashedSlots;
  stepCrashes(tick, slots, &crashedSlots);
  std::vector<std::string> crashed;
  for (const int32_t s : crashedSlots) crashed.push_back(slotUnit(s));
  return crashed;
}

int32_t FaultChannel::crashSlot(const std::string& unit) {
  const auto [it, fresh] =
      slotOf_.try_emplace(unit, static_cast<int32_t>(slots_.size()));
  if (fresh) slots_.push_back(CrashSlot{unit});
  return it->second;
}

void FaultChannel::stepCrashes(int64_t tick, std::span<const int32_t> slots,
                               std::vector<int32_t>* crashed) {
  crashed->clear();
  if (!plan_.crash.enabled()) return;
  for (const int32_t s : slots) {
    CrashSlot& slot = slots_[static_cast<size_t>(s)];
    if (tick < slot.downUntil) continue;  // still down
    // flip(crashRng_, crashPerTick), without the conversion to double.
    if (crashRng_() <= maxCrashDraw_) {
      slot.downUntil = tick + plan_.crash.downTicks;
      ++crashes_;
      crashed->push_back(s);
    }
  }
}

bool FaultChannel::isDown(const std::string& unit, int64_t tick) const {
  const auto it = slotOf_.find(unit);
  return it != slotOf_.end() &&
         tick < slots_[static_cast<size_t>(it->second)].downUntil;
}

std::map<std::string, int64_t> FaultChannel::downUntilMap() const {
  std::map<std::string, int64_t> out;
  for (const CrashSlot& s : slots_) {
    if (s.downUntil != kNeverDown) out.emplace(s.unit, s.downUntil);
  }
  return out;
}

}  // namespace rcx
