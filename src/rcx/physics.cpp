#include "rcx/physics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace rcx {

namespace {

constexpr int64_t kMilli = 1000;  ///< milli-positions per overhead slot

/// Parse a trailing integer ("Pickup3" -> 3, "Start12" -> 12).
std::optional<int32_t> trailingInt(const std::string& s, size_t prefixLen) {
  if (s.size() <= prefixLen) return std::nullopt;
  int32_t v = 0;
  for (size_t i = prefixLen; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') return std::nullopt;
    v = v * 10 + (s[i] - '0');
  }
  return v;
}

/// Track/slot of the ground pad under overhead position k; pads that
/// are not track slots return track 0.
struct GroundRef {
  int32_t track;
  int32_t slot;  // valid when track != 0
};

GroundRef groundRef(int32_t k) {
  switch (k) {
    case plant::kOverT1Out: return {1, plant::kT1Out};
    case plant::kOverT2Out: return {2, plant::kT2Out};
    default: return {0, 0};
  }
}

}  // namespace

PlantPhysics::PlantPhysics(const plant::PlantConfig& cfg, int32_t ticksPerUnit,
                           int64_t slackTicks)
    : cfg_(cfg),
      tpu_(ticksPerUnit),
      slack_(slackTicks),
      loads_(static_cast<size_t>(cfg.numBatches())) {
  cranes_[0].basePos = plant::kOverT1Out * kMilli;
  cranes_[1].basePos = plant::kOverCastOut * kMilli;
}

bool PlantPhysics::trackSlotOccupied(int32_t track, int32_t slot) const {
  for (const Load& l : loads_) {
    if (l.where == Load::Where::kTrack && l.track == track && l.slot == slot)
      return true;
    if (l.where == Load::Where::kTrackMoving && l.track == track &&
        (l.slot == slot || l.toSlot == slot))
      return true;
    // A ladle being lifted from / lowered onto a track slot still
    // occupies it.
    if ((l.where == Load::Where::kLifting ||
         l.where == Load::Where::kLowering)) {
      const GroundRef g = groundRef(l.groundK);
      if (g.track == track && g.slot == slot) return true;
    }
  }
  return false;
}

bool PlantPhysics::groundOccupied(int32_t k) const {
  if (k == plant::kOverStorage) return false;  // unbounded pad
  const GroundRef g = groundRef(k);
  if (g.track != 0) return trackSlotOccupied(g.track, g.slot);
  for (const Load& l : loads_) {
    if ((l.where == Load::Where::kGround ||
         l.where == Load::Where::kLifting ||
         l.where == Load::Where::kLowering) &&
        l.groundK == k) {
      return true;
    }
  }
  return false;
}

int32_t PlantPhysics::loadAtGround(int32_t k) const {
  const GroundRef g = groundRef(k);
  for (size_t b = 0; b < loads_.size(); ++b) {
    const Load& l = loads_[b];
    if (g.track != 0) {
      if (l.where == Load::Where::kTrack && l.track == g.track &&
          l.slot == g.slot) {
        return static_cast<int32_t>(b);
      }
    } else if (l.where == Load::Where::kGround && l.groundK == k) {
      return static_cast<int32_t>(b);
    }
  }
  return -1;
}

int64_t PlantPhysics::cranePosAt(const Crane& c, int64_t tick) const {
  if (!c.moving) return c.basePos;
  const int64_t dur = c.moveDone - c.moveStart;
  const int64_t t = std::min(tick, c.moveDone) - c.moveStart;
  return c.basePos + c.dir * kMilli * t / std::max<int64_t>(dur, 1);
}

void PlantPhysics::command(const std::string& unit, const std::string& cmd,
                           int64_t tick) {
  // ---- Load commands: Pour / Track moves / Machine on-off / Exit. ----
  if (unit.rfind("Load", 0) == 0) {
    const auto bOpt = trailingInt(unit, 4);
    if (!bOpt || *bOpt < 1 || *bOpt > cfg_.numBatches()) {
      fail(tick, "command for unknown unit " + unit);
      return;
    }
    const int32_t b = *bOpt - 1;
    Load& l = loads_[static_cast<size_t>(b)];

    if (cmd.rfind("Pour", 0) == 0) {
      const auto t = trailingInt(cmd, 4);
      if (!t || (*t != 1 && *t != 2)) return fail(tick, unit + ": bad " + cmd);
      if (l.where != Load::Where::kNone)
        return fail(tick, unit + " poured twice");
      if (trackSlotOccupied(*t, 0))
        return fail(tick, unit + " poured onto an occupied converter slot");
      l.where = Load::Where::kTrack;
      l.track = *t;
      l.slot = 0;
      l.pourTick = tick;
      return;
    }
    if (cmd.rfind("Track", 0) == 0 && cmd.size() > 6) {
      const int32_t t = cmd[5] - '0';
      const bool right = cmd.substr(6) == "Right";
      const bool left = cmd.substr(6) == "Left";
      if ((t != 1 && t != 2) || (!right && !left))
        return fail(tick, unit + ": bad " + cmd);
      if (l.where != Load::Where::kTrack || l.track != t)
        return fail(tick, unit + " not standing on track " +
                              std::to_string(t) + " for " + cmd);
      const int32_t slots = t == 1 ? plant::kT1Slots : plant::kT2Slots;
      const int32_t to = l.slot + (right ? 1 : -1);
      if (to < 0 || to >= slots)
        return fail(tick, unit + " driven off the end of track " +
                              std::to_string(t));
      if (trackSlotOccupied(t, to))
        return fail(tick, unit + " moved into occupied slot " +
                              std::to_string(to) + " of track " +
                              std::to_string(t));
      l.where = Load::Where::kTrackMoving;
      l.toSlot = to;
      l.actionDone = tick + drifted(unit, cfg_.bmove * tpu_);
      return;
    }
    if (cmd.rfind("Machine", 0) == 0 && cmd.size() > 8) {
      const int32_t m = cmd[7] - '0';
      if (m < 1 || m > 5) return fail(tick, unit + ": bad " + cmd);
      const plant::MachineInfo& info = plant::kMachines[m - 1];
      Machine& mach = machines_[m - 1];
      const bool on = cmd.substr(8) == "On";
      if (on) {
        if (mach.on)
          return fail(tick, "machine " + std::to_string(m) +
                                " turned on while already running");
        if (l.where != Load::Where::kTrack || l.track != info.track ||
            l.slot != info.slot) {
          return fail(tick, unit + " not in machine " + std::to_string(m) +
                                " when it was turned on");
        }
        mach.on = true;
        mach.load = b;
        mach.onTick = tick;
        l.treatStart = tick;
      } else {
        if (!mach.on || mach.load != b)
          return fail(tick, "machine " + std::to_string(m) +
                                " turned off but not treating " + unit);
        mach.on = false;
        mach.load = -1;
        ++l.treatmentsDone;
        l.lastMachine = m;
        l.treatStart = -1;
      }
      return;
    }
    if (cmd == "Exit") {
      if (l.where != Load::Where::kGround ||
          l.groundK != plant::kOverStorage) {
        return fail(tick, unit + " told to exit but not at the storage place");
      }
      l.where = Load::Where::kExited;
      return;
    }
    return fail(tick, unit + ": unknown command " + cmd);
  }

  // ---- Crane commands. ------------------------------------------------
  if (unit.rfind("Crane", 0) == 0) {
    const auto cOpt = trailingInt(unit, 5);
    if (!cOpt || *cOpt < 1 || *cOpt > plant::kNumCranes)
      return fail(tick, "command for unknown unit " + unit);
    Crane& c = cranes_[*cOpt - 1];

    if (cmd == "Move1Left" || cmd == "Move1Right") {
      if (c.lifting || c.lowering) {
        // The paper's first modelling error showed up exactly here.
        return fail(tick, unit + " commanded to move while hoisting");
      }
      if (c.moving) return fail(tick, unit + " commanded to move while moving");
      const int32_t dir = cmd == "Move1Right" ? 1 : -1;
      const int64_t target = c.basePos + dir * kMilli;
      if (target < 0 || target > (plant::kCranePositions - 1) * kMilli)
        return fail(tick, unit + " driven off the overhead track");
      c.moving = true;
      c.dir = dir;
      c.moveStart = tick;
      c.moveDone = tick + drifted(unit, cfg_.cmove * tpu_);
      return;
    }
    if (cmd.rfind("Pickup", 0) == 0) {
      const auto k = trailingInt(cmd, 6);
      if (!k || *k < 0 || *k >= plant::kCranePositions)
        return fail(tick, unit + ": bad " + cmd);
      if (c.moving) return fail(tick, unit + " picking up while moving");
      if (c.lifting || c.lowering)
        return fail(tick, unit + " picking up while hoisting");
      if (c.carrying >= 0)
        return fail(tick, unit + " picking up while already loaded");
      if (c.basePos != *k * kMilli)
        return fail(tick, unit + " not over position " + std::to_string(*k) +
                              " for " + cmd);
      const int32_t b = loadAtGround(*k);
      if (b < 0)
        return fail(tick, unit + " pickup at position " + std::to_string(*k) +
                              " with no ladle present");
      c.lifting = true;
      c.hoistDone = tick + drifted(unit, cfg_.cupdown * tpu_);
      c.hoistLoad = b;
      c.hoistK = *k;
      Load& l = loads_[static_cast<size_t>(b)];
      l.where = Load::Where::kLifting;
      l.groundK = *k;
      l.crane = *cOpt - 1;
      return;
    }
    if (cmd.rfind("Putdown", 0) == 0) {
      const auto k = trailingInt(cmd, 7);
      if (!k || *k < 0 || *k >= plant::kCranePositions)
        return fail(tick, unit + ": bad " + cmd);
      if (c.moving) return fail(tick, unit + " putting down while moving");
      if (c.lifting || c.lowering)
        return fail(tick, unit + " putting down while hoisting");
      if (c.carrying < 0) return fail(tick, unit + " putting down but empty");
      if (c.basePos != *k * kMilli)
        return fail(tick, unit + " not over position " + std::to_string(*k) +
                              " for " + cmd);
      if (groundOccupied(*k))
        return fail(tick, unit + " putting down onto occupied position " +
                              std::to_string(*k));
      c.lowering = true;
      c.hoistDone = tick + drifted(unit, cfg_.cupdown * tpu_);
      c.hoistLoad = c.carrying;
      c.hoistK = *k;
      Load& l = loads_[static_cast<size_t>(c.carrying)];
      l.where = Load::Where::kLowering;
      l.groundK = *k;
      c.carrying = -1;
      return;
    }
    return fail(tick, unit + ": unknown command " + cmd);
  }

  // ---- Caster commands. -------------------------------------------------
  if (unit == "Caster") {
    if (cmd.rfind("Start", 0) == 0) {
      const auto bOpt = trailingInt(cmd, 5);
      if (!bOpt || *bOpt < 1 || *bOpt > cfg_.numBatches())
        return fail(tick, "Caster: bad " + cmd);
      const int32_t b = *bOpt - 1;
      Load& l = loads_[static_cast<size_t>(b)];
      if (casting_ >= 0)
        return fail(tick, "casting started while the caster is occupied");
      if (l.where != Load::Where::kGround || l.groundK != plant::kOverHold)
        return fail(tick, "casting of Load" + std::to_string(b + 1) +
                              " started but it is not at the holding place");
      if (lastCastEnd_ >= 0 &&
          tick > lastCastEnd_ + cfg_.castGap * tpu_ + slack_) {
        fail(tick, "casting continuity violated: caster idle for " +
                       std::to_string(tick - lastCastEnd_) + " ticks");
      }
      casting_ = b;
      castComplete_ = false;
      castStart_ = tick;
      castDone_ = tick + drifted(unit, cfg_.tcast * tpu_);
      l.where = Load::Where::kInCaster;
      return;
    }
    if (cmd.rfind("Eject", 0) == 0) {
      const auto bOpt = trailingInt(cmd, 5);
      if (!bOpt || *bOpt < 1 || *bOpt > cfg_.numBatches())
        return fail(tick, "Caster: bad " + cmd);
      const int32_t b = *bOpt - 1;
      if (casting_ != b)
        return fail(tick, "eject of Load" + std::to_string(b + 1) +
                              " but it is not in the caster");
      if (!castComplete_)
        return fail(tick, "Load" + std::to_string(b + 1) +
                              " ejected before casting completed");
      if (groundOccupied(plant::kOverCastOut))
        return fail(tick, "eject onto an occupied output slot");
      Load& l = loads_[static_cast<size_t>(b)];
      l.where = Load::Where::kGround;
      l.groundK = plant::kOverCastOut;
      casting_ = -1;
      ++castsDone_;
      return;
    }
    return fail(tick, "Caster: unknown command " + cmd);
  }

  fail(tick, "command for unknown unit " + unit);
}

void PlantPhysics::step(int64_t tick) {
  // Complete track moves.
  for (size_t b = 0; b < loads_.size(); ++b) {
    Load& l = loads_[b];
    if (l.where == Load::Where::kTrackMoving && tick >= l.actionDone) {
      l.slot = l.toSlot;
      l.where = Load::Where::kTrack;
    }
  }
  // Cranes: arrive, finish hoists, check proximity.
  for (Crane& c : cranes_) {
    if (c.moving && tick >= c.moveDone) {
      c.basePos += c.dir * kMilli;
      c.moving = false;
    }
    if ((c.lifting || c.lowering) && tick >= c.hoistDone) {
      Load& l = loads_[static_cast<size_t>(c.hoistLoad)];
      if (c.lifting) {
        l.where = Load::Where::kOnCrane;
        c.carrying = c.hoistLoad;
      } else {
        l.where = Load::Where::kGround;  // groundRef maps track pads back
        if (const GroundRef g = groundRef(l.groundK); g.track != 0) {
          l.where = Load::Where::kTrack;
          l.track = g.track;
          l.slot = g.slot;
        }
      }
      c.lifting = c.lowering = false;
      c.hoistLoad = -1;
    }
  }
  // Casting completes (the ladle stays inside until ejected).
  if (casting_ >= 0 && !castComplete_ && tick >= castDone_) {
    castComplete_ = true;
    lastCastEnd_ = castDone_;
    const Load& l = loads_[static_cast<size_t>(casting_)];
    if (l.pourTick >= 0 &&
        castDone_ - l.pourTick > cfg_.rtotal * tpu_ + slack_) {
      fail(tick, "Load" + std::to_string(casting_ + 1) +
                     " exceeded the maximum time in the plant");
    }
  }
  // Crane proximity: the two cranes share one track and cannot pass or
  // touch; flag sustained proximity below one full position.
  const int64_t p0 = cranePosAt(cranes_[0], tick);
  const int64_t p1 = cranePosAt(cranes_[1], tick);
  if (!collisionReported_ && std::llabs(p1 - p0) < kMilli - 10) {
    collisionReported_ = true;
    fail(tick, "crane collision: cranes " + std::to_string(p0) + " and " +
                   std::to_string(p1) + " milli-positions");
  }
}

int64_t PlantPhysics::nextEventTick(int64_t now) const {
  int64_t next = std::numeric_limits<int64_t>::max();
  for (const Load& l : loads_) {
    if (l.where == Load::Where::kTrackMoving) {
      next = std::min(next, l.actionDone);
    }
  }
  bool anyMoving = false;
  for (const Crane& c : cranes_) {
    if (c.moving) next = std::min(next, c.moveDone);
    if (c.lifting || c.lowering) next = std::min(next, c.hoistDone);
    anyMoving = anyMoving || c.moving;
  }
  if (casting_ >= 0 && !castComplete_) next = std::min(next, castDone_);
  next = std::max(next, now + 1);
  // Crane proximity is the one check step() makes at every tick. Until
  // `next` no move starts or ends, so each crane's position is monotone
  // and stays between its positions at `now` and at `next`: if those
  // two ranges are kMilli - 10 apart, no tick in between can fail.
  if (anyMoving && !collisionReported_ && next > now + 1) {
    const int64_t a0 = cranePosAt(cranes_[0], now);
    const int64_t b0 = cranePosAt(cranes_[0], next);
    const int64_t a1 = cranePosAt(cranes_[1], now);
    const int64_t b1 = cranePosAt(cranes_[1], next);
    const int64_t gap = std::max(std::min(a1, b1) - std::max(a0, b0),
                                 std::min(a0, b0) - std::max(a1, b1));
    if (gap < kMilli - 10) return now + 1;
  }
  return next;
}

void PlantPhysics::finish(int64_t tick) {
  for (size_t b = 0; b < loads_.size(); ++b) {
    const Load& l = loads_[b];
    if (l.where == Load::Where::kInCaster) {
      fail(tick, "Load" + std::to_string(b + 1) +
                     " left inside the casting machine at program end");
    } else if (l.where != Load::Where::kExited) {
      fail(tick, "Load" + std::to_string(b + 1) +
                     " did not leave the plant (state " +
                     std::to_string(static_cast<int>(l.where)) + ")");
    }
  }
  for (int m = 0; m < 5; ++m) {
    if (machines_[m].on) {
      fail(tick, "machine " + std::to_string(m + 1) + " left running");
    }
  }
}

bool PlantPhysics::quiescent() const noexcept {
  for (const Load& l : loads_) {
    if (l.where == Load::Where::kTrackMoving ||
        l.where == Load::Where::kLifting ||
        l.where == Load::Where::kLowering) {
      return false;
    }
  }
  for (const Crane& c : cranes_) {
    if (c.moving || c.lifting || c.lowering) return false;
  }
  return true;
}

void PlantPhysics::capture(PlantSnapshot* out) const {
  out->loads.clear();
  out->loads.reserve(loads_.size());
  for (const Load& l : loads_) {
    LoadSnapshot s;
    switch (l.where) {
      case Load::Where::kNone: s.place = LoadSnapshot::Place::kNotPoured; break;
      case Load::Where::kTrack:
      // Non-quiescent fallbacks (the capture deadline expired with an
      // action still running): the source slot / pad still holds the
      // ladle, so the conservative standing place is sound.
      case Load::Where::kTrackMoving:
        s.place = LoadSnapshot::Place::kTrack;
        s.track = l.track;
        s.slot = l.slot;
        break;
      case Load::Where::kGround:
      case Load::Where::kLifting:
      case Load::Where::kLowering:
        s.place = LoadSnapshot::Place::kGround;
        s.groundK = l.groundK;
        break;
      case Load::Where::kOnCrane:
        s.place = LoadSnapshot::Place::kOnCrane;
        s.crane = l.crane;
        break;
      case Load::Where::kInCaster: s.place = LoadSnapshot::Place::kInCaster; break;
      case Load::Where::kExited: s.place = LoadSnapshot::Place::kExited; break;
    }
    s.pourTick = l.pourTick;
    s.treatmentsDone = l.treatmentsDone;
    s.lastMachine = l.lastMachine;
    out->loads.push_back(s);
  }
  for (int m = 0; m < 5; ++m) {
    if (machines_[m].on && machines_[m].load >= 0) {
      LoadSnapshot& s = out->loads[static_cast<size_t>(machines_[m].load)];
      s.treatingMachine = m + 1;
      s.treatStartTick = machines_[m].onTick;
    }
  }
  for (int c = 0; c < plant::kNumCranes; ++c) {
    out->cranes[c].pos = static_cast<int32_t>(cranes_[c].basePos / 1000);
    out->cranes[c].carrying = cranes_[c].carrying;
  }
  out->caster.castingBatch = casting_;
  out->caster.castComplete = castComplete_;
  out->caster.castStartTick = castStart_;
  out->caster.lastCastEndTick = lastCastEnd_;
  out->caster.castsDone = castsDone_;
  out->quiescent = quiescent();
}

void PlantPhysics::restore(const PlantSnapshot& snap) {
  for (int m = 0; m < 5; ++m) machines_[m] = Machine{};
  const size_t n =
      std::min(loads_.size(), static_cast<size_t>(snap.numBatches()));
  for (size_t b = 0; b < n; ++b) {
    const LoadSnapshot& s = snap.loads[b];
    Load l;
    switch (s.place) {
      case LoadSnapshot::Place::kNotPoured: l.where = Load::Where::kNone; break;
      case LoadSnapshot::Place::kTrack:
        l.where = Load::Where::kTrack;
        l.track = s.track;
        l.slot = s.slot;
        break;
      case LoadSnapshot::Place::kGround:
        l.where = Load::Where::kGround;
        l.groundK = s.groundK;
        break;
      case LoadSnapshot::Place::kOnCrane:
        l.where = Load::Where::kOnCrane;
        l.crane = s.crane;
        break;
      case LoadSnapshot::Place::kInCaster: l.where = Load::Where::kInCaster; break;
      case LoadSnapshot::Place::kExited: l.where = Load::Where::kExited; break;
    }
    l.pourTick = s.pourTick;
    l.treatmentsDone = s.treatmentsDone;
    l.lastMachine = s.lastMachine;
    l.treatStart = s.treatingMachine > 0 ? s.treatStartTick : -1;
    loads_[b] = l;
    if (s.treatingMachine >= 1 && s.treatingMachine <= 5) {
      Machine& m = machines_[s.treatingMachine - 1];
      m.on = true;
      m.load = static_cast<int32_t>(b);
      m.onTick = s.treatStartTick;
    }
  }
  for (int c = 0; c < plant::kNumCranes; ++c) {
    Crane cr;
    cr.basePos = static_cast<int64_t>(snap.cranes[c].pos) * 1000;
    cr.carrying = snap.cranes[c].carrying;
    cranes_[c] = cr;
  }
  casting_ = snap.caster.castingBatch;
  castComplete_ = snap.caster.castComplete;
  castStart_ = snap.caster.castStartTick;
  lastCastEnd_ = snap.caster.lastCastEndTick;
  castsDone_ = snap.caster.castsDone;
  // The in-flight cast completes at the drifted absolute tick it always
  // would have (the resumed channel presets the caster's drift factor).
  castDone_ = castComplete_ || casting_ < 0
                  ? snap.caster.lastCastEndTick
                  : castStart_ + drifted("Caster", cfg_.tcast * tpu_);
  if (castComplete_) castDone_ = std::max<int64_t>(castDone_, castStart_);
  collisionReported_ = false;
}

int64_t PlantPhysics::exitedCount() const noexcept {
  int64_t n = 0;
  for (const Load& l : loads_) {
    if (l.where == Load::Where::kExited) ++n;
  }
  return n;
}

bool PlantPhysics::allExited() const noexcept {
  return exitedCount() == static_cast<int64_t>(loads_.size());
}

int64_t PlantPhysics::cranePosMilli(int c) const {
  return cranes_[c].basePos;
}

bool PlantPhysics::loadExited(int b) const {
  return loads_[static_cast<size_t>(b)].where == Load::Where::kExited;
}

bool PlantPhysics::loadInCaster(int b) const {
  return loads_[static_cast<size_t>(b)].where == Load::Where::kInCaster;
}

}  // namespace rcx
