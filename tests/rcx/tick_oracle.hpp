// The plant simulator's reference loop: rcx::runProgram as it was
// before it jumped between due ticks. It runs the whole loop body at
// every tick (crash draws, VM, deliveries, PlantPhysics::step), so it
// needs no argument about which ticks can change anything. Tests
// compare every SimResult field of the event loop against it.
#pragma once

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "rcx/plant_sim.hpp"
#include "rcx/vm.hpp"

namespace rcx::tick_oracle {

/// One-way message latency in ticks.
inline constexpr int64_t kLatencyTicks = 5;
/// Cost of one VM instruction in ticks.
inline constexpr int32_t kInstrTicks = 1;
/// Hard stop of a run that never finishes.
inline constexpr int64_t kMaxTicks = 200'000'000;

struct InFlight {
  int64_t deliverAt;
  int32_t msgId;
  bool towardCentral;  ///< ack (unit -> central) vs command
};

inline SimResult runProgram(const synthesis::RcxProgram& program,
                            const plant::PlantConfig& cfg,
                            int32_t ticksPerTimeUnit,
                            const SimOptions& opts) {
  SimResult res;
  PlantPhysics physics(cfg, ticksPerTimeUnit, opts.slackTicks);
  const FaultPlan plan = opts.effectiveFaults();
  FaultChannel chan(plan, opts.seed);
  physics.setDriftProvider(
      [&chan](const std::string& unit) { return chan.driftFactor(unit); });
  if (opts.resume != nullptr) {
    // Splice: keep unit clock speeds and crash downtimes across the
    // segment boundary, then adopt the snapshotted plant state.
    chan.presetDrift(opts.resume->unitDrift);
    chan.presetDownUntil(opts.resume->downUntil);
    physics.restore(*opts.resume);
  }

  // The units the crash process can take down: every distinct command
  // target of the program.
  std::vector<std::string> units;
  {
    std::set<std::string> seen;
    for (const synthesis::RcxCommand& c : program.commands) {
      if (seen.insert(c.unit).second) units.push_back(c.unit);
    }
  }

  std::deque<InFlight> air;
  int32_t centralMsgBuffer = 0;
  // Per-unit dedup: the last message id a unit executed. Resent
  // commands (lost acks) and channel-duplicated copies must not
  // re-execute. Repair programs number their commands afresh and the
  // splice drops stale traffic, so a resumed segment starts clean.
  std::map<std::string, int32_t> lastExecuted;

  VmHost host;
  host.send = [&](int32_t msgId, int64_t tick) {
    ++res.commandsSent;
    const auto copies = chan.offer(/*towardCentral=*/false);
    if (copies.empty()) return;  // the ether ate it
    for (const Delivery& d : copies) {
      air.push_back(
          InFlight{tick + kLatencyTicks + d.extraTicks, msgId, false});
    }
  };
  host.readMessage = [&] { return centralMsgBuffer; };
  host.clearMessage = [&] { centralMsgBuffer = 0; };

  RcxVm vm(program, host, kInstrTicks);
  if (opts.resume != nullptr) vm.startAt(opts.startTick);

  // Fatal-deviation detection state.
  DeviationKind fatal = DeviationKind::kNone;
  std::string fatalDetail;
  size_t errorsSeen = 0;

  int64_t tick = opts.resume != nullptr ? opts.startTick : 0;
  for (; tick < kMaxTicks; ++tick) {
    // Crash processes first: a unit that dies at this tick loses its
    // pending traffic (commands still in the air toward it, acks it
    // already emitted) along with the command it was about to receive.
    if (plan.crash.enabled()) {
      for (const std::string& u : chan.stepCrashes(tick, units)) {
        const auto dead = [&](const InFlight& m) {
          const synthesis::RcxCommand* c = program.commandById(m.msgId);
          if (c == nullptr || c->unit != u) return false;
          ++res.crashDropped;
          return true;
        };
        air.erase(std::remove_if(air.begin(), air.end(), dead), air.end());
      }
    }

    vm.run(tick);
    // Deliver due messages.
    for (size_t i = 0; i < air.size();) {
      if (air[i].deliverAt > tick) {
        ++i;
        continue;
      }
      const InFlight m = air[i];
      air.erase(air.begin() + static_cast<std::ptrdiff_t>(i));
      if (m.towardCentral) {
        centralMsgBuffer = m.msgId;
        continue;
      }
      const synthesis::RcxCommand* c = program.commandById(m.msgId);
      if (c == nullptr) continue;  // stray message
      if (plan.crash.enabled() && chan.isDown(c->unit, tick)) {
        ++res.crashDropped;  // the unit is silent: command dies unheard
        continue;
      }
      auto [it, fresh] = lastExecuted.try_emplace(c->unit, 0);
      if (it->second != m.msgId) {
        physics.command(c->unit, c->command, tick);
        it->second = m.msgId;
      } else {
        ++res.duplicatesIgnored;
      }
      // Acknowledge receipt (the return path is equally adversarial).
      for (const Delivery& d : chan.offer(/*towardCentral=*/true)) {
        air.push_back(InFlight{tick + kLatencyTicks + d.extraTicks,
                               m.msgId, true});
      }
    }
    physics.step(tick);
    if (opts.snapshotOnFatal) {
      if (vm.halted()) {
        fatal = DeviationKind::kWatchdogHalt;
        fatalDetail = "watchdog exhausted waiting for an acknowledgement";
        break;
      }
      if (physics.errors().size() > errorsSeen) {
        fatal = DeviationKind::kPhysicsError;
        fatalDetail = physics.errors()[errorsSeen].what;
        break;
      }
    }
    if (vm.finished() && air.empty()) break;
  }

  const auto fillChannelStats = [&] {
    res.commandsLost = chan.lossesCommand();
    res.acksLost = chan.lossesAck();
    res.duplicatesInjected = chan.duplicates();
    res.reordered = chan.reorders();
    res.crashes = chan.crashes();
    // Burst losses are not attributed per direction by the channel;
    // fold them into the command counter so totals still add up.
    res.commandsLost += chan.burstLosses();
    res.unitDrift = chan.driftMap();
    res.lastExecuted = lastExecuted;
    for (const InFlight& m : air) {
      InFlightMsg msg;
      msg.deliverAt = m.deliverAt;
      msg.msgId = m.msgId;
      msg.towardCentral = m.towardCentral;
      if (const synthesis::RcxCommand* c = program.commandById(m.msgId);
          c != nullptr && !m.towardCentral) {
        msg.unit = c->unit;
        msg.command = c->command;
      }
      res.inFlight.push_back(msg);
    }
  };

  if (isFatal(fatal)) {
    // Abort the program, quiesce the plant (complete every transient
    // move/hoist; casting may continue), and capture the concrete
    // state for the replanner. New physics errors during quiescence
    // are part of the same deviation, not fresh ones.
    const int64_t deviationTick = tick;
    const int64_t deadline =
        tick +
        (static_cast<int64_t>(std::max({cfg.bmove, cfg.cmove, cfg.cupdown})) *
             2 +
         1) *
            ticksPerTimeUnit +
        opts.slackTicks;
    while (!physics.quiescent() && tick < deadline) {
      ++tick;
      physics.step(tick);
    }
    PlantSnapshot snap;
    physics.capture(&snap);
    snap.kind = fatal;
    snap.reason = fatalDetail.empty() && !physics.errors().empty()
                      ? physics.errors().front().what
                      : fatalDetail;
    snap.deviationTick = deviationTick;
    snap.tick = tick;
    snap.ticksPerTimeUnit = ticksPerTimeUnit;
    snap.lastExecuted = lastExecuted;
    fillChannelStats();
    snap.unitDrift = res.unitDrift;
    for (const auto& [unit, until] : chan.downUntilMap()) {
      if (until > tick) snap.downUntil[unit] = until;
    }
    snap.inFlight = res.inFlight;

    res.deviation = fatal;
    res.deviationDetail = snap.reason;
    res.snapshot = std::move(snap);
    res.watchdogHalted = vm.halted();
    res.programCompleted = false;
    res.allExited = physics.allExited();
    res.exited = physics.exitedCount();
    res.errors = physics.errors();
    res.ticks = tick;
    return res;
  }

  // Let outstanding physical actions (final lowering etc.) finish.
  const int64_t drain =
      tick + (static_cast<int64_t>(cfg.tcast) + cfg.cupdown + cfg.cmove) *
                 ticksPerTimeUnit;
  for (; tick < drain; ++tick) physics.step(tick);

  physics.finish(tick);
  res.watchdogHalted = vm.halted();
  res.programCompleted = vm.finished() && !vm.halted();
  res.allExited = physics.allExited();
  res.exited = physics.exitedCount();
  res.errors = physics.errors();
  res.ticks = tick;
  fillChannelStats();
  if (res.watchdogHalted) {
    res.deviation = DeviationKind::kWatchdogHalt;
    res.deviationDetail = "watchdog exhausted waiting for an acknowledgement";
  } else if (!res.errors.empty()) {
    res.deviation = DeviationKind::kPhysicsError;
    res.deviationDetail = res.errors.front().what;
  } else if (res.commandsLost + res.acksLost + res.duplicatesInjected +
                 res.reordered + res.crashes + res.crashDropped >
             0) {
    res.deviation = DeviationKind::kRecoverable;
  }
  return res;
}

}  // namespace rcx::tick_oracle
