// The plant simulator jumps from one due tick to the next instead of
// running every tick. These suites check that the jump changes nothing:
//
//  - SimEventLoop runs rcx::runProgram and the per-tick reference loop
//    (tick_oracle.hpp) over guided plants, codegen profiles, tick
//    rates, fault plans and fatal-snapshot settings, resumes from every
//    snapshot, and requires every SimResult field to be equal.
//  - PhysicsEvents drives two PlantPhysics through the same random
//    command sequences (converging and following cranes, hoists, track
//    moves, casts): one steps every tick, the other only at command
//    ticks and at nextEventTick(). Errors and captured state must agree
//    after every command.
//  - CrashDraws checks that the crash process, which compares raw
//    engine draws against a threshold, decides exactly as a draw of
//    uniform_real_distribution compared against the probability.
#include <cstdint>
#include <cstdio>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/reachability.hpp"
#include "engine/trace.hpp"
#include "plant/plant.hpp"
#include "rcx/physics.hpp"
#include "rcx/plant_sim.hpp"
#include "synthesis/rcx_codegen.hpp"
#include "synthesis/schedule.hpp"
#include "tick_oracle.hpp"

namespace rcx {
namespace {

// -- Rendering: every field, so a mismatch shows as a text diff. -------

void render(std::ostream& os, const PlantSnapshot& s) {
  os << std::hexfloat;
  os << "snapshot kind=" << deviationName(s.kind) << " reason=" << s.reason
     << " deviationTick=" << s.deviationTick << " tick=" << s.tick
     << " tpu=" << s.ticksPerTimeUnit << " quiescent=" << s.quiescent << "\n";
  for (const LoadSnapshot& l : s.loads) {
    os << " load place=" << static_cast<int>(l.place) << " track=" << l.track
       << " slot=" << l.slot << " groundK=" << l.groundK
       << " crane=" << l.crane << " pour=" << l.pourTick
       << " treatments=" << l.treatmentsDone << " last=" << l.lastMachine
       << " treating=" << l.treatingMachine << " since=" << l.treatStartTick
       << "\n";
  }
  for (const CraneSnapshot& c : s.cranes) {
    os << " crane pos=" << c.pos << " carrying=" << c.carrying << "\n";
  }
  os << " caster batch=" << s.caster.castingBatch
     << " complete=" << s.caster.castComplete
     << " start=" << s.caster.castStartTick
     << " lastEnd=" << s.caster.lastCastEndTick
     << " done=" << s.caster.castsDone << "\n";
  for (const auto& [u, f] : s.unitDrift) os << " drift " << u << "=" << f << "\n";
  for (const auto& [u, t] : s.downUntil) os << " down " << u << "=" << t << "\n";
  for (const auto& [u, id] : s.lastExecuted) {
    os << " executed " << u << "=" << id << "\n";
  }
  for (const InFlightMsg& m : s.inFlight) {
    os << " air at=" << m.deliverAt << " id=" << m.msgId
       << " ack=" << m.towardCentral << " " << m.unit << " " << m.command
       << "\n";
  }
}

std::string render(const SimResult& r) {
  std::ostringstream os;
  os << std::hexfloat;
  os << "completed=" << r.programCompleted << " allExited=" << r.allExited
     << " watchdog=" << r.watchdogHalted << " ticks=" << r.ticks
     << " exited=" << r.exited << "\n";
  os << "sent=" << r.commandsSent << " lost=" << r.commandsLost
     << " acksLost=" << r.acksLost << " dupIgnored=" << r.duplicatesIgnored
     << " dupInjected=" << r.duplicatesInjected
     << " reordered=" << r.reordered << " crashes=" << r.crashes
     << " crashDropped=" << r.crashDropped << "\n";
  os << "deviation=" << deviationName(r.deviation) << " " << r.deviationDetail
     << "\n";
  for (const SimError& e : r.errors) os << "error " << e.tick << " " << e.what << "\n";
  for (const auto& [u, f] : r.unitDrift) os << "drift " << u << "=" << f << "\n";
  for (const auto& [u, id] : r.lastExecuted) {
    os << "executed " << u << "=" << id << "\n";
  }
  for (const InFlightMsg& m : r.inFlight) {
    os << "air at=" << m.deliverAt << " id=" << m.msgId
       << " ack=" << m.towardCentral << " " << m.unit << " " << m.command
       << "\n";
  }
  if (r.snapshot.has_value()) render(os, *r.snapshot);
  return os.str();
}

std::string renderPhysics(const PlantPhysics& p) {
  std::ostringstream os;
  for (const SimError& e : p.errors()) os << "error " << e.tick << " " << e.what << "\n";
  PlantSnapshot s;
  p.capture(&s);
  render(os, s);
  return os.str();
}

// -- SimEventLoop ------------------------------------------------------

/// First-found (reverse DFS) schedule of the guided n-batch plant.
synthesis::Schedule guidedSchedule(int32_t batches) {
  plant::PlantConfig cfg;
  cfg.order = plant::standardOrder(batches);
  const auto plant = plant::buildPlant(cfg);
  engine::Options opts;
  opts.order = engine::SearchOrder::kDfs;
  opts.dfsReverse = true;
  opts.maxSeconds = 60.0;
  engine::Reachability checker(plant->sys, opts);
  const engine::Result res = checker.run(plant->goal);
  if (!res.reachable) return {};
  const auto ct = engine::concretize(plant->sys, res.trace);
  if (!ct.has_value()) return {};
  return synthesis::project(plant->sys, *ct);
}

struct NamedPlan {
  const char* name;
  double legacyLoss;
  FaultPlan plan;
};

std::vector<NamedPlan> faultPlans() {
  std::vector<NamedPlan> out;
  out.push_back({"none", 0.0, FaultPlan{}});
  out.push_back({"legacy-0.01", 0.01, FaultPlan{}});
  out.push_back({"iid-5%", 0.0, FaultPlan::iidLoss(0.05)});
  out.push_back({"iid-30%", 0.0, FaultPlan::iidLoss(0.30)});
  FaultPlan burst = FaultPlan::iidLoss(0.02);
  burst.burst.pGoodToBad = 0.02;
  burst.burst.pBadToGood = 0.02;
  burst.burst.lossBad = 1.0;
  out.push_back({"burst", 0.0, burst});
  FaultPlan mangle;
  mangle.jitterTicks = 40;
  mangle.duplicateProb = 0.15;
  mangle.reorderProb = 0.15;
  out.push_back({"jitter+dup+reorder", 0.0, mangle});
  FaultPlan drift;
  drift.driftPpm = 500.0;
  out.push_back({"drift-500ppm", 0.0, drift});
  drift.driftPpm = 200'000.0;  // off by up to 20 %: physics errors
  out.push_back({"drift-200000ppm", 0.0, drift});
  FaultPlan rare = FaultPlan::iidLoss(0.01);
  rare.crash.crashPerTick = 2e-6;
  rare.crash.downTicks = 72'000;
  out.push_back({"crash-rare-long", 0.0, rare});
  FaultPlan often;
  often.crash.crashPerTick = 1e-4;
  often.crash.downTicks = 4'000;
  out.push_back({"crash-often-short", 0.0, often});
  return out;
}

struct CorpusTally {
  int runs = 0;
  int snapshots = 0;
  int resumes = 0;
  int withErrors = 0;
  int crashed = 0;
};

void expectSameAsOracle(const synthesis::RcxProgram& prog,
                        const plant::PlantConfig& cfg, int32_t tpu,
                        const SimOptions& so, const std::string& what,
                        CorpusTally* tally) {
  const SimResult fast = runProgram(prog, cfg, tpu, so);
  const SimResult ref = tick_oracle::runProgram(prog, cfg, tpu, so);
  ASSERT_EQ(render(fast), render(ref)) << what;
  ++tally->runs;
  tally->withErrors += fast.errors.empty() ? 0 : 1;
  tally->crashed += fast.crashes > 0 ? 1 : 0;
  if (!fast.snapshot.has_value()) return;
  ++tally->snapshots;

  // Resume the same program from the snapshot, the way the replan
  // controller splices a segment: a later start tick and fresh channel
  // streams, with drift and crash downtimes carried over.
  SimOptions resumed = so;
  resumed.resume = &*fast.snapshot;
  resumed.startTick = fast.snapshot->tick + 2 * tpu;
  resumed.seed = so.seed ^ 0x9e3779b97f4a7c15ULL;
  resumed.snapshotOnFatal = false;
  const SimResult fastR = runProgram(prog, cfg, tpu, resumed);
  const SimResult refR = tick_oracle::runProgram(prog, cfg, tpu, resumed);
  ASSERT_EQ(render(fastR), render(refR)) << what << ", resumed";
  ++tally->resumes;
}

TEST(SimEventLoop, MatchesTickOracle) {
  enum class Codegen { kClassic, kEager, kBackoff };
  const std::vector<NamedPlan> plans = faultPlans();
  CorpusTally tally;
  uint64_t seed = 1;
  for (int32_t batches = 1; batches <= 6; ++batches) {
    const synthesis::Schedule sched = guidedSchedule(batches);
    ASSERT_FALSE(sched.items.empty()) << batches << " batches";
    plant::PlantConfig cfg;
    cfg.order = plant::standardOrder(batches);
    for (const int32_t tpu : {100, 1000}) {
      const int64_t slack = tpu == 1000 ? 8000 : 3000;
      for (const Codegen cg : {Codegen::kClassic, Codegen::kEager,
                               Codegen::kBackoff}) {
        synthesis::CodegenOptions co;
        co.ticksPerTimeUnit = tpu;
        if (cg != Codegen::kClassic) {
          co = synthesis::CodegenOptions::hardened(
              tpu, slack,
              cg == Codegen::kEager ? synthesis::ResendPolicy::kEager
                                    : synthesis::ResendPolicy::kBackoff);
        }
        const synthesis::RcxProgram prog = synthesis::synthesize(sched, co);
        for (const NamedPlan& np : plans) {
          for (const bool snapshotOnFatal : {false, true}) {
            SimOptions so;
            so.messageLossProb = np.legacyLoss;
            so.faults = np.plan;
            so.seed = seed++;
            so.slackTicks = slack;
            so.snapshotOnFatal = snapshotOnFatal;
            const std::string what =
                std::to_string(batches) + " batches, tpu " +
                std::to_string(tpu) + ", codegen " +
                std::to_string(static_cast<int>(cg)) + ", " + np.name +
                (snapshotOnFatal ? ", snapshot on fatal" : "") + ", seed " +
                std::to_string(so.seed);
            ASSERT_NO_FATAL_FAILURE(
                expectSameAsOracle(prog, cfg, tpu, so, what, &tally));
          }
        }
      }
    }
  }
  // The corpus must reach the paths it is meant to cover.
  EXPECT_GT(tally.snapshots, 20) << "fatal snapshots";
  EXPECT_EQ(tally.resumes, tally.snapshots);
  EXPECT_GT(tally.withErrors, 20) << "runs with physics errors";
  EXPECT_GT(tally.crashed, 20) << "runs with unit crashes";
  std::printf("[ corpus ] %d runs, %d snapshots resumed, %d with errors, "
              "%d with crashes\n",
              tally.runs, tally.resumes, tally.withErrors, tally.crashed);
}

// -- PhysicsEvents -----------------------------------------------------

/// Ladles parked where the cranes can reach them: one on track 1's out
/// slot and the rest on the crane-served pads.
PlantSnapshot parkedLoads(int32_t batches, std::mt19937_64& rng) {
  PlantSnapshot s;
  s.loads.resize(static_cast<size_t>(batches));
  const int32_t pads[] = {plant::kOverBuffer, plant::kOverHold,
                          plant::kOverStorage};
  for (int32_t b = 0; b < batches; ++b) {
    LoadSnapshot& l = s.loads[static_cast<size_t>(b)];
    l.pourTick = 0;
    if (b == 0) {
      l.place = LoadSnapshot::Place::kTrack;
      l.track = 1;
      l.slot = static_cast<int32_t>(rng() % plant::kT1Slots);
    } else {
      l.place = LoadSnapshot::Place::kGround;
      l.groundK = pads[(b - 1) % 3];
    }
  }
  // Cranes one or two positions apart: close enough to meet often.
  const int32_t gap = 1 + static_cast<int32_t>(rng() % 2);
  const int32_t p0 =
      static_cast<int32_t>(rng() % (plant::kCranePositions - gap));
  s.cranes[0].pos = p0;
  s.cranes[1].pos = p0 + gap;
  return s;
}

struct Command {
  std::string unit;
  std::string cmd;
};

/// One or two commands for the plant as it stands in `snap`, biased
/// toward moving the cranes at each other unless `careful`, which
/// makes them follow each other instead.
std::vector<Command> randomCommands(const PlantSnapshot& snap,
                                    int32_t batches, bool careful,
                                    std::mt19937_64& rng) {
  const auto crane = [](int c) { return "Crane" + std::to_string(c + 1); };
  const auto load = [](int b) { return "Load" + std::to_string(b + 1); };
  const int32_t p0 = snap.cranes[0].pos;
  const int32_t p1 = snap.cranes[1].pos;
  const int toward0 = p1 > p0 ? 1 : -1;
  const auto moveCmd = [](int dir) {
    return std::string(dir > 0 ? "Move1Right" : "Move1Left");
  };
  std::vector<Command> out;
  const int roll = static_cast<int>(rng() % 100);
  if (roll < 25 && !careful) {
    // Converge: both cranes head for each other at once.
    out.push_back({crane(0), moveCmd(toward0)});
    out.push_back({crane(1), moveCmd(-toward0)});
  } else if (roll < 40) {
    // Follow: both move the same way, one position apart.
    const int dir = rng() % 2 == 0 ? 1 : -1;
    out.push_back({crane(0), moveCmd(dir)});
    out.push_back({crane(1), moveCmd(dir)});
  } else if (roll < 65) {
    const int c = static_cast<int>(rng() % 2);
    const int toward = c == 0 ? toward0 : -toward0;
    const bool away = careful || rng() % 3 == 0;
    out.push_back({crane(c), moveCmd(away ? -toward : toward)});
  } else if (roll < 85) {
    // Hoist at the crane's position: pick up when empty, else put down.
    const int c = static_cast<int>(rng() % 2);
    const int32_t at = snap.cranes[c].pos;
    out.push_back({crane(c), (snap.cranes[c].carrying < 0 ? "Pickup"
                                                           : "Putdown") +
                                 std::to_string(at)});
  } else if (roll < 93) {
    out.push_back({load(static_cast<int>(rng() % static_cast<uint64_t>(
                       batches))),
                   rng() % 2 == 0 ? "Track1Right" : "Track1Left"});
  } else {
    const int b = static_cast<int>(rng() % static_cast<uint64_t>(batches));
    out.push_back({"Caster", (rng() % 2 == 0 ? "Start" : "Eject") +
                                 std::to_string(b + 1)});
  }
  return out;
}

TEST(PhysicsEvents, NextEventTickMatchesPerTickStepping) {
  std::mt19937_64 rng(0xc0111de5u);
  int collisions = 0;
  int hoists = 0;
  for (int run = 0; run < 2500; ++run) {
    const int32_t batches = 2 + static_cast<int32_t>(rng() % 3);
    plant::PlantConfig cfg;
    cfg.order = plant::standardOrder(batches);
    cfg.tcast = 2 + static_cast<int32_t>(rng() % 4);
    const int32_t tpu = rng() % 5 == 0 ? 1000 : 100;
    // Odd runs are careful: the cranes never head for each other and
    // run at one speed, so they pass close without colliding. Even runs
    // drift each unit's clock by up to 20 %, so following cranes close
    // in or fall back.
    const bool careful = run % 2 == 1;
    std::map<std::string, double> drift;
    for (const char* u : {"Crane1", "Crane2", "Caster"}) {
      drift[u] = careful || rng() % 3 == 0
                     ? 1.0
                     : std::uniform_real_distribution<double>(0.8, 1.2)(rng);
    }
    for (int32_t b = 1; b <= batches; ++b) {
      drift["Load" + std::to_string(b)] = 1.0;
    }
    const auto provider = [drift](const std::string& u) {
      return drift.at(u);
    };
    PlantPhysics perTick(cfg, tpu, /*slackTicks=*/tpu);
    PlantPhysics byEvent(cfg, tpu, /*slackTicks=*/tpu);
    perTick.setDriftProvider(provider);
    byEvent.setDriftProvider(provider);
    const PlantSnapshot start = parkedLoads(batches, rng);
    perTick.restore(start);
    byEvent.restore(start);

    int64_t tickA = 0;  // last tick perTick stepped
    int64_t tickB = 0;  // last tick byEvent stepped
    perTick.step(0);
    byEvent.step(0);
    const auto advanceTo = [&](int64_t t) {
      while (tickA + 1 < t) perTick.step(++tickA);
      for (int64_t e = byEvent.nextEventTick(tickB); e < t;
           e = byEvent.nextEventTick(tickB)) {
        tickB = e;
        byEvent.step(e);
      }
    };
    int64_t now = 0;
    for (int k = 0; k < 30; ++k) {
      // Gaps of one tick up to two crane moves.
      now += static_cast<int64_t>(rng() % static_cast<uint64_t>(2 * tpu + 1));
      if (now == tickA) ++now;  // one command batch per tick
      advanceTo(now);
      PlantSnapshot seen;
      perTick.capture(&seen);
      for (const Command& c : randomCommands(seen, batches, careful, rng)) {
        const size_t errorsBefore = perTick.errors().size();
        perTick.command(c.unit, c.cmd, now);
        byEvent.command(c.unit, c.cmd, now);
        const bool hoist =
            c.cmd.rfind("Pickup", 0) == 0 || c.cmd.rfind("Putdown", 0) == 0;
        if (hoist && perTick.errors().size() == errorsBefore) ++hoists;
      }
      perTick.step(now);
      byEvent.step(now);
      tickA = tickB = now;
      ASSERT_EQ(renderPhysics(byEvent), renderPhysics(perTick))
          << "run " << run << ", command batch " << k << " at tick " << now;
    }
    advanceTo(now + 3 * (cfg.tcast + 2) * tpu);
    ASSERT_EQ(renderPhysics(byEvent), renderPhysics(perTick))
        << "run " << run << ", after the last command";
    for (const SimError& e : perTick.errors()) {
      if (e.what.rfind("crane collision", 0) == 0) ++collisions;
    }
  }
  EXPECT_GE(collisions, 1000);
  EXPECT_LE(collisions, 2300) << "runs without a collision";
  EXPECT_GE(hoists, 1000) << "hoists started";
  std::printf("[ physics ] 2500 runs, %d with a crane collision, %d hoists "
              "started\n",
              collisions, hoists);
}

// -- CrashDraws --------------------------------------------------------

/// An engine with mt19937_64's range that returns one fixed draw.
struct FixedDraw {
  using result_type = std::mt19937_64::result_type;
  result_type x;
  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }
  result_type operator()() const { return x; }
};

bool flipsAt(uint64_t x, double p) {
  FixedDraw e{x};
  return std::uniform_real_distribution<double>(0.0, 1.0)(e) < p;
}

TEST(CrashDraws, ThresholdDecidesLikeTheDoubleConversion) {
  std::mt19937_64 rng(0xd1ceu);
  std::vector<double> ps = {1e-300, 1e-12, 2e-6, 1e-4,  0.01,
                            0.3,    0.5,   0.75, 1.0 - 1e-12, 1.0, 2.0};
  for (int i = 0; i < 40; ++i) {
    ps.push_back(std::uniform_real_distribution<double>(0.0, 1.0)(rng));
  }
  for (const double p : ps) {
    const uint64_t t = FaultChannel::maxFlipDraw(p);
    EXPECT_TRUE(flipsAt(t, p)) << p;
    if (t != FixedDraw::max()) {
      EXPECT_FALSE(flipsAt(t + 1, p)) << p;
    }
    for (int k = 0; k < 4000; ++k) {
      // Draws all over the range, and around the threshold.
      const uint64_t x = k % 2 == 0 ? rng() : t + (rng() % 257) - 128;
      ASSERT_EQ(x <= t, flipsAt(x, p)) << "p " << p << ", draw " << x;
    }
  }
}

TEST(CrashDraws, ChannelKeepsTheFlipStream) {
  // With a one-tick downtime every tick draws once, so the channel's
  // crash decisions must be flip() on its crash stream, which is seeded
  // from seed_seq{seed_lo, seed_hi, 7}.
  for (const double p : {0.3, 1e-3, 0.999, 1.0}) {
    FaultPlan plan;
    plan.crash.crashPerTick = p;
    plan.crash.downTicks = 1;
    const uint64_t seed = 0x1234'5678'9abcULL;
    FaultChannel chan(plan, seed);
    std::seed_seq seq{static_cast<uint32_t>(seed & 0xffffffffu),
                      static_cast<uint32_t>(seed >> 32), 7u};
    std::mt19937_64 ref(seq);
    const std::vector<int32_t> slots = {chan.crashSlot("Crane1")};
    std::vector<int32_t> crashed;
    for (int64_t t = 0; t < 20'000; ++t) {
      chan.stepCrashes(t, slots, &crashed);
      const bool expected =
          std::uniform_real_distribution<double>(0.0, 1.0)(ref) < p;
      ASSERT_EQ(!crashed.empty(), expected) << "p " << p << ", tick " << t;
    }
  }
}

}  // namespace
}  // namespace rcx
