// Constructs the SIDMAR plant as a network of timed automata.
//
// One batch automaton and one recipe automaton per quality in the
// production order, two crane automata, one casting-machine automaton
// and one monitor (the paper's production-list automaton): 2N+4
// automata and 3N+3 clocks — 183 clocks at 60 batches, matching §5.
//
// Guides (paper Section 4) are compiled in according to
// PlantConfig::guides:
//   * kAll  adds the `nextbatch` pour ordering on top of kSome;
//   * kSome adds the per-batch `next` destination variable with
//     direct-route movement guards, the load-balancing machine choice,
//     and the `cranereq`/`wantpick` empty-crane discipline;
//   * kNone builds the original model with every physical behaviour.
#include "plant/plant.hpp"

#include <cassert>
#include <iterator>
#include <string>

namespace plant {

namespace {

using ta::ccGe;
using ta::ccLe;
using ta::ChanId;
using ta::ClockId;
using ta::Ex;
using ta::LocId;
using ta::ProcId;
using ta::VarId;

std::string num(int32_t v) { return std::to_string(v); }

/// Some stage of recipe `q` treats on a machine of `m`'s type: only
/// then do batch and recipe handshake on `m`'s on/off channels.
bool usesMachine(const Quality& q, const MachineInfo& m) {
  for (const Stage& st : q) {
    if (st.type == m.type) return true;
  }
  return false;
}

class Builder {
 public:
  explicit Builder(const PlantConfig& cfg)
      : cfg_(cfg), plant_(std::make_unique<Plant>()) {
    plant_->config = cfg;
  }

  std::unique_ptr<Plant> build() {
    if (cfg_.makespanClock) plant_->makespan = sys().addClock("gtime");
    declare();
    buildCranes();
    buildCaster();
    buildMonitor();
    for (int32_t b = 0; b < n_; ++b) buildRecipe(b);
    for (int32_t b = 0; b < n_; ++b) buildBatch(b);
    sys().finalize();
    plant_->goal.locations.push_back({plant_->monitor, monitorDone_});
    return std::move(plant_);
  }

 private:
  [[nodiscard]] ta::System& sys() { return plant_->sys; }
  [[nodiscard]] bool guided() const {
    return cfg_.guides != GuideLevel::kNone;
  }
  [[nodiscard]] bool allGuides() const {
    return cfg_.guides == GuideLevel::kAll;
  }
  [[nodiscard]] Ex lit(int32_t v) { return sys().lit(v); }

  // ---------------------------------------------------------------- //

  void declare() {
    n_ = cfg_.numBatches();
    assert(n_ > 0);

    posi_ = sys().addArray("posi", kT1Slots);
    posii_ = sys().addArray("posii", kT2Slots);
    cpos_ = sys().addArray("cpos", kCranePositions);
    // Initial overhead occupancy: crane 1 over T1_OUT, crane 2 over
    // CAST_OUT (see buildCranes).
    sys().setVarInit(cpos_ + kOverT1Out, 1);
    sys().setVarInit(cpos_ + kOverCastOut, 1);
    bufocc_ = sys().addVar("bufocc");
    holdocc_ = sys().addVar("holdocc");
    castoutocc_ = sys().addVar("castoutocc");
    ndone_ = sys().addVar("ndone");
    if (guided()) {
      waitk_ = sys().addArray("waitk", kCranePositions);
      cranereq_ = sys().addArray("cranereq", kNumCranes);
      cdest_ = sys().addArray("cdest", kNumCranes);
      // Deliveries to the holding place must happen in casting order —
      // the hold is a one-slot buffer feeding the strictly ordered
      // caster, so out-of-order deliveries only lead to deadlocks the
      // search would otherwise discover very late.
      nexthold_ = sys().addVar("nexthold", 0);
      next_.reserve(static_cast<size_t>(n_));
      for (int32_t b = 0; b < n_; ++b) {
        next_.push_back(sys().addVar("next" + num(b), kNextNone));
      }
    }
    if (allGuides()) {
      nextbatch_ = sys().addVar("nextbatch", 0);
      // Pipeline-width strategy: at most kMaxInFlight batches between
      // pouring and entering the caster. Steady state needs ~2.5 (path
      // time / casting cadence), so 3 keeps every schedule reachable
      // while capping the interleaving window the search must explore.
      inflight_ = sys().addVar("inflight", 0);
    }

    chOn_.resize(static_cast<size_t>(n_));
    chOff_.resize(static_cast<size_t>(n_));
    for (int32_t b = 0; b < n_; ++b) {
      pour_.push_back(sys().addChannel("pour" + num(b)));
      incast_.push_back(sys().addChannel("incast" + num(b)));
      outcast_.push_back(sys().addChannel("outcast" + num(b)));
      castdone_.push_back(sys().addChannel("castdone" + num(b)));
      dump_.push_back(sys().addChannel("dump" + num(b)));
      // Machines outside this batch's recipe get no channel (-1).
      auto& on = chOn_[static_cast<size_t>(b)];
      auto& off = chOff_[static_cast<size_t>(b)];
      on.assign(std::size(kMachines), -1);
      off.assign(std::size(kMachines), -1);
      for (const MachineInfo& m : kMachines) {
        if (!usesMachine(cfg_.order[static_cast<size_t>(b)], m)) continue;
        on[static_cast<size_t>(m.id - 1)] =
            sys().addChannel("m" + num(m.id) + "on" + num(b));
        off[static_cast<size_t>(m.id - 1)] =
            sys().addChannel("m" + num(m.id) + "off" + num(b));
      }
    }
    for (int32_t c = 0; c < kNumCranes; ++c) {
      pickdone_[c] = sys().addChannel("pickdone" + num(c));
      dropdone_[c] = sys().addChannel("dropdone" + num(c));
      // STORAGE is exit-only: nothing is ever picked up there. It is
      // the last position, so pick_[c][k] is valid for every other k.
      static_assert(kOverStorage == kCranePositions - 1);
      for (int32_t k = 0; k < kCranePositions; ++k) {
        if (k != kOverStorage) {
          pick_[c].push_back(
              sys().addChannel("pick" + num(c) + "_" + num(k)));
        }
        drop_[c].push_back(sys().addChannel("drop" + num(c) + "_" + num(k)));
      }
    }
  }

  // -- Shared expression helpers --------------------------------------

  /// Occupancy cell of the ground slot under crane position k; -1 for
  /// STORAGE, which is unbounded.
  [[nodiscard]] VarId groundOcc(int32_t k) const {
    switch (k) {
      case kOverT1Out: return posi_ + kT1Out;
      case kOverBuffer: return bufocc_;
      case kOverT2Out: return posii_ + kT2Out;
      case kOverHold: return holdocc_;
      case kOverCastOut: return castoutocc_;
      default: return -1;
    }
  }

  /// Sum of occupancy over one track (the paper's Σposi expression).
  [[nodiscard]] Ex trackLoad(int32_t track) {
    const VarId base = track == 1 ? posi_ : posii_;
    const int32_t slots = track == 1 ? kT1Slots : kT2Slots;
    Ex sum = sys().rd(base);
    for (int32_t s = 1; s < slots; ++s) sum = sum + sys().rd(base + s);
    return sum;
  }

  // ------------------------------------------------------------------ //

  void buildCranes() {
    for (int32_t c = 0; c < kNumCranes; ++c) {
      const ProcId p = sys().addAutomaton("crane" + num(c + 1));
      plant_->cranes.push_back(p);
      const ClockId cc = sys().addClock("c" + num(c + 1));
      auto& a = sys().automaton(p);

      std::vector<LocId> empty, full, rising, lowering;
      for (int32_t k = 0; k < kCranePositions; ++k) {
        empty.push_back(a.addLocation("e" + num(k)));
        full.push_back(a.addLocation("f" + num(k)));
        if (k != kOverStorage) {
          rising.push_back(a.addLocation("rise" + num(k), false,
                                         cfg_.bugNoLiftDelay));
          if (!cfg_.bugNoLiftDelay) {
            a.setInvariant(rising.back(), {ccLe(cc, cfg_.cupdown)});
          }
        }
        lowering.push_back(a.addLocation("lower" + num(k)));
        a.setInvariant(lowering.back(), {ccLe(cc, cfg_.cupdown)});
      }
      // Initial positions: crane 1 over T1_OUT, crane 2 over CAST_OUT.
      const int32_t k0 = c == 0 ? kOverT1Out : kOverCastOut;
      a.setInitial(empty[static_cast<size_t>(k0)]);

      // Moves, empty and full, both directions.
      for (int32_t k = 0; k < kCranePositions; ++k) {
        for (const int32_t dir : {+1, -1}) {
          const int32_t k2 = k + dir;
          if (k2 < 0 || k2 >= kCranePositions) continue;
          const std::string dirName = dir > 0 ? "Right" : "Left";
          const std::string label =
              "Crane" + num(c + 1) + ".Move1" + dirName;
          for (const bool isFull : {false, true}) {
            const std::vector<LocId>& at = isFull ? full : empty;
            const LocId mv = a.addLocation(
                std::string(isFull ? "fmv" : "emv") + num(k) + dirName);
            a.setInvariant(mv, {ccLe(cc, cfg_.cmove)});
            auto eb = sys().edge(p, at[static_cast<size_t>(k)], mv);
            eb.guard(sys().rdCell(cpos_, k2, kCranePositions) == 0)
                .reset(cc)
                .assignCellConst(cpos_, k2, kCranePositions, 1)
                .label(label);
            if (cfg_.bugFreeSourceEarly) {
              // Error 2 variant: the source slot frees the moment the
              // move starts, so the schedule may start a rear crane
              // into this slot at the same instant.
              eb.assignCellConst(cpos_, k, kCranePositions, 0);
            }
            if (guided()) {
              // Division of labour (a strategy in the paper's sense):
              // crane 1 serves the tracks and the holding place
              // (K0..K3), crane 2 clears empty ladles (K4..K5).
              const int32_t rangeLo = c == 0 ? kOverT1Out : kOverCastOut;
              const int32_t rangeHi = c == 0 ? kOverHold : kOverStorage;
              if (k2 < rangeLo || k2 > rangeHi) {
                eb.guard(lit(0));
              } else if (isFull) {
                // A loaded crane is always guided by its destination.
                eb.guard(dir > 0
                             ? sys().rdCell(cdest_, c, kNumCranes) > k
                             : sys().rdCell(cdest_, c, kNumCranes) < k);
              } else {
                // An empty crane moves only toward a slot where a batch
                // waits to be picked up (or when pushed by the other
                // crane).  Pickup slots per crane: crane 1 serves
                // T1_OUT (K0) and T2_OUT (K2), crane 2 serves CAST_OUT
                // (K4).
                Ex g = sys().rdCell(cranereq_, c, kNumCranes) != 0;
                for (const int32_t j :
                     {kOverT1Out, kOverT2Out, kOverCastOut}) {
                  if (j < rangeLo || j > rangeHi) continue;
                  const bool toward = dir > 0 ? j >= k2 : j <= k2;
                  if (!toward) continue;
                  g = g || (sys().rdCell(waitk_, j, kCranePositions) > 0);
                }
                eb.guard(g);
                eb.assignCellConst(cranereq_, c, kNumCranes, 0);
              }
            }
            auto arrive =
                sys().edge(p, mv, at[static_cast<size_t>(k2)])
                    .when(ccGe(cc, cfg_.cmove));
            if (!cfg_.bugFreeSourceEarly) {
              arrive.assignCellConst(cpos_, k, kCranePositions, 0);
            }
          }
        }
        // A loaded crane blocked by the other crane raises cranereq for
        // it (paper: "will set the cranereq variable to allow the
        // blocking crane to leave").
        if (guided()) {
          const int32_t other = 1 - c;
          for (const int32_t dir : {+1, -1}) {
            const int32_t k2 = k + dir;
            if (k2 < 0 || k2 >= kCranePositions) continue;
            sys().edge(p, full[static_cast<size_t>(k)],
                       full[static_cast<size_t>(k)])
                .guard((sys().rdCell(cpos_, k2, kCranePositions) == 1) &&
                       (dir > 0 ? sys().rdCell(cdest_, c, kNumCranes) > k
                                : sys().rdCell(cdest_, c, kNumCranes) < k) &&
                       (sys().rdCell(cranereq_, other, kNumCranes) == 0))
                .assignCellConst(cranereq_, other, kNumCranes, 1);
          }
        }
        // Pickup / putdown handshakes; STORAGE only takes putdowns.
        if (k != kOverStorage && cfg_.bugNoLiftDelay) {
          // Error 1 variant: the lift takes no model time (rising is a
          // committed location), so a Move can be scheduled at the same
          // instant as the Pickup.
          sys().edge(p, empty[static_cast<size_t>(k)],
                     rising[static_cast<size_t>(k)])
              .receive(pick_[c][static_cast<size_t>(k)]);
          sys().edge(p, rising[static_cast<size_t>(k)],
                     full[static_cast<size_t>(k)])
              .send(pickdone_[c]);
        } else if (k != kOverStorage) {
          sys().edge(p, empty[static_cast<size_t>(k)],
                     rising[static_cast<size_t>(k)])
              .receive(pick_[c][static_cast<size_t>(k)])
              .reset(cc);
          sys().edge(p, rising[static_cast<size_t>(k)],
                     full[static_cast<size_t>(k)])
              .when(ccGe(cc, cfg_.cupdown))
              .send(pickdone_[c]);
        }
        sys().edge(p, full[static_cast<size_t>(k)],
                   lowering[static_cast<size_t>(k)])
            .receive(drop_[c][static_cast<size_t>(k)])
            .reset(cc);
        sys().edge(p, lowering[static_cast<size_t>(k)],
                   empty[static_cast<size_t>(k)])
            .when(ccGe(cc, cfg_.cupdown))
            .send(dropdone_[c]);
      }
    }
  }

  // ------------------------------------------------------------------ //

  void buildCaster() {
    const ProcId p = sys().addAutomaton("caster");
    plant_->caster = p;
    const ClockId kc = sys().addClock("k");
    auto& a = sys().automaton(p);

    const LocId await0 = a.addLocation("await");
    a.setInitial(await0);
    const LocId doneLoc = a.addLocation("done");

    LocId prevGap = await0;
    for (int32_t b = 0; b < n_; ++b) {
      const LocId casting = a.addLocation("cast" + num(b));
      a.setInvariant(casting, {ccLe(kc, cfg_.tcast)});
      const LocId ejected =
          a.addLocation("ej" + num(b), false, /*committed=*/true);
      // The holding-place batch slides into the caster.
      sys().edge(p, prevGap, casting)
          .receive(incast_[static_cast<size_t>(b)])
          .reset(kc);
      // Eject the empty ladle to CAST_OUT exactly when casting ends;
      // the output slot must already be clear.
      auto eject = sys().edge(p, casting, ejected)
                       .when(ccGe(kc, cfg_.tcast))
                       .guard(sys().rd(castoutocc_) == 0)
                       .send(outcast_[static_cast<size_t>(b)])
                       .assign(castoutocc_, 1);
      if (!(cfg_.bugCasterSkipsFinalEject && b == n_ - 1)) {
        // Error 3 variant: the final eject carries no command label, so
        // the synthesized program never tells the physical caster to
        // turn out the last ladle.
        eject.label("Caster.Eject" + num(b + 1));
      } else {
        eject.label("");
      }
      if (b == n_ - 1) {
        sys().edge(p, ejected, doneLoc)
            .send(castdone_[static_cast<size_t>(b)]);
      } else {
        const LocId gap = a.addLocation("gap" + num(b));
        // Continuity: the clock is NOT reset at eject, so the next
        // incast must fire within castGap of the previous cast ending.
        a.setInvariant(gap, {ccLe(kc, cfg_.tcast + cfg_.castGap)});
        sys().edge(p, ejected, gap).send(castdone_[static_cast<size_t>(b)]);
        prevGap = gap;
      }
    }
  }

  // ------------------------------------------------------------------ //

  void buildMonitor() {
    const ProcId p = sys().addAutomaton("list");
    plant_->monitor = p;
    auto& a = sys().automaton(p);
    const LocId run = a.addLocation("run");
    a.setInitial(run);
    monitorDone_ = a.addLocation("alldone");
    for (int32_t b = 0; b < n_; ++b) {
      sys().edge(p, run, run)
          .receive(dump_[static_cast<size_t>(b)])
          .assign(ndone_, sys().rd(ndone_) + 1);
    }
    sys().edge(p, run, monitorDone_).guard(sys().rd(ndone_) == n_);
  }

  // ------------------------------------------------------------------ //

  /// Machine chosen for stage `i` of recipe `q` when the previous stage
  /// ran on `track` (same track preferred; falls back to the other).
  [[nodiscard]] static int32_t stageMachine(const Quality& q, size_t i,
                                            int32_t track) {
    const int32_t same = machineOn(track, q[i].type);
    if (same > 0) return same;
    return machineOn(3 - track, q[i].type);
  }

  void buildRecipe(int32_t b) {
    const Quality& q = cfg_.order[static_cast<size_t>(b)];
    assert(!q.empty());
    const auto stages = static_cast<int32_t>(q.size());
    const ProcId p = sys().addAutomaton("recipe" + num(b));
    plant_->recipes.push_back(p);
    const ClockId t = sys().addClock("t" + num(b));
    const ClockId tot = sys().addClock("tot" + num(b));
    auto& a = sys().automaton(p);

    const LocId setoff = a.addLocation("setoff");
    a.setInitial(setoff);
    std::vector<LocId> wait;
    for (int32_t i = 0; i < stages; ++i) {
      wait.push_back(a.addLocation("wait" + num(i)));
      // Intermediate deadline (the paper's rtotalby3 / rtotalby2
      // invariants in Figure 7): stage i must start in time.
      a.setInvariant(wait.back(),
                     {ccLe(tot, cfg_.rtotal * (i + 1) / (stages + 1))});
    }
    const LocId rend = a.addLocation("rend");
    a.setInvariant(rend, {ccLe(tot, cfg_.rtotal)});
    const LocId done = a.addLocation("done");

    sys().edge(p, setoff, wait[0])
        .receive(pour_[static_cast<size_t>(b)])
        .reset(tot);

    for (int32_t i = 0; i < stages; ++i) {
      const LocId to = i + 1 < stages ? wait[static_cast<size_t>(i + 1)] : rend;
      const int32_t dur = q[static_cast<size_t>(i)].duration;
      const int32_t treatDeadline =
          i + 1 < stages ? cfg_.rtotal * (i + 2) / (stages + 2) : cfg_.rtotal;
      // One treating branch per machine instance of this stage's type.
      for (const MachineInfo& m : kMachines) {
        if (m.type != q[static_cast<size_t>(i)].type) continue;
        const LocId treat = a.addLocation("on" + num(i) + "m" + num(m.id));
        a.setInvariant(treat, {ccLe(t, dur), ccLe(tot, treatDeadline)});
        auto on = sys().edge(p, wait[static_cast<size_t>(i)], treat)
                      .send(chOn_[b][static_cast<size_t>(m.id - 1)])
                      .reset(t)
                      .label("Load" + num(b + 1) + ".Machine" + num(m.id) +
                             "On");
        if (guided()) {
          // Only the machine the `next` guide selected may start.
          on.guard(sys().rd(next_[static_cast<size_t>(b)]) == m.id);
        }
        if (allGuides() && i == stages - 1) {
          // The delayed `nextbatch` update (paper §4): the successor
          // batch may pour once this batch STARTS its final treatment.
          // (Updating at the treatment's end looks tempting but makes
          // long orders infeasible: two-stage batches downstream miss
          // their holding-place window.)
          on.assign(nextbatch_, sys().rd(nextbatch_) + 1);
        }
        auto off = sys().edge(p, treat, to)
                       .when(ccGe(t, dur))
                       .send(chOff_[b][static_cast<size_t>(m.id - 1)])
                       .label("Load" + num(b + 1) + ".Machine" + num(m.id) +
                              "Off");
        if (guided()) {
          const int32_t nextVal =
              i + 1 < stages
                  ? stageMachine(q, static_cast<size_t>(i + 1), m.track)
                  : kNextCast;
          off.assign(next_[static_cast<size_t>(b)], nextVal);
        }
      }
    }
    sys().edge(p, rend, done).receive(castdone_[static_cast<size_t>(b)]);
  }

  // ------------------------------------------------------------------ //

  // Direct-route movement guards (paper Figure 4): from slot s, a batch
  // may move only toward its `next` destination.  `next` values:
  // m1..m5 = 1..5, fin(cast) = 6, store = 7.
  [[nodiscard]] Ex guardRight1(int32_t s, int32_t b) {
    const Ex nx = sys().rd(next_[static_cast<size_t>(b)]);
    switch (s) {
      case 0: return nx >= kNextM1;
      case 1:
      case 2: return nx >= kNextM2;
      case 3:
      case 4: return nx >= kNextM3;
      case 5: return nx >= kNextM4;  // m4/m5 (cross-track) or fin
      default: return lit(0);
    }
  }
  [[nodiscard]] Ex guardLeft1(int32_t s, int32_t b) {
    const Ex nx = sys().rd(next_[static_cast<size_t>(b)]);
    switch (s) {
      case 6: return nx <= kNextM3;
      case 5:
      case 4: return nx <= kNextM2;
      case 3:
      case 2: return nx <= kNextM1;
      default: return lit(0);  // never back into the converter slot
    }
  }
  [[nodiscard]] Ex guardRight2(int32_t s, int32_t b) {
    const Ex nx = sys().rd(next_[static_cast<size_t>(b)]);
    switch (s) {
      case 0: return nx >= kNextM1;  // anything: M4 stops it at slot 1
      case 1:
      case 2: return (nx >= kNextM5) || (nx <= kNextM3);
      case 3: return (nx >= kNextCast) || (nx <= kNextM3);
      default: return lit(0);
    }
  }
  [[nodiscard]] Ex guardLeft2(int32_t s, int32_t b) {
    const Ex nx = sys().rd(next_[static_cast<size_t>(b)]);
    switch (s) {
      case 4: return (nx >= kNextM4) && (nx <= kNextM5);
      case 3:
      case 2: return nx == kNextM4;
      default: return lit(0);
    }
  }

  /// Guided pickup condition at crane position k (the batch needs a
  /// crane from that slot).
  [[nodiscard]] Ex guardPick(int32_t k, int32_t b) {
    const Ex nx = sys().rd(next_[static_cast<size_t>(b)]);
    switch (k) {
      case kOverT1Out: return (nx >= kNextM4) && (nx <= kNextCast);
      case kOverT2Out: return (nx <= kNextM3) || (nx == kNextCast);
      case kOverCastOut: return nx == kNextStore;
      default: return lit(0);
    }
  }

  /// Guided drop condition at crane position k.
  [[nodiscard]] Ex guardDrop(int32_t k, int32_t b) {
    const Ex nx = sys().rd(next_[static_cast<size_t>(b)]);
    switch (k) {
      case kOverT1Out: return nx <= kNextM3;
      case kOverT2Out: return (nx >= kNextM4) && (nx <= kNextM5);
      case kOverHold: return nx == kNextCast;
      case kOverStorage: return nx == kNextStore;
      default: return lit(0);
    }
  }

  /// Crane destination for the batch's `next` value (set at pickup).
  [[nodiscard]] Ex craneDest(int32_t b) {
    const Ex nx = sys().rd(next_[static_cast<size_t>(b)]);
    return Ex::ite(nx == kNextCast, lit(kOverHold),
                   Ex::ite(nx == kNextStore, lit(kOverStorage),
                           Ex::ite(nx <= kNextM3, lit(kOverT1Out),
                                   lit(kOverT2Out))));
  }

  void buildBatch(int32_t b) {
    const Quality& q = cfg_.order[static_cast<size_t>(b)];
    const ProcId p = sys().addAutomaton("load" + num(b + 1));
    plant_->batches.push_back(p);
    const ClockId x = sys().addClock("x" + num(b));
    auto& a = sys().automaton(p);
    const std::string lb = "Load" + num(b + 1);

    const LocId src = a.addLocation("src");
    a.setInitial(src);
    std::vector<LocId> at1, at2;
    for (int32_t s = 0; s < kT1Slots; ++s) {
      at1.push_back(a.addLocation("t1_" + num(s)));
    }
    for (int32_t s = 0; s < kT2Slots; ++s) {
      at2.push_back(a.addLocation("t2_" + num(s)));
    }
    const LocId atBuf = a.addLocation("at_buf");
    const LocId atHold = a.addLocation("at_hold");
    const LocId atCastOut = a.addLocation("at_castout");
    const LocId atStore = a.addLocation("at_store");
    const LocId inCast = a.addLocation("in_cast");
    const LocId doneLoc = a.addLocation("done");

    // -- Pouring: one edge per converter. ------------------------------
    for (const int32_t track : {1, 2}) {
      const VarId occ = track == 1 ? posi_ : posii_;
      const int32_t slots = track == 1 ? kT1Slots : kT2Slots;
      const LocId dst = track == 1 ? at1[0] : at2[0];
      auto e = sys().edge(p, src, dst)
                   .send(pour_[static_cast<size_t>(b)])
                   .guard(sys().rdCell(occ, 0, slots) == 0)
                   .assignCellConst(occ, 0, slots, 1)
                   .label(lb + ".Pour" + num(track));
      if (allGuides()) {
        e.guard((sys().rd(nextbatch_) == b) &&
                (sys().rd(inflight_) < kMaxInFlight));
        e.assign(inflight_, sys().rd(inflight_) + 1);
      }
      if (guided()) {
        const int32_t first = machineOn(track, q[0].type);
        bool needsTrack1 = false;
        for (const Stage& st : q) {
          if (machineOn(2, st.type) < 0) needsTrack1 = true;
        }
        if (first < 0 || (needsTrack1 && track == 2)) {
          // This converter cannot serve the recipe under guidance
          // (recipes touching machine 3 are pinned to track 1).
          e.guard(lit(0));
        } else {
          if (!needsTrack1) {
            // Load-balancing converter choice (the paper's Σposi vs
            // Σposii expression); ties break to track 1.
            e.guard(track == 1 ? trackLoad(1) <= trackLoad(2)
                               : trackLoad(2) < trackLoad(1));
          }
          e.assign(next_[static_cast<size_t>(b)], first);
        }
      }
    }

    // -- Track movement (two-phase, like the paper's i2 -> i1aa -> i1). -
    const auto addMoves = [&](int32_t track) {
      const VarId occ = track == 1 ? posi_ : posii_;
      const int32_t slots = track == 1 ? kT1Slots : kT2Slots;
      const std::vector<LocId>& at = track == 1 ? at1 : at2;
      const int32_t outSlot = track == 1 ? kT1Out : kT2Out;
      for (int32_t s = 0; s < slots; ++s) {
        for (const int32_t dir : {+1, -1}) {
          const int32_t s2 = s + dir;
          if (s2 < 0 || s2 >= slots) continue;
          const std::string dirName = dir > 0 ? "Right" : "Left";
          const LocId mv = a.addLocation("mv_t" + num(track) + "_" + num(s) +
                                         (dir > 0 ? "r" : "l"));
          a.setInvariant(mv, {ccLe(x, cfg_.bmove)});
          auto start = sys().edge(p, at[static_cast<size_t>(s)], mv)
                           .reset(x)
                           .assignCellConst(occ, s2, slots, 1)
                           .assignCellConst(occ, s, slots, 0)
                           .label(lb + ".Track" + num(track) + dirName);
          Ex g = sys().rdCell(occ, s2, slots) == 0;
          if (guided()) {
            const Ex gg = track == 1
                              ? (dir > 0 ? guardRight1(s, b) : guardLeft1(s, b))
                              : (dir > 0 ? guardRight2(s, b) : guardLeft2(s, b));
            g = g && gg;
          }
          start.guard(g);
          auto land = sys().edge(p, mv, at[static_cast<size_t>(s2)])
                          .when(ccGe(x, cfg_.bmove));
          if (guided() && dir > 0 && s2 == outSlot) {
            // Arriving at the track exit: the batch now waits for a
            // crane (direct-route guards ensure it only comes here when
            // it needs one).
            const VarId w =
                waitk_ + (track == 1 ? kOverT1Out : kOverT2Out);
            land.assign(w, sys().rd(w) + 1);
          }
        }
      }
    };
    addMoves(1);
    addMoves(2);

    // -- Machine treatment: handshake with the recipe. ------------------
    for (const MachineInfo& m : kMachines) {
      if (!usesMachine(q, m)) continue;
      const LocId slotLoc = m.track == 1 ? at1[static_cast<size_t>(m.slot)]
                                         : at2[static_cast<size_t>(m.slot)];
      const LocId busy = a.addLocation("busy_m" + num(m.id));
      sys().edge(p, slotLoc, busy)
          .receive(chOn_[b][static_cast<size_t>(m.id - 1)]);
      sys().edge(p, busy, slotLoc)
          .receive(chOff_[b][static_cast<size_t>(m.id - 1)]);
    }

    // -- Crane handshakes. ----------------------------------------------
    const auto groundLoc = [&](int32_t k) -> LocId {
      switch (k) {
        case kOverT1Out: return at1[kT1Out];
        case kOverBuffer: return atBuf;
        case kOverT2Out: return at2[kT2Out];
        case kOverHold: return atHold;
        case kOverCastOut: return atCastOut;
        default: return atStore;
      }
    };
    for (int32_t c = 0; c < kNumCranes; ++c) {
      const LocId rise = a.addLocation("rise_c" + num(c + 1));
      const LocId carried = a.addLocation("carried_c" + num(c + 1));
      sys().edge(p, rise, carried).receive(pickdone_[c]);
      for (int32_t k = 0; k < kCranePositions; ++k) {
        // Pickup (STORAGE is exit-only, HOLD feeds the caster — but the
        // unguided model allows repositioning picks from any slot with
        // a ladle; guided guards restrict to useful picks).
        if (k != kOverStorage) {
          auto e = sys().edge(p, groundLoc(k), rise)
                       .send(pick_[c][static_cast<size_t>(k)])
                       .label("Crane" + num(c + 1) + ".Pickup" + num(k));
          const VarId occ = groundOcc(k);
          e.assign(occ, 0);
          if (guided()) {
            e.guard(guardPick(k, b));
            // A hold-bound pickup must respect the casting order.
            e.guard((sys().rd(next_[static_cast<size_t>(b)]) != kNextCast) ||
                    (sys().rd(nexthold_) == b));
            e.assign(waitk_ + k, sys().rd(waitk_ + k) - 1);
            e.assignCell(cdest_, lit(c), kNumCranes, craneDest(b));
          }
        }
        // Putdown.
        const LocId lower = a.addLocation("lower_c" + num(c + 1) + "_" +
                                          num(k));
        auto e = sys().edge(p, carried, lower)
                     .send(drop_[c][static_cast<size_t>(k)])
                     .label("Crane" + num(c + 1) + ".Putdown" + num(k));
        Ex g = lit(1);
        const VarId occ = groundOcc(k);
        if (occ >= 0) {
          g = sys().rd(occ) == 0;
          e.assign(occ, 1);
        }
        if (guided()) {
          g = g && guardDrop(k, b);
          if (k == kOverHold) {
            e.assign(nexthold_, sys().rd(nexthold_) + 1);
          }
        }
        e.guard(g);
        sys().edge(p, lower, groundLoc(k)).receive(dropdone_[c]);
      }
    }

    // -- Casting and exit. -----------------------------------------------
    {
      auto e = sys().edge(p, atHold, inCast)
                   .send(incast_[static_cast<size_t>(b)])
                   .assign(holdocc_, 0)
                   .label("Caster.Start" + num(b + 1));
      if (guided()) {
        e.guard(sys().rd(next_[static_cast<size_t>(b)]) == kNextCast);
      }
      if (allGuides()) {
        e.assign(inflight_, sys().rd(inflight_) - 1);
      }
    }
    {
      auto e = sys().edge(p, inCast, atCastOut)
                   .receive(outcast_[static_cast<size_t>(b)]);
      if (guided()) {
        e.assign(next_[static_cast<size_t>(b)], kNextStore);
        e.assign(waitk_ + kOverCastOut,
                 sys().rd(waitk_ + kOverCastOut) + 1);
      }
    }
    sys().edge(p, atStore, doneLoc)
        .send(dump_[static_cast<size_t>(b)])
        .label(lb + ".Exit");
  }

  // ------------------------------------------------------------------ //

  const PlantConfig& cfg_;
  std::unique_ptr<Plant> plant_;
  int32_t n_ = 0;

  // Variables.
  VarId posi_ = -1, posii_ = -1, cpos_ = -1;
  VarId bufocc_ = -1, holdocc_ = -1, castoutocc_ = -1, ndone_ = -1;
  VarId waitk_ = -1, cranereq_ = -1, cdest_ = -1, nextbatch_ = -1;
  VarId nexthold_ = -1, inflight_ = -1;

  static constexpr int32_t kMaxInFlight = 2;
  std::vector<VarId> next_;

  // Channels.
  std::vector<ChanId> pour_, incast_, outcast_, castdone_, dump_;
  std::vector<std::vector<ChanId>> chOn_, chOff_;
  ChanId pickdone_[kNumCranes] = {-1, -1};
  ChanId dropdone_[kNumCranes] = {-1, -1};
  std::vector<ChanId> pick_[kNumCranes], drop_[kNumCranes];

  LocId monitorDone_ = -1;
};

}  // namespace

std::unique_ptr<Plant> buildPlant(const PlantConfig& cfg) {
  return Builder(cfg).build();
}

std::vector<Quality> standardOrder(int32_t n) {
  std::vector<Quality> order;
  order.reserve(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) {
    switch (i % 3) {
      case 0: order.push_back(qualityAB()); break;
      case 1: order.push_back(qualityA()); break;
      default: order.push_back(qualityB()); break;
    }
  }
  return order;
}

}  // namespace plant
