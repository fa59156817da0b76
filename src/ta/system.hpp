// A network of timed automata plus its symbol tables — the input to the
// reachability engine.
//
// Construction happens through the builder methods (addClock / addVar /
// addChannel / addAutomaton / EdgeBuilder); `finalize()` then computes
// the derived indices the engine needs: per-location outgoing edge
// lists, per-clock maximal bounds for extrapolation, and per-location
// active-clock sets for the Daws–Tripakis inactive-clock reduction.
#pragma once

#include <cassert>
#include <memory>
#include <string>
#include <vector>

#include "ta/model.hpp"

namespace ta {

class System;

/// Fluent helper for populating an edge in place.
class EdgeBuilder {
 public:
  EdgeBuilder(System& sys, Edge& edge) : sys_(&sys), edge_(&edge) {}

  EdgeBuilder& when(ClockConstraint cc) {
    edge_->clockGuard.push_back(cc);
    return *this;
  }
  /// Conjoins with any guard already present.
  EdgeBuilder& guard(Ex e);
  EdgeBuilder& guard(ExprRef e);
  EdgeBuilder& send(ChanId c);
  EdgeBuilder& receive(ChanId c);
  EdgeBuilder& reset(ClockId x, dbm::value_t v = 0) {
    edge_->resets.push_back({x, v});
    return *this;
  }
  EdgeBuilder& assign(VarId v, Ex rhs) {
    edge_->assigns.push_back({v, kNoExpr, 1, rhs.ref()});
    return *this;
  }
  EdgeBuilder& assign(VarId v, int32_t rhs);
  EdgeBuilder& assignCell(VarId base, Ex index, int32_t size, Ex rhs) {
    edge_->assigns.push_back({base, index.ref(), size, rhs.ref()});
    return *this;
  }
  EdgeBuilder& assignCellConst(VarId base, int32_t index, int32_t size,
                               int32_t rhs);
  EdgeBuilder& label(std::string s) {
    edge_->label = std::move(s);
    return *this;
  }

 private:
  System* sys_;
  Edge* edge_;
};

class Automaton {
 public:
  explicit Automaton(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  LocId addLocation(std::string name, bool urgent = false,
                    bool committed = false) {
    locs_.push_back({std::move(name), {}, urgent, committed});
    return static_cast<LocId>(locs_.size() - 1);
  }

  void setInvariant(LocId l, std::vector<ClockConstraint> inv) {
    locs_[static_cast<size_t>(l)].invariant = std::move(inv);
  }
  void addInvariant(LocId l, ClockConstraint cc) {
    locs_[static_cast<size_t>(l)].invariant.push_back(cc);
  }
  void setInitial(LocId l) { init_ = l; }

  [[nodiscard]] LocId initial() const noexcept { return init_; }
  [[nodiscard]] size_t numLocations() const noexcept { return locs_.size(); }
  /// Location id by name, -1 if absent.
  [[nodiscard]] LocId findLocation(const std::string& name) const {
    for (size_t i = 0; i < locs_.size(); ++i) {
      if (locs_[i].name == name) return static_cast<LocId>(i);
    }
    return -1;
  }
  [[nodiscard]] const Location& location(LocId l) const {
    return locs_[static_cast<size_t>(l)];
  }
  [[nodiscard]] const std::vector<Edge>& edges() const noexcept {
    return edges_;
  }
  [[nodiscard]] const std::vector<int32_t>& outgoing(LocId l) const {
    return outgoing_[static_cast<size_t>(l)];
  }
  /// Statically computed clocks that matter at location l (this
  /// automaton's contribution).
  [[nodiscard]] const std::vector<ClockId>& activeClocks(LocId l) const {
    return active_[static_cast<size_t>(l)];
  }

 private:
  friend class System;

  std::string name_;
  std::vector<Location> locs_;
  std::vector<Edge> edges_;
  LocId init_ = 0;
  // Derived by System::finalize():
  std::vector<std::vector<int32_t>> outgoing_;  // per-location edge indices
  std::vector<std::vector<ClockId>> active_;    // per-location active clocks
};

class System {
 public:
  // -- Declarations -----------------------------------------------------

  ClockId addClock(std::string name) {
    clockNames_.push_back(std::move(name));
    return static_cast<ClockId>(clockNames_.size() - 1 + 1);  // 1-based
  }

  VarId addVar(std::string name, int32_t init = 0) {
    varNames_.push_back(std::move(name));
    varInit_.push_back(init);
    return static_cast<VarId>(varNames_.size() - 1);
  }

  /// Override the initial value of a variable (or one array cell).
  void setVarInit(VarId v, int32_t init) {
    varInit_[static_cast<size_t>(v)] = init;
  }

  /// Override the initial value of a clock (default 0). Nonzero values
  /// lift a mid-run concrete state into the model: the initial zone
  /// becomes the delayed point valuation instead of the origin. The
  /// pre-exploration optimizer is bypassed for such systems (its
  /// clock-unification and dead-location reasoning assume the zero
  /// origin), and the initial state may violate an invariant — engines
  /// then report the goal unreachable instead of asserting.
  void setClockInit(ClockId c, dbm::value_t v) {
    assert(c >= 1 && static_cast<size_t>(c) <= clockNames_.size());
    if (clockInit_.empty() && v == 0) return;
    if (clockInit_.empty()) clockInit_.resize(clockNames_.size() + 1, 0);
    if (static_cast<size_t>(c) >= clockInit_.size()) {
      clockInit_.resize(clockNames_.size() + 1, 0);
    }
    clockInit_[static_cast<size_t>(c)] = v;
  }

  /// Adds `size` consecutive cells named name[0..size-1]; returns the
  /// base id of cell 0.
  VarId addArray(const std::string& name, int32_t size, int32_t init = 0) {
    assert(size > 0);
    const VarId base = static_cast<VarId>(varNames_.size());
    for (int32_t k = 0; k < size; ++k) {
      varNames_.push_back(name + "[" + std::to_string(k) + "]");
      varInit_.push_back(init);
    }
    arraySizes_.push_back({base, size});
    return base;
  }

  ChanId addChannel(std::string name, ChanKind kind = ChanKind::kBinary) {
    chanNames_.push_back(std::move(name));
    chanKinds_.push_back(kind);
    return static_cast<ChanId>(chanNames_.size() - 1);
  }

  ProcId addAutomaton(std::string name) {
    automata_.push_back(std::make_unique<Automaton>(std::move(name)));
    return static_cast<ProcId>(automata_.size() - 1);
  }

  [[nodiscard]] Automaton& automaton(ProcId p) { return *automata_[static_cast<size_t>(p)]; }
  [[nodiscard]] const Automaton& automaton(ProcId p) const {
    return *automata_[static_cast<size_t>(p)];
  }

  EdgeBuilder edge(ProcId p, LocId from, LocId to) {
    Automaton& a = automaton(p);
    Edge e;
    e.src = from;
    e.dst = to;
    a.edges_.push_back(std::move(e));
    return EdgeBuilder(*this, a.edges_.back());
  }

  // -- Expressions --------------------------------------------------------

  [[nodiscard]] ExprPool& pool() noexcept { return pool_; }
  [[nodiscard]] const ExprPool& pool() const noexcept { return pool_; }

  [[nodiscard]] Ex lit(int32_t v) { return {pool_, pool_.constant(v)}; }
  [[nodiscard]] Ex rd(VarId v) { return {pool_, pool_.var(v)}; }
  [[nodiscard]] Ex rdCell(VarId base, int32_t index, int32_t size) {
    assert(index >= 0 && index < size);
    (void)size;
    return {pool_, pool_.var(base + index)};
  }
  [[nodiscard]] Ex rdCell(VarId base, Ex index, int32_t size) {
    return {pool_, pool_.arrayCell(base, index.ref(), size)};
  }

  // -- Introspection ------------------------------------------------------

  [[nodiscard]] size_t numAutomata() const noexcept { return automata_.size(); }
  [[nodiscard]] uint32_t numClocks() const noexcept {
    return static_cast<uint32_t>(clockNames_.size());
  }
  /// DBM dimension: model clocks + the reference clock.
  [[nodiscard]] uint32_t dbmDimension() const noexcept {
    return numClocks() + 1;
  }
  [[nodiscard]] size_t numVars() const noexcept { return varNames_.size(); }
  [[nodiscard]] size_t numChannels() const noexcept { return chanNames_.size(); }

  [[nodiscard]] const std::vector<int32_t>& initialVars() const noexcept {
    return varInit_;
  }
  /// Initial clock valuation indexed by ClockId (slot 0 is the
  /// reference clock). Empty when every clock starts at 0.
  [[nodiscard]] const std::vector<dbm::value_t>& initialClocks()
      const noexcept {
    return clockInit_;
  }
  /// Initial value of one clock (0 unless overridden by setClockInit).
  [[nodiscard]] dbm::value_t initialClock(ClockId c) const {
    if (static_cast<size_t>(c) >= clockInit_.size()) return 0;
    return clockInit_[static_cast<size_t>(c)];
  }
  [[nodiscard]] bool hasNonzeroClockInit() const noexcept {
    for (const dbm::value_t v : clockInit_) {
      if (v != 0) return true;
    }
    return false;
  }
  [[nodiscard]] const std::string& clockName(ClockId c) const {
    return clockNames_[static_cast<size_t>(c - 1)];
  }
  [[nodiscard]] const std::string& varName(VarId v) const {
    return varNames_[static_cast<size_t>(v)];
  }
  [[nodiscard]] const std::vector<std::string>& varNames() const noexcept {
    return varNames_;
  }
  /// Declared arrays as (base cell id, size) pairs — cells occupy the
  /// consecutive VarId range [base, base + size). Used by the lint
  /// passes (usage grouping) and the .gta printer (declarations).
  [[nodiscard]] const std::vector<std::pair<VarId, int32_t>>& arrays()
      const noexcept {
    return arraySizes_;
  }
  [[nodiscard]] const std::string& channelName(ChanId c) const {
    return chanNames_[static_cast<size_t>(c)];
  }
  [[nodiscard]] ChanKind channelKind(ChanId c) const {
    return chanKinds_[static_cast<size_t>(c)];
  }

  /// Per-clock maximal constants (index 0 = reference clock, always 0);
  /// computed by finalize(). -1 means the clock is never compared.
  [[nodiscard]] const std::vector<dbm::value_t>& maxBounds() const noexcept {
    return maxBounds_;
  }

  /// All receive edges of a channel as (process, edge-index) pairs —
  /// lets the engine pair senders with receivers without scanning every
  /// process. Computed by finalize().
  [[nodiscard]] const std::vector<std::pair<ProcId, int32_t>>& receivers(
      ChanId c) const {
    return receiversByChan_[static_cast<size_t>(c)];
  }

  /// Compute derived tables. Must be called once after construction and
  /// before handing the system to the engine.
  void finalize();

  [[nodiscard]] bool finalized() const noexcept { return finalized_; }

 private:
  friend class EdgeBuilder;

  ExprPool pool_;
  std::vector<std::string> clockNames_;
  std::vector<dbm::value_t> clockInit_;  ///< by ClockId; empty = all zero
  std::vector<std::string> varNames_;
  std::vector<int32_t> varInit_;
  std::vector<std::pair<VarId, int32_t>> arraySizes_;
  std::vector<std::string> chanNames_;
  std::vector<ChanKind> chanKinds_;
  std::vector<std::unique_ptr<Automaton>> automata_;
  std::vector<dbm::value_t> maxBounds_;
  std::vector<std::vector<std::pair<ProcId, int32_t>>> receiversByChan_;
  bool finalized_ = false;
};

}  // namespace ta
