#include "ta/system.hpp"

#include <algorithm>
#include <set>

namespace ta {

EdgeBuilder& EdgeBuilder::send(ChanId c) {
  assert(c >= 0 && static_cast<size_t>(c) < sys_->numChannels());
  edge_->chan = c;
  edge_->sync = Sync::kSend;
  if (edge_->label.empty()) edge_->label = sys_->channelName(c) + "!";
  return *this;
}

EdgeBuilder& EdgeBuilder::receive(ChanId c) {
  assert(c >= 0 && static_cast<size_t>(c) < sys_->numChannels());
  edge_->chan = c;
  edge_->sync = Sync::kReceive;
  if (edge_->label.empty()) edge_->label = sys_->channelName(c) + "?";
  return *this;
}

EdgeBuilder& EdgeBuilder::guard(Ex e) { return guard(e.ref()); }

EdgeBuilder& EdgeBuilder::guard(ExprRef e) {
  edge_->guard = edge_->guard == kNoExpr
                     ? e
                     : sys_->pool().binary(Op::kAnd, edge_->guard, e);
  return *this;
}

EdgeBuilder& EdgeBuilder::assign(VarId v, int32_t rhs) {
  edge_->assigns.push_back({v, kNoExpr, 1, sys_->pool().constant(rhs)});
  return *this;
}

EdgeBuilder& EdgeBuilder::assignCellConst(VarId base, int32_t index,
                                          int32_t size, int32_t rhs) {
  assert(index >= 0 && index < size);
  (void)size;
  edge_->assigns.push_back(
      {base + index, kNoExpr, 1, sys_->pool().constant(rhs)});
  return *this;
}

namespace {

// A constraint x_i - x_j ≺ c is an upper-type bound on x_i with
// constant c and a lower-type bound on x_j with constant -c; each side
// is clamped at 0 (a negative constant distinguishes nothing for a
// nonnegative clock, but the clock was still compared, so its bound
// becomes 0 rather than the "never compared" -1).  Bumping both sides
// with |c| — the previous behavior — over-widened the global maxima
// and made Extra_M needlessly fine.
void bumpMax(std::vector<dbm::value_t>& maxBounds, const ClockConstraint& cc) {
  const dbm::value_t c = dbm::boundValue(cc.bound);
  if (cc.i != 0) {
    auto& m = maxBounds[static_cast<size_t>(cc.i)];
    m = std::max(m, std::max<dbm::value_t>(c, 0));
  }
  if (cc.j != 0) {
    auto& m = maxBounds[static_cast<size_t>(cc.j)];
    m = std::max(m, std::max<dbm::value_t>(-c, 0));
  }
}

}  // namespace

void System::finalize() {
  assert(!finalized_);

  maxBounds_.assign(dbmDimension(), -1);
  maxBounds_[0] = 0;
  receiversByChan_.assign(chanNames_.size(), {});

  for (auto& ap : automata_) {
    Automaton& a = *ap;
    a.outgoing_.assign(a.locs_.size(), {});
    for (size_t e = 0; e < a.edges_.size(); ++e) {
      const Edge& edge = a.edges_[e];
      assert(edge.src >= 0 &&
             static_cast<size_t>(edge.src) < a.locs_.size());
      assert(edge.dst >= 0 &&
             static_cast<size_t>(edge.dst) < a.locs_.size());
      a.outgoing_[static_cast<size_t>(edge.src)].push_back(
          static_cast<int32_t>(e));
      if (edge.sync == Sync::kReceive) {
        const auto proc = static_cast<ProcId>(&ap - automata_.data());
        receiversByChan_[static_cast<size_t>(edge.chan)].push_back(
            {proc, static_cast<int32_t>(e)});
      }
      for (const ClockConstraint& cc : edge.clockGuard) {
        if (maxBounds_[static_cast<size_t>(cc.i)] == -1 && cc.i != 0)
          maxBounds_[static_cast<size_t>(cc.i)] = 0;
        if (maxBounds_[static_cast<size_t>(cc.j)] == -1 && cc.j != 0)
          maxBounds_[static_cast<size_t>(cc.j)] = 0;
        bumpMax(maxBounds_, cc);
      }
      // A reset to value v means the clock can hold value v outright;
      // make sure extrapolation does not erase that information.
      for (const ClockReset& r : edge.resets) {
        auto& m = maxBounds_[static_cast<size_t>(r.clock)];
        m = std::max(m, r.value);
      }
    }
    for (const Location& l : a.locs_) {
      for (const ClockConstraint& cc : l.invariant) bumpMax(maxBounds_, cc);
    }

    // Per-location active clocks: backwards fixpoint.  A clock is active
    // at l if it appears in l's invariant or in the guard of an edge
    // from l, or is active at a successor location without being reset
    // on the connecting edge.
    std::vector<std::set<ClockId>> act(a.locs_.size());
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t li = 0; li < a.locs_.size(); ++li) {
        std::set<ClockId>& s = act[li];
        const size_t before = s.size();
        for (const ClockConstraint& cc : a.locs_[li].invariant) {
          if (cc.i != 0) s.insert(cc.i);
          if (cc.j != 0) s.insert(cc.j);
        }
        for (int32_t ei : a.outgoing_[li]) {
          const Edge& e = a.edges_[static_cast<size_t>(ei)];
          for (const ClockConstraint& cc : e.clockGuard) {
            if (cc.i != 0) s.insert(cc.i);
            if (cc.j != 0) s.insert(cc.j);
          }
          for (ClockId c : act[static_cast<size_t>(e.dst)]) {
            const bool isReset =
                std::any_of(e.resets.begin(), e.resets.end(),
                            [&](const ClockReset& r) { return r.clock == c; });
            if (!isReset) s.insert(c);
          }
        }
        if (s.size() != before) changed = true;
      }
    }
    a.active_.resize(a.locs_.size());
    for (size_t li = 0; li < a.locs_.size(); ++li) {
      a.active_[li].assign(act[li].begin(), act[li].end());
    }
  }

  finalized_ = true;
}

}  // namespace ta
