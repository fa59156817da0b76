// Symbolic states: a discrete part (location vector + integer variable
// valuation) paired with a clock zone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dbm/dbm.hpp"
#include "ta/model.hpp"

namespace engine {

/// The discrete part of a symbolic state.
struct DiscreteState {
  std::vector<ta::LocId> locs;  ///< current location per automaton
  std::vector<int32_t> vars;    ///< integer variable valuation

  [[nodiscard]] bool operator==(const DiscreteState& o) const noexcept {
    return locs == o.locs && vars == o.vars;
  }

  [[nodiscard]] size_t hash() const noexcept {
    size_t h = 1469598103934665603ull;
    const auto mix = [&h](uint64_t v) {
      h ^= v;
      h *= 1099511628211ull;
    };
    for (ta::LocId l : locs) mix(static_cast<uint32_t>(l));
    for (int32_t v : vars) mix(static_cast<uint32_t>(v) + 0x9e3779b9u);
    return h;
  }

  /// A second hash over the same data from an independent seed and
  /// multiplier (xxHash-style constants). Bit-state hashing needs two
  /// probe positions that do not collide together: deriving both from
  /// one hash value makes every h1 collision an h2 collision, silently
  /// doubling the omission probability the two-bit scheme is meant to
  /// suppress.
  [[nodiscard]] size_t hash2() const noexcept {
    size_t h = 0x27220a95fe326639ull;
    const auto mix = [&h](uint64_t v) {
      h = (h ^ v) * 0x9e3779b185ebca87ull;
      h ^= h >> 29;
    };
    for (ta::LocId l : locs) mix(static_cast<uint32_t>(l));
    for (int32_t v : vars) mix(static_cast<uint32_t>(v) + 0x85ebca77u);
    return h;
  }

  [[nodiscard]] size_t memoryBytes() const noexcept {
    return locs.capacity() * sizeof(ta::LocId) +
           vars.capacity() * sizeof(int32_t);
  }
};

/// One participating (process, edge) of a transition; a binary
/// synchronization has two parts, an internal step one.
struct TransitionPart {
  ta::ProcId proc = -1;
  int32_t edge = -1;

  [[nodiscard]] bool operator==(const TransitionPart&) const = default;
};

/// The discrete transition taken between two symbolic states.
struct Transition {
  // 0 parts = initial state marker; 1 = internal; 2 = binary sync;
  // >2 = broadcast (sender first).
  std::vector<TransitionPart> parts;
};

/// A discrete state and its zone. Zones the engine builds are kept
/// over the live clocks of `d` only (SuccessorGenerator::layoutOf).
struct SymbolicState {
  DiscreteState d;
  dbm::Dbm zone;

  [[nodiscard]] size_t memoryBytes() const noexcept {
    return d.memoryBytes() + zone.memoryBytes();
  }

  /// Combined hash of the discrete part and a hash of the zone (used by
  /// bit-state hashing). The engines pass the layout-independent zone
  /// hash, SuccessorGenerator::fullWidthHash.
  [[nodiscard]] size_t fullHash(size_t zoneHash) const noexcept {
    size_t h = d.hash();
    h ^= zoneHash + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
  }

  /// Second, independently seeded combined hash: built from
  /// DiscreteState::hash2() (its own seed and multiplier) and a
  /// different mixing of the zone hash, so (fullHash, fullHash2)
  /// collide together only for genuinely identical content — the
  /// property the two-bit bit-state scheme relies on.
  [[nodiscard]] size_t fullHash2(size_t zoneHash) const noexcept {
    size_t h = d.hash2();
    size_t z = zoneHash * 0xc2b2ae3d27d4eb4full;
    z ^= z >> 33;
    h ^= z + 0x165667b19e3779f9ull + (h << 25) + (h >> 7);
    return h;
  }
};

}  // namespace engine
