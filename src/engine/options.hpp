// Search configuration for the reachability engine — mirrors the UPPAAL
// command-line options the paper's Table 1 varies (breadth-first /
// depth-first / bit-state hashing, active-clock reduction) plus the
// resource cut-offs the paper's "-" entries correspond to.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace engine {

/// One weighted soft requirement for the cost-optimal engine (the
/// DCSynth-style guides): every fired transition whose label contains
/// `labelContains` adds `weight` to the path cost. Positive weights
/// steer the search away from matching edges (prefer-crane-1,
/// minimize-resends); the optimum then minimizes makespan plus the
/// accumulated penalties.
struct SoftGuide {
  std::string labelContains;
  int64_t weight = 0;
};

enum class SearchOrder : uint8_t {
  kBfs,        ///< breadth-first (UPPAAL default)
  kDfs,        ///< depth-first
  kRandomDfs,  ///< depth-first with randomized successor order
};

/// Which finite abstraction normalize() applies to successor zones.
/// kLocationLUPlus abstracts at least as much as kGlobalM, and both
/// preserve location reachability for the diagonal-free models we
/// build — see DESIGN.md "Zone abstraction".
enum class Extrapolation : uint8_t {
  /// No extrapolation at all. Ablation only: the zone graph need not
  /// be finite and the search can diverge.
  kNone,
  /// Classic Extra_M with one global per-clock maximum constant
  /// (`ta::System::maxBounds()`).
  kGlobalM,
  /// Extra+_LU with location-dependent lower/upper bounds from the
  /// static clock-bound analysis; stores fewer zones than kGlobalM.
  kLocationLUPlus,
};

/// Parse a --extrapolation flag value ("none", "global", "lu").
/// Returns false on an unknown spelling.
[[nodiscard]] inline bool parseExtrapolation(std::string_view s,
                                             Extrapolation* out) {
  if (s == "none") *out = Extrapolation::kNone;
  else if (s == "global") *out = Extrapolation::kGlobalM;
  else if (s == "lu") *out = Extrapolation::kLocationLUPlus;
  else return false;
  return true;
}

[[nodiscard]] inline const char* extrapolationName(Extrapolation e) {
  switch (e) {
    case Extrapolation::kNone: return "none";
    case Extrapolation::kGlobalM: return "global";
    case Extrapolation::kLocationLUPlus: return "lu";
  }
  return "?";
}

struct Options {
  SearchOrder order = SearchOrder::kBfs;

  /// Holzmann bit-state hashing: the passed list becomes a 2-bit-per-
  /// state hash table — tiny memory, may prune reachable states.
  /// Requires a depth-first order (as in the paper).
  bool bitstateHashing = false;
  /// log2 of the bit table size. The paper tuned 2^19 .. 2^23 ("table
  /// sizes from 524288 to 8388608 bits").
  uint32_t hashBits = 23;

  /// Daws–Tripakis (in-)active clock reduction.
  bool activeClockReduction = true;

  /// Zone abstraction operator (see the Extrapolation enum). The
  /// default is the coarsest sound operator; kGlobalM reproduces the
  /// pre-LU engine and is the differential-test oracle; kNone is for
  /// ablation only and can make the search diverge.
  Extrapolation extrapolation = Extrapolation::kLocationLUPlus;

  /// Worker threads. 1 = the sequential engines; > 1 selects a
  /// parallel explorer: level-synchronous BFS (chunked frontier queue +
  /// sharded passed store) for kBfs, work-stealing DFS for the
  /// depth-first orders (per-worker frame stacks over a shared sharded
  /// passed store; all workers but the last follow the deepest pending
  /// frame of any stack, and the last scouts on its own dive, stealing
  /// the oldest frame when its stack runs dry). Verdicts match the
  /// sequential engine; see DESIGN.md "Parallel explorer".
  size_t threads = 1;

  /// log2 of the number of passed-store shards in parallel mode.
  /// 2^6 = 64 shards keeps try_lock contention negligible up to a
  /// few dozen workers.
  uint32_t shardBits = 6;

  /// Seed for kRandomDfs.
  uint64_t seed = 1;

  /// Soft-guide penalties, consumed by the best-first engine only (the
  /// plain reachability engines ignore them — they have no cost).
  std::vector<SoftGuide> softGuides;

  /// Explore successors in reverse generation order (DFS only). The
  /// generation order follows process declaration order, so this flips
  /// which process "moves first" — a cheap but sometimes decisive
  /// search heuristic.
  bool dfsReverse = false;

  /// Pre-exploration model optimization (ta/ir.hpp pass pipeline).
  /// 0 = explore the model exactly as built; 1 = constant folding and
  /// dead-location/edge elimination; 2 = both plus dead-store elision
  /// and clock unification. Verdicts and witness traces are unchanged
  /// at every level (traces are mapped back onto the original model);
  /// only search effort differs.
  int optLevel = 2;

  // -- Cut-offs: a run exceeding any of these aborts with the matching
  //    Cutoff, reproducing Table 1's "-" entries. 0 = unlimited. Every
  //    engine stops once accounted bytes > maxMemoryBytes, statesExplored
  //    > maxStates or wall time > maxSeconds; a sequential engine cut
  //    off by maxStates has expanded exactly maxStates + 1 states.
  size_t maxMemoryBytes = 0;
  double maxSeconds = 0.0;
  size_t maxStates = 0;
};

enum class Cutoff : uint8_t {
  kNone,
  kMemory,
  kTime,
  kStates,
};

}  // namespace engine
