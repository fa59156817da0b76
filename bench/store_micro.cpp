// Micro-benchmarks of the storage engine: intern-hit throughput on the
// hash-consing arena, covered() probe throughput of the flat
// open-addressing passed store against a PR 3-style
// unordered_map-of-zone-vectors baseline (rebuilt locally so the
// comparison survives the old store's removal).
//
// `store_micro --smoke` runs only the covered() comparison and fails
// (exit != 0) when the flat store does not at least match the legacy
// layout — the perf gate wired into ctest under the perf-smoke label.
//
// stdout: human-readable table; BENCH_store_micro.json gets the rows.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <unordered_map>
#include <vector>

#include "bench_util.hpp"
#include "engine/interner.hpp"
#include "engine/passed_store.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

engine::DiscreteState makeState(int k) {
  engine::DiscreteState d;
  d.locs = {static_cast<ta::LocId>(k % 11), static_cast<ta::LocId>(k % 5)};
  d.vars = {k, k * 7 + 1, k % 3};
  return d;
}

/// Zone `slot` of a bucket: clock 1 in [3*slot, 3*slot + 2], pairwise
/// incomparable across slots so subsumption never collapses the bucket.
dbm::Dbm slotZone(uint32_t dim, int slot, int width = 2) {
  dbm::Dbm z = dbm::Dbm::unconstrained(dim);
  z.constrain(0, 1, dbm::boundWeak(-3 * slot));
  z.constrain(1, 0, dbm::boundWeak(3 * slot + width));
  return z;
}

// --------------------------------------------------------------------
// PR 3-style baseline: discrete keys in an unordered_map, each bucket a
// vector of individually allocated DBMs — the node-based layout the
// flat store replaced.
// --------------------------------------------------------------------

struct DiscreteHash {
  size_t operator()(const engine::DiscreteState& d) const noexcept {
    return d.hash();
  }
};

class LegacyMapStore {
 public:
  [[nodiscard]] bool covered(const engine::DiscreteState& d,
                             const dbm::Dbm& z) const {
    const auto it = map_.find(d);
    if (it == map_.end()) return false;
    for (const dbm::Dbm& s : it->second) {
      if (s.includes(z)) return true;
    }
    return false;
  }

  void insert(const engine::DiscreteState& d, const dbm::Dbm& z) {
    auto& zones = map_[d];
    for (size_t k = 0; k < zones.size();) {
      if (z.includes(zones[k])) {
        zones[k] = std::move(zones.back());
        zones.pop_back();
      } else {
        ++k;
      }
    }
    zones.push_back(z);
  }

 private:
  std::unordered_map<engine::DiscreteState, std::vector<dbm::Dbm>,
                     DiscreteHash>
      map_;
};

// --------------------------------------------------------------------
// Kernels
// --------------------------------------------------------------------

struct CoveredResult {
  double flatMs = 0.0;
  double legacyMs = 0.0;
  size_t queries = 0;
  size_t hitsFlat = 0;
  size_t hitsLegacy = 0;
};

/// Fill both layouts with `nStates` buckets of `zonesPer` incomparable
/// zones of dimension `dim`, then time an identical mixed hit/miss
/// covered() query stream over each (best of three passes).
CoveredResult coveredKernel(int nStates, int zonesPer, uint32_t dim,
                            int queryRounds) {
  engine::StateInterner interner;
  engine::PassedStore flat(interner);
  LegacyMapStore legacy;
  for (int k = 0; k < nStates; ++k) {
    const engine::DiscreteState d = makeState(k);
    const uint32_t id = interner.intern(d);
    for (int s = 0; s < zonesPer; ++s) {
      flat.insert(id, slotZone(dim, s));
      legacy.insert(d, slotZone(dim, s));
    }
  }

  // Query stream: covered probes (slot sub-intervals), uncovered probes
  // (straddling two slots) and unknown discrete states, shuffled.
  struct Query {
    engine::DiscreteState d;
    dbm::Dbm z;
  };
  std::vector<Query> queries;
  std::mt19937_64 rng(42);
  std::uniform_int_distribution<int> state(0, nStates - 1);
  std::uniform_int_distribution<int> slot(0, zonesPer - 1);
  std::uniform_int_distribution<int> kind(0, 3);
  const int nQueries = nStates * queryRounds;
  queries.reserve(static_cast<size_t>(nQueries));
  for (int q = 0; q < nQueries; ++q) {
    const int k = state(rng);
    const int s = slot(rng);
    switch (kind(rng)) {
      case 0:  // hit: strictly inside one stored slot
        queries.push_back({makeState(k), slotZone(dim, s, 1)});
        break;
      case 1:  // miss: spans the gap between two slots
        queries.push_back({makeState(k), slotZone(dim, s, 4)});
        break;
      case 2:  // miss: discrete state never inserted
        queries.push_back({makeState(nStates + k), slotZone(dim, s, 1)});
        break;
      default:  // hit: exactly a stored zone
        queries.push_back({makeState(k), slotZone(dim, s)});
        break;
    }
  }

  CoveredResult out;
  out.queries = static_cast<size_t>(nQueries);
  out.flatMs = 1e30;
  out.legacyMs = 1e30;
  for (int pass = 0; pass < 3; ++pass) {
    size_t hits = 0;
    Clock::time_point t0 = Clock::now();
    for (const Query& q : queries) {
      hits += flat.covered(q.d, q.z) ? 1 : 0;
    }
    out.flatMs = std::min(out.flatMs, msSince(t0));
    out.hitsFlat = hits;

    hits = 0;
    t0 = Clock::now();
    for (const Query& q : queries) {
      hits += legacy.covered(q.d, q.z) ? 1 : 0;
    }
    out.legacyMs = std::min(out.legacyMs, msSince(t0));
    out.hitsLegacy = hits;
  }
  return out;
}

struct InternResult {
  double missMs = 0.0;  ///< first pass: all inserts
  double hitMs = 0.0;   ///< re-intern passes: all hits
  size_t states = 0;
  size_t reinterns = 0;
};

InternResult internKernel(int nStates, int hitPasses) {
  engine::StateInterner interner;
  InternResult out;
  out.states = static_cast<size_t>(nStates);
  Clock::time_point t0 = Clock::now();
  for (int k = 0; k < nStates; ++k) {
    (void)interner.intern(makeState(k));
  }
  out.missMs = msSince(t0);

  t0 = Clock::now();
  for (int pass = 0; pass < hitPasses; ++pass) {
    for (int k = 0; k < nStates; ++k) {
      (void)interner.intern(makeState(k));
    }
  }
  out.hitMs = msSince(t0);
  out.reinterns = static_cast<size_t>(nStates) * hitPasses;
  return out;
}

int runSmoke() {
  // Modest size so the gate is quick; dim 64 ~ a mid-size plant model.
  const CoveredResult r = coveredKernel(2000, 8, 64, 20);
  const double ratio = r.legacyMs / r.flatMs;
  std::printf("covered(): flat %.1f ms, legacy map %.1f ms (%zu queries, "
              "flat %.2fx)\n",
              r.flatMs, r.legacyMs, r.queries, ratio);
  if (r.hitsFlat != r.hitsLegacy) {
    std::printf("FAIL: stores disagree (%zu vs %zu hits)\n", r.hitsFlat,
                r.hitsLegacy);
    return 1;
  }
  // The flat layout must at least match the node-based map; the margin
  // absorbs scheduler noise on loaded CI hosts, not a real regression.
  if (ratio < 0.95) {
    std::printf("FAIL: flat covered() slower than the legacy layout "
                "(%.2fx, need >= 0.95x)\n", ratio);
    return 1;
  }
  std::printf("PASS: flat covered() at %.2fx the legacy layout\n", ratio);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return runSmoke();

  const bool quick = benchutil::quick();
  benchutil::Report report("store_micro");

  {
    const int n = quick ? 20000 : 100000;
    const InternResult r = internKernel(n, 5);
    std::printf("intern: %d states, miss pass %.1f ms (%.0f k/s), "
                "%zu re-interns %.1f ms (%.0f k/s)\n",
                n, r.missMs, n / r.missMs, r.reinterns, r.hitMs,
                r.reinterns / r.hitMs);
    report.add("intern-miss-" + std::to_string(n), r.missMs, 0, r.states);
    report.add("intern-hit-x5-" + std::to_string(n), r.hitMs, 0, r.states);
  }
  {
    const int n = quick ? 2000 : 8000;
    const int rounds = quick ? 20 : 40;
    const CoveredResult r = coveredKernel(n, 8, 64, rounds);
    std::printf("covered(): %zu queries over %d buckets x 8 zones (dim 64)\n"
                "  flat store  %8.1f ms (%.0f k/s, %zu hits)\n"
                "  legacy map  %8.1f ms (%.0f k/s, %zu hits)\n",
                r.queries, n, r.flatMs, r.queries / r.flatMs, r.hitsFlat,
                r.legacyMs, r.queries / r.legacyMs, r.hitsLegacy);
    report.add("covered-flat-" + std::to_string(n) + "x8", r.flatMs, 0,
               static_cast<size_t>(n) * 8);
    report.add("covered-legacy-" + std::to_string(n) + "x8", r.legacyMs, 0,
               static_cast<size_t>(n) * 8);
  }
  report.write();
  return 0;
}
