// Concurrency tests for the storage engine: many threads hammering one
// ShardedPassedStore (and through it the shared StateInterner), plus
// parallel-engine runs on the batch plant — the configurations the
// TSan stage replays to certify the lock-free interner reads.
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/interner.hpp"
#include "engine/passed_store.hpp"
#include "engine/reachability.hpp"
#include "plant/plant.hpp"

namespace engine {
namespace {

DiscreteState ds(int32_t a, int32_t b) {
  DiscreteState d;
  d.locs = {static_cast<ta::LocId>(a % 7)};
  d.vars = {a, b};
  return d;
}

dbm::Dbm interval(int lo, int hi) {
  dbm::Dbm z = dbm::Dbm::unconstrained(2);
  EXPECT_TRUE(z.constrain(0, 1, dbm::boundWeak(-lo)));
  EXPECT_TRUE(z.constrain(1, 0, dbm::boundWeak(hi)));
  return z;
}

TEST(StoreParallel, OverlappingInsertsConvergeToOneZonePerState) {
  // Every thread inserts, for every discrete state, the interval chain
  // [0,1] ⊂ [0,2] ⊂ ... ⊂ [0,R] in a thread-dependent order. Inclusion
  // pruning plus the atomic covered+insert means each bucket must end
  // with exactly the largest interval, whatever the interleaving.
  const int kStates = 256;
  const int kRadii = 6;
  const unsigned nThreads = std::max(2u, std::thread::hardware_concurrency());
  StateInterner interner;
  ShardedPassedStore store(4, interner);
  std::atomic<size_t> accepted{0};

  std::vector<std::thread> pool;
  for (unsigned t = 0; t < nThreads; ++t) {
    pool.emplace_back([&, t] {
      size_t mine = 0;
      for (int k = 0; k < kStates; ++k) {
        for (int r = 0; r < kRadii; ++r) {
          // Rotate the radius order per thread and state so larger and
          // smaller zones race in both directions.
          const int radius = 1 + (r + static_cast<int>(t) + k) % kRadii;
          SymbolicState s{ds(k, k * 31), interval(0, radius)};
          const uint32_t id = store.testAndInsert(s);
          if (id != StateInterner::kNoId) {
            ++mine;
            EXPECT_EQ(interner.get(id), s.d);
          }
        }
      }
      accepted.fetch_add(mine, std::memory_order_relaxed);
    });
  }
  for (std::thread& th : pool) th.join();

  // Dedup holds across threads: one arena entry per distinct state.
  EXPECT_EQ(interner.size(), static_cast<size_t>(kStates));
  // Each bucket converged to the maximal interval alone.
  EXPECT_EQ(store.states(), static_cast<size_t>(kStates));
  EXPECT_EQ(store.approxBytes(), store.bytes());
  for (int k = 0; k < kStates; ++k) {
    SymbolicState top{ds(k, k * 31), interval(0, kRadii)};
    // The maximal zone is already covered...
    EXPECT_EQ(store.testAndInsert(top), StateInterner::kNoId);
    // ...and anything strictly larger is not.
    SymbolicState bigger{ds(k, k * 31), interval(0, kRadii + 1)};
    EXPECT_NE(store.testAndInsert(bigger), StateInterner::kNoId);
  }
  // At least one insert per state succeeded; duplicates were filtered.
  EXPECT_GE(accepted.load(), static_cast<size_t>(kStates));
  EXPECT_LE(accepted.load(),
            static_cast<size_t>(kStates) * kRadii * nThreads);
}

TEST(StoreParallel, DisjointInsertsAllLand) {
  // Threads own disjoint discrete ranges: no filtering can occur, and
  // every inserted state must be present afterwards.
  const int kPerThread = 500;
  const unsigned nThreads = 4;
  StateInterner interner;
  ShardedPassedStore store(2, interner);

  std::vector<std::thread> pool;
  for (unsigned t = 0; t < nThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int k = 0; k < kPerThread; ++k) {
        const int key = static_cast<int>(t) * kPerThread + k;
        SymbolicState s{ds(key, -key), interval(0, 1 + key % 4)};
        EXPECT_NE(store.testAndInsert(s), StateInterner::kNoId);
      }
    });
  }
  for (std::thread& th : pool) th.join();

  const size_t total = static_cast<size_t>(kPerThread) * nThreads;
  EXPECT_EQ(store.states(), total);
  EXPECT_EQ(interner.size(), total);
  for (unsigned t = 0; t < nThreads; ++t) {
    const int key = static_cast<int>(t) * kPerThread;  // spot-check one each
    SymbolicState s{ds(key, -key), interval(0, 1 + key % 4)};
    EXPECT_EQ(store.testAndInsert(s), StateInterner::kNoId);
  }
}

TEST(StoreParallel, SharedInternerAcrossStores) {
  // Per-worker PassedStores over one interner: concurrent interning of
  // the same states must dedupe to one arena entry each.
  const unsigned nThreads = 4;
  StateInterner interner;
  std::vector<std::thread> pool;
  std::vector<size_t> stored(nThreads, 0);
  for (unsigned t = 0; t < nThreads; ++t) {
    pool.emplace_back([&, t] {
      PassedStore mine(interner);
      for (int k = 0; k < 300; ++k) {
        const DiscreteState d = ds(k, 3 * k);
        if (!mine.covered(d, interval(0, 2))) {
          mine.insert(interner.intern(d), interval(0, 2));
        }
      }
      stored[t] = mine.states();
    });
  }
  for (std::thread& th : pool) th.join();
  for (unsigned t = 0; t < nThreads; ++t) EXPECT_EQ(stored[t], 300u);
  // All workers interned the same 300 values: deduped to one arena copy.
  EXPECT_EQ(interner.size(), 300u);
  EXPECT_GE(interner.hits(), 300u * (nThreads - 1));
}

TEST(StoreParallel, ParallelEnginesMatchSequentialOnPlant) {
  plant::PlantConfig cfg;
  cfg.order = plant::standardOrder(2);

  Options seq;
  seq.maxSeconds = 60.0;
  const auto ps = plant::buildPlant(cfg);
  Reachability sref(ps->sys, seq);
  const Result rs = sref.run(ps->goal);
  ASSERT_TRUE(rs.reachable);

  // Level-synchronous parallel BFS: verdict and explored count match
  // the sequential engine by construction.
  Options pbfs = seq;
  pbfs.threads = 4;
  pbfs.shardBits = 3;
  const auto p1 = plant::buildPlant(cfg);
  Reachability a(p1->sys, pbfs);
  const Result ra = a.run(p1->goal);
  EXPECT_EQ(ra.reachable, rs.reachable);
  EXPECT_GT(ra.stats.statesInterned, 0u);

  // Work-stealing parallel DFS: verdict must match.
  Options pdfs = seq;
  pdfs.order = SearchOrder::kDfs;
  pdfs.threads = 4;
  pdfs.shardBits = 3;
  const auto p2 = plant::buildPlant(cfg);
  Reachability b(p2->sys, pdfs);
  const Result rb = b.run(p2->goal);
  EXPECT_EQ(rb.reachable, rs.reachable);
}

}  // namespace
}  // namespace engine
