// Unit tests for the storage engine: the hash-consing StateInterner,
// the flat open-addressing PassedStore (symmetric subsumption pruning,
// byte accounting, table growth) and the ShardedPassedStore wrapper,
// plus the store counters of a search on the batch plant.
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "engine/interner.hpp"
#include "engine/passed_store.hpp"
#include "engine/reachability.hpp"
#include "plant/plant.hpp"

namespace engine {
namespace {

DiscreteState ds(std::vector<ta::LocId> locs, std::vector<int32_t> vars) {
  DiscreteState d;
  d.locs = std::move(locs);
  d.vars = std::move(vars);
  return d;
}

/// The interval [lo, hi] on clock 1 (weak bounds, dimension 2).
dbm::Dbm interval(int lo, int hi) {
  dbm::Dbm z = dbm::Dbm::unconstrained(2);
  EXPECT_TRUE(z.constrain(0, 1, dbm::boundWeak(-lo)));
  EXPECT_TRUE(z.constrain(1, 0, dbm::boundWeak(hi)));
  return z;
}

TEST(Interner, DedupSharesOneEntry) {
  StateInterner in;
  const DiscreteState a = ds({0, 1}, {7});
  const uint32_t id1 = in.intern(a);
  const uint32_t id2 = in.intern(ds({0, 1}, {7}));
  EXPECT_EQ(id1, id2);
  EXPECT_EQ(in.size(), 1u);
  EXPECT_EQ(in.hits(), 1u);
  EXPECT_EQ(in.get(id1), a);

  const uint32_t id3 = in.intern(ds({0, 2}, {7}));
  EXPECT_NE(id3, id1);
  EXPECT_EQ(in.size(), 2u);
  EXPECT_EQ(in.hashOf(id3), ds({0, 2}, {7}).hash());
}

TEST(Interner, TableGrowthKeepsRoundTrips) {
  // Enough states to force several table rehashes and chunk
  // allocations in every shard.
  StateInterner in;
  std::vector<uint32_t> ids;
  const int n = 50000;
  ids.reserve(static_cast<size_t>(n));
  for (int k = 0; k < n; ++k) {
    ids.push_back(in.intern(ds({static_cast<ta::LocId>(k % 17)}, {k})));
  }
  EXPECT_EQ(in.size(), static_cast<size_t>(n));
  std::set<uint32_t> distinct(ids.begin(), ids.end());
  EXPECT_EQ(distinct.size(), static_cast<size_t>(n));
  for (int k = 0; k < n; k += 997) {
    EXPECT_EQ(in.get(ids[static_cast<size_t>(k)]).vars[0], k);
    // A re-intern of an existing value must return the original id.
    EXPECT_EQ(in.intern(ds({static_cast<ta::LocId>(k % 17)}, {k})),
              ids[static_cast<size_t>(k)]);
  }
}

class StoreTest : public ::testing::Test {
 protected:
  StateInterner interner_;
};

TEST_F(StoreTest, CoveredAnswersInclusion) {
  PassedStore store(interner_);
  const DiscreteState d = ds({0, 0}, {1});
  store.insert(interner_.intern(d), interval(0, 5));
  EXPECT_TRUE(store.covered(d, interval(1, 3)));
  EXPECT_TRUE(store.covered(d, interval(0, 5)));
  EXPECT_FALSE(store.covered(d, interval(0, 7)));
  EXPECT_FALSE(store.covered(ds({0, 1}, {1}), interval(1, 3)));
  EXPECT_EQ(store.states(), 1u);
  EXPECT_GT(store.lookups(), 0u);
  EXPECT_GT(store.probeSteps(), 0u);
  EXPECT_GT(store.bytes(), 0u);
}

TEST_F(StoreTest, InsertPrunesSubsumedZonesFullLayout) {
  PassedStore store(interner_);
  const uint32_t id = interner_.intern(ds({0}, {}));
  store.insert(id, interval(1, 3));
  store.insert(id, interval(5, 6));
  EXPECT_EQ(store.states(), 2u);
  const size_t bytesBefore = store.bytes();
  // Subsumes both stored zones: they must be pruned, not accumulated.
  store.insert(id, interval(0, 8));
  EXPECT_EQ(store.states(), 1u);
  EXPECT_LE(store.bytes(), bytesBefore);
  EXPECT_TRUE(store.covered(interner_.get(id), interval(1, 3)));
  EXPECT_FALSE(store.covered(interner_.get(id), interval(0, 9)));
}

TEST_F(StoreTest, BytesCountWhatTheBatchHolds) {
  // One wide bucket (the 45-batch plant's dimension) costs what its
  // ZoneBatch holds plus a fixed table and entry overhead, at every
  // fill level of its first two blocks and after a prune.
  const uint32_t dim = 139;
  const auto pinned = [dim](int lo, int hi) {
    dbm::Dbm z = dbm::Dbm::unconstrained(dim);
    EXPECT_TRUE(z.constrain(0, 1, dbm::boundWeak(-lo)));
    EXPECT_TRUE(z.constrain(1, 0, dbm::boundWeak(hi)));
    return z;
  };
  PassedStore store(interner_);
  const uint32_t id = interner_.intern(ds({0}, {}));
  dbm::ZoneBatch mirror(dim);
  std::vector<size_t> overhead;
  for (int k = 0; k < 9; ++k) {  // disjoint zones: nothing is pruned
    store.insert(id, pinned(k, k));
    mirror.push(pinned(k, k));
    if (k + 1 == 1 || k + 1 == 7 || k + 1 == 9) {
      overhead.push_back(store.bytes() - mirror.memoryBytes());
    }
  }
  const dbm::Dbm all = pinned(0, 100);
  store.insert(id, all);
  EXPECT_EQ(mirror.pruneSubsets(all.rawData()), 9u);
  mirror.push(all);
  EXPECT_EQ(store.states(), 1u);
  overhead.push_back(store.bytes() - mirror.memoryBytes());

  // The slot table (1024 slots of hash + entry index) plus one entry.
  const size_t table = 1024 * (sizeof(uint64_t) + sizeof(uint32_t));
  EXPECT_GT(overhead[0], table);
  EXPECT_LT(overhead[0], table + 1024);
  for (const size_t o : overhead) EXPECT_EQ(o, overhead[0]);
}

TEST_F(StoreTest, TableResizeStress) {
  PassedStore store(interner_);
  const int n = 5000;
  for (int k = 0; k < n; ++k) {
    const uint32_t id = interner_.intern(ds({0}, {k}));
    store.insert(id, interval(0, 1 + (k % 3)));
  }
  EXPECT_EQ(store.states(), static_cast<size_t>(n));
  EXPECT_EQ(store.entryCount(), static_cast<size_t>(n));
  for (int k = 0; k < n; k += 97) {
    EXPECT_TRUE(store.covered(ds({0}, {k}), interval(0, 1)));
  }
  EXPECT_FALSE(store.covered(ds({0}, {n + 1}), interval(0, 1)));
  // Mean probe length stays short at the 7/8 load cap.
  EXPECT_LT(store.probeSteps(),
            store.lookups() * 8 + static_cast<size_t>(n) * 8);
}

TEST(ShardedStore, TestAndInsertReturnsIdOnceAndCoverageAfter) {
  StateInterner interner;
  ShardedPassedStore store(2, interner);
  SymbolicState s{ds({0, 1}, {5}), interval(0, 5)};
  const uint32_t id = store.testAndInsert(s);
  ASSERT_NE(id, StateInterner::kNoId);
  EXPECT_EQ(interner.get(id), s.d);
  // Identical and included states are rejected.
  EXPECT_EQ(store.testAndInsert(s), StateInterner::kNoId);
  SymbolicState smaller{s.d, interval(1, 3)};
  EXPECT_EQ(store.testAndInsert(smaller), StateInterner::kNoId);
  SymbolicState larger{s.d, interval(0, 6)};
  EXPECT_NE(store.testAndInsert(larger), StateInterner::kNoId);
  EXPECT_EQ(store.states(), 1u);  // subsumption pruned the original
  EXPECT_GT(store.bytes(), 0u);
  EXPECT_EQ(store.approxBytes(), store.bytes());
}

// --- Store counters of a search on the batch plant -----------------------

Result runPlant(int batches, const Options& o) {
  plant::PlantConfig cfg;
  cfg.order = plant::standardOrder(batches);
  const auto p = plant::buildPlant(cfg);
  Reachability checker(p->sys, o);
  return checker.run(p->goal);
}

// Named for the interning on/off comparison it made while interning was
// optional; its checks on the interned run are what stays.
TEST(StorePlant, InternOnOffIdenticalSearch) {
  Options o;
  o.order = SearchOrder::kDfs;
  o.dfsReverse = true;
  o.maxSeconds = 60.0;

  const Result a = runPlant(2, o);
  ASSERT_TRUE(a.reachable);
  // The arena holds distinct discrete states and records re-intern hits.
  EXPECT_GT(a.stats.internHits, 0u);
  EXPECT_GT(a.stats.storeLookups, 0u);
  EXPECT_GT(a.stats.storeBytes, 0u);
}

}  // namespace
}  // namespace engine
