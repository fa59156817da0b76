// ZoneBatch (the AoSoA passed-store arena) against the plain Dbm
// operations it transposes: scans (anySuperset / pruneSubsets) must
// agree with one-zone-at-a-time inclusion checks on both the scalar and
// the vectorized dispatch path, and the batch must hold memory for its
// live lanes only.
// Also the PR's Dbm special-member fixes: self-assignment and the
// hash invalidation contract of the batch extraction API (assignRaw).
#include <algorithm>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "dbm/simd.hpp"
#include "dbm/zone_batch.hpp"

namespace dbm {
namespace {

Dbm randomZone(std::mt19937_64& rng, uint32_t dim, int box) {
  std::uniform_int_distribution<int> c(0, box);
  std::uniform_int_distribution<uint32_t> clk(1, dim - 1);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> nCons(0, 4);
  for (;;) {
    Dbm z = Dbm::unconstrained(dim);
    bool ok = true;
    const int n = nCons(rng);
    for (int k = 0; k < n && ok; ++k) {
      const uint32_t i = clk(rng);
      if (coin(rng) != 0) {
        ok = z.constrain(i, 0, boundWeak(c(rng)));
      } else {
        ok = z.constrain(0, i, boundWeak(-c(rng)));
      }
    }
    if (ok && !z.isEmpty()) return z;
  }
}

class ZoneBatchTest : public ::testing::TestWithParam<simd::Level> {
 protected:
  void SetUp() override { simd::forceLevel(GetParam()); }
  void TearDown() override { simd::forceLevel(simd::detectedLevel()); }
};

TEST_P(ZoneBatchTest, PushRoundTripsThroughAtAndZoneAt) {
  std::mt19937_64 rng(7);
  const uint32_t dim = 4;
  ZoneBatch batch(dim);
  std::vector<Dbm> ref;
  for (int i = 0; i < 21; ++i) {  // 2 full blocks + a partial one
    ref.push_back(randomZone(rng, dim, 9));
    batch.push(ref.back());
  }
  ASSERT_EQ(batch.size(), ref.size());
  for (size_t z = 0; z < ref.size(); ++z) {
    EXPECT_EQ(batch.zoneAt(z), ref[z]) << "zone " << z;
    for (uint32_t i = 0; i < dim; ++i) {
      for (uint32_t j = 0; j < dim; ++j) {
        ASSERT_EQ(batch.at(z, i, j), ref[z].at(i, j));
      }
    }
  }
}

TEST_P(ZoneBatchTest, ScansAgreeWithPerZoneInclusion) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 rng(seed);
    const uint32_t dim = 2 + static_cast<uint32_t>(seed % 3);
    ZoneBatch batch(dim);
    std::vector<Dbm> ref;
    const size_t n = 1 + static_cast<size_t>(rng() % 20);
    for (size_t i = 0; i < n; ++i) {
      ref.push_back(randomZone(rng, dim, 5));
      batch.push(ref.back());
    }
    for (int q = 0; q < 8; ++q) {
      // Mix fresh zones with exact copies of stored ones so the equal /
      // superset / subset cases all occur.
      const Dbm query = (q % 3 == 0) ? ref[rng() % ref.size()]
                                     : randomZone(rng, dim, 5);
      const bool super = std::any_of(ref.begin(), ref.end(), [&](const Dbm& z) {
        return z.includes(query);
      });
      EXPECT_EQ(batch.anySuperset(query.rawData()), super)
          << "seed " << seed << " query " << q;
    }
  }
}

TEST_P(ZoneBatchTest, PruneSubsetsMatchesBruteForce) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 rng(seed);
    const uint32_t dim = 2 + static_cast<uint32_t>(seed % 3);
    ZoneBatch batch(dim);
    std::vector<Dbm> ref;
    const size_t n = 1 + static_cast<size_t>(rng() % 20);
    for (size_t i = 0; i < n; ++i) {
      ref.push_back(randomZone(rng, dim, 4));  // small box: subsets common
      batch.push(ref.back());
    }
    const Dbm query = randomZone(rng, dim, 4);
    std::vector<Dbm> expect;
    for (const Dbm& z : ref) {
      if (!query.includes(z)) expect.push_back(z);
    }
    const size_t removed = batch.pruneSubsets(query.rawData());
    EXPECT_EQ(removed, ref.size() - expect.size()) << "seed " << seed;
    ASSERT_EQ(batch.size(), expect.size()) << "seed " << seed;
    // Survivors as a multiset — pruning swap-removes, order is free.
    std::vector<Dbm> got;
    for (size_t i = 0; i < batch.size(); ++i) got.push_back(batch.zoneAt(i));
    for (const Dbm& z : expect) {
      const auto it = std::find(got.begin(), got.end(), z);
      ASSERT_NE(it, got.end()) << "seed " << seed << ": survivor lost";
      got.erase(it);
    }
    EXPECT_TRUE(got.empty()) << "seed " << seed;
  }
}

TEST_P(ZoneBatchTest, SwapRemoveKeepsRemainingZones) {
  std::mt19937_64 rng(11);
  const uint32_t dim = 3;
  ZoneBatch batch(dim);
  std::vector<Dbm> ref;
  for (int i = 0; i < 10; ++i) {
    ref.push_back(randomZone(rng, dim, 9));
    batch.push(ref.back());
  }
  while (!ref.empty()) {
    const size_t idx = rng() % ref.size();
    batch.swapRemove(idx);
    std::swap(ref[idx], ref.back());
    ref.pop_back();
    ASSERT_EQ(batch.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(batch.zoneAt(i), ref[i]);
    }
  }
}

TEST_P(ZoneBatchTest, MemoryFollowsLiveLanes) {
  // One zone of the 45-batch plant's width must not pay for a whole
  // 8-lane block (8 x 139^2 x 4 B).
  const uint32_t dim = 139;
  const size_t zoneBytes = size_t{dim} * dim * sizeof(raw_t);
  std::mt19937_64 rng(5);
  ZoneBatch batch(dim);
  std::vector<Dbm> ref{randomZone(rng, dim, 9)};
  batch.push(ref.back());
  EXPECT_LE(batch.memoryBytes(), zoneBytes * 5 / 4);

  // Push / swapRemove / push round-trips through partly allocated
  // blocks still scan like one-zone-at-a-time inclusion.
  for (int round = 0; round < 40; ++round) {
    if (!ref.empty() && rng() % 3 == 0) {
      const size_t idx = rng() % ref.size();
      batch.swapRemove(idx);
      std::swap(ref[idx], ref.back());
      ref.pop_back();
    } else {
      ref.push_back(randomZone(rng, dim, 9));
      batch.push(ref.back());
    }
    ASSERT_EQ(batch.size(), ref.size());
    const Dbm query = (round % 2 == 0 && !ref.empty())
                          ? ref[rng() % ref.size()]
                          : randomZone(rng, dim, 9);
    const bool super = std::any_of(ref.begin(), ref.end(), [&](const Dbm& z) {
      return z.includes(query);
    });
    ASSERT_EQ(batch.anySuperset(query.rawData()), super) << "round " << round;
  }
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(batch.zoneAt(i), ref[i]) << "zone " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Dispatch, ZoneBatchTest,
    ::testing::Values(simd::Level::kScalar, simd::detectedLevel()),
    [](const ::testing::TestParamInfo<simd::Level>& info) {
      return simd::levelName(info.param);
    });

// -- Dbm special members / hash contract --------------------------------

TEST(DbmHash, CopiedZoneMutatedThroughAssignRawDiverges) {
  Dbm a = Dbm::unconstrained(3);
  ASSERT_TRUE(a.constrain(1, 0, boundWeak(5)));
  const size_t ha = a.hash();  // memoize before copying
  Dbm b(a);
  EXPECT_EQ(b.hash(), ha);  // identical content may share the hash

  Dbm other = Dbm::unconstrained(3);
  ASSERT_TRUE(other.constrain(2, 0, boundWeak(1)));
  b.assignRaw(other.rawData());
  EXPECT_EQ(b, other);
  EXPECT_EQ(b.hash(), other.hash()) << "stale memoized hash survived";
  EXPECT_NE(b.hash(), ha);
  EXPECT_EQ(a.hash(), ha) << "source zone must be unaffected";
}

TEST(DbmHash, SelfAssignmentIsANoOp) {
  Dbm a = Dbm::unconstrained(4);
  ASSERT_TRUE(a.constrain(1, 2, boundWeak(3)));
  const Dbm snapshot(a);
  Dbm* alias = &a;  // defeat -Wself-assign
  a = *alias;
  EXPECT_EQ(a, snapshot);
  a = std::move(*alias);
  EXPECT_EQ(a, snapshot);
}

}  // namespace
}  // namespace dbm
