// The two-bit bit-state scheme stores each state at two hashed bit
// positions; a state is only "seen" when both bits are set. That
// suppresses omissions exactly when the two positions collide
// independently — these tests pin the independence of the second hash
// and the basic test-and-set contract.
#include <random>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "engine/passed_store.hpp"
#include "engine/state.hpp"

namespace engine {
namespace {

/// A random normalized-looking symbolic state: small location/variable
/// vectors and a canonical zone with random bounds.
SymbolicState randomState(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> loc(0, 5);
  std::uniform_int_distribution<int> var(0, 9);
  std::uniform_int_distribution<int> up(1, 30);

  SymbolicState s{DiscreteState{}, dbm::Dbm::unconstrained(4)};
  for (int i = 0; i < 3; ++i) s.d.locs.push_back(loc(rng));
  for (int i = 0; i < 2; ++i) s.d.vars.push_back(var(rng));
  for (uint32_t c = 1; c < 4; ++c) {
    const int hi = up(rng);
    EXPECT_TRUE(s.zone.constrainUpper(c, hi, false));
    EXPECT_TRUE(s.zone.constrainLower(c, hi / 2, false));
  }
  return s;
}

TEST(BitstateHash, SecondHashIsIndependentOfFirst) {
  // Bucket many states by their masked first hash; among pairs that
  // collide on h1, only an ~1/2^bits fraction may also collide on h2.
  // (The old scheme derived h2 by permuting fullHash(), so the two
  // probes were correlated through the one value they both came from.)
  std::mt19937_64 rng(42);
  constexpr size_t kStates = 4000;
  constexpr size_t kBits = 12;
  constexpr size_t kMask = (size_t{1} << kBits) - 1;

  std::unordered_map<size_t, std::vector<size_t>> byH1;  // h1 -> h2 list
  for (size_t i = 0; i < kStates; ++i) {
    const SymbolicState s = randomState(rng);
    const size_t z = s.zone.hash();
    byH1[s.fullHash(z) & kMask].push_back(s.fullHash2(z) & kMask);
  }

  size_t h1CollidingPairs = 0;
  size_t bothCollidingPairs = 0;
  for (const auto& [h1, h2s] : byH1) {
    for (size_t a = 0; a < h2s.size(); ++a) {
      for (size_t b = a + 1; b < h2s.size(); ++b) {
        ++h1CollidingPairs;
        if (h2s[a] == h2s[b]) ++bothCollidingPairs;
      }
    }
  }
  // ~4000^2/2 / 4096 ≈ 1950 expected h1 collisions; the test is
  // meaningless without a decent sample of them.
  ASSERT_GT(h1CollidingPairs, 200u);
  // Independent probes: P(h2 also collides) ≈ 1/4096. Even 5% would
  // mean the probes are correlated.
  EXPECT_LT(static_cast<double>(bothCollidingPairs),
            0.05 * static_cast<double>(h1CollidingPairs))
      << bothCollidingPairs << " of " << h1CollidingPairs
      << " h1-colliding pairs also collide on h2";
}

TEST(BitstateHash, FullHashesDifferOnTypicalStates) {
  std::mt19937_64 rng(7);
  size_t equal = 0;
  for (int i = 0; i < 200; ++i) {
    const SymbolicState s = randomState(rng);
    const size_t z = s.zone.hash();
    if (s.fullHash(z) == s.fullHash2(z)) ++equal;
  }
  EXPECT_EQ(equal, 0u);
}

TEST(BitstateHash, TestAndSetContract) {
  std::mt19937_64 rng(3);
  BitTable bt(16);
  const SymbolicState a = randomState(rng);
  const size_t z = a.zone.hash();
  EXPECT_FALSE(bt.testAndSet(a, z));  // first visit: unseen, now marked
  EXPECT_TRUE(bt.testAndSet(a, z));   // second visit: seen
}

TEST(BitstateHash, FalsePositiveRateIsSmall) {
  // Insert distinct states into a table with ~16x headroom and count
  // how many are wrongly reported as already seen.
  std::mt19937_64 rng(11);
  BitTable bt(16);  // 65536 bits
  constexpr int kInserts = 2000;
  int falsePositives = 0;
  for (int i = 0; i < kInserts; ++i) {
    SymbolicState s = randomState(rng);
    s.d.vars.push_back(i);  // force distinctness
    if (bt.testAndSet(s, s.zone.hash())) ++falsePositives;
  }
  // Two independent probes at ~6% fill: expected rate well under 1%.
  EXPECT_LT(falsePositives, kInserts / 50);
}

}  // namespace
}  // namespace engine
