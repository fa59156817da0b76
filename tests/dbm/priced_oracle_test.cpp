// Priced-zone cost semantics against a brute-force integer-point
// oracle (the recipe of dbm_property_test's MinimalOracle): enumerate
// every integer valuation of a bounding box, keep the ones inside the
// zone, and take the cheapest. Zones built from weak integer
// constraints are integral polyhedra, so the symbolic minima
// (AffineCost::minOver / minOverInt, PricedDbm::minCost) must agree
// exactly with the enumerated minimum; the strict-bound integer
// adjustment is pinned by deterministic cases.
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "dbm/priced.hpp"

namespace dbm {
namespace {

Dbm randomZone(std::mt19937_64& rng, uint32_t dim, int box) {
  std::uniform_int_distribution<int> c(0, box);
  std::uniform_int_distribution<uint32_t> clk(1, dim - 1);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> nCons(1, 5);
  for (;;) {
    Dbm z = Dbm::unconstrained(dim);
    bool ok = true;
    const int n = nCons(rng);
    for (int k = 0; k < n && ok; ++k) {
      const uint32_t i = clk(rng);
      switch (coin(rng) * 2 + coin(rng)) {
        case 0:
          ok = z.constrain(i, 0, boundWeak(c(rng)));
          break;
        case 1:
          ok = z.constrain(0, i, boundWeak(-c(rng)));
          break;
        default: {
          uint32_t j = clk(rng);
          if (j == i) j = (j % (dim - 1)) + 1;
          if (j == i) break;
          ok = z.constrain(i, j, boundWeak(c(rng)));
          break;
        }
      }
    }
    if (ok && !z.isEmpty()) return z;
  }
}

/// Cheapest integer point of `z` inside [0, box]^(dim-1) under `cost`,
/// or nullopt when the box holds no point of the zone.
std::optional<int64_t> bruteMin(const Dbm& z, const AffineCost& cost,
                                int box) {
  const uint32_t dim = z.dimension();
  std::vector<int64_t> val(dim, 0);
  std::optional<int64_t> best;
  size_t total = 1;
  for (uint32_t k = 1; k < dim; ++k) total *= static_cast<size_t>(box) + 1;
  for (size_t it = 0; it < total; ++it) {
    size_t rest = it;
    for (uint32_t k = 1; k < dim; ++k) {
      val[k] = static_cast<int64_t>(rest % (static_cast<size_t>(box) + 1));
      rest /= static_cast<size_t>(box) + 1;
    }
    if (!z.containsPoint(val)) continue;
    const int64_t c = cost.at(val);
    if (!best || c < *best) best = c;
  }
  return best;
}

TEST(PricedOracle, AffineMinimaMatchIntegerEnumeration) {
  // Weak integer zones: the affine minimum sits on an integer vertex,
  // so minOver, minOverInt and the enumeration all coincide.
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    std::mt19937_64 rng(seed);
    const uint32_t dim = 2 + static_cast<uint32_t>(seed % 2);
    const int box = 4;
    const Dbm z = randomZone(rng, dim, box);
    AffineCost cost;
    cost.constant = static_cast<int64_t>(rng() % 5);
    cost.coeff.assign(dim, 0);
    for (uint32_t i = 1; i < dim; ++i) {
      cost.coeff[i] = static_cast<int64_t>(rng() % 4);
    }
    const auto oracle = bruteMin(z, cost, box + 2);
    ASSERT_TRUE(oracle.has_value())
        << "seed " << seed << ": weak zone lost its integer points";
    EXPECT_EQ(cost.minOver(z), *oracle) << "seed " << seed;
    EXPECT_EQ(cost.minOverInt(z), *oracle) << "seed " << seed;
  }
}

TEST(PricedOracle, MinCostMatchesCostClockEnumeration) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    std::mt19937_64 rng(seed);
    const uint32_t dim = 3;
    const int box = 4;
    const Dbm z = randomZone(rng, dim, box);
    const uint32_t costClock = 1 + static_cast<uint32_t>(rng() % (dim - 1));
    const int64_t offset = static_cast<int64_t>(rng() % 7);
    const PricedDbm pz(z, costClock, offset);

    AffineCost clockOnly;
    clockOnly.coeff.assign(dim, 0);
    clockOnly.coeff[costClock] = 1;
    const auto oracle = bruteMin(z, clockOnly, box + 2);
    ASSERT_TRUE(oracle.has_value()) << "seed " << seed;
    EXPECT_EQ(pz.minCost(), *oracle + offset) << "seed " << seed;
  }
}

TEST(PricedOracle, ConstrainCostIsTightAroundMinCost) {
  // The binary-search agreement property: `zone ∩ {cost <= B}` is
  // non-empty exactly for B >= minCost.
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    std::mt19937_64 rng(seed);
    const Dbm z = randomZone(rng, 3, 5);
    const uint32_t costClock = 1 + static_cast<uint32_t>(rng() % 2);
    const int64_t offset = static_cast<int64_t>(rng() % 5);
    const PricedDbm pz(z, costClock, offset);
    const int64_t m = pz.minCost();

    PricedDbm below(z, costClock, offset);
    EXPECT_FALSE(below.constrainCost(m - 1) && !below.empty())
        << "seed " << seed << ": budget below the minimum satisfied";
    PricedDbm at(z, costClock, offset);
    EXPECT_TRUE(at.constrainCost(m) && !at.empty())
        << "seed " << seed << ": minimum cost not achievable";
    EXPECT_EQ(at.minCost(), m) << "seed " << seed;
  }
}

TEST(PricedOracle, StrictLowerBoundRoundsUpToNextInteger) {
  Dbm z = Dbm::unconstrained(2);
  ASSERT_TRUE(z.constrain(0, 1, boundStrict(-3)));  // x > 3
  EXPECT_EQ(PricedDbm(z, 1).minCost(), 4);
  Dbm w = Dbm::unconstrained(2);
  ASSERT_TRUE(w.constrain(0, 1, boundWeak(-3)));  // x >= 3
  EXPECT_EQ(PricedDbm(w, 1).minCost(), 3);
  // Unconstrained cost clock: infimum 0 (clocks are nonnegative).
  EXPECT_EQ(PricedDbm(Dbm::unconstrained(2), 1).minCost(), 0);
}

TEST(PricedOracle, DominationImpliesPointwiseCheaperCoverage) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    std::mt19937_64 rng(seed);
    const Dbm a = randomZone(rng, 3, 4);
    const Dbm b = randomZone(rng, 3, 4);
    const int64_t offA = static_cast<int64_t>(rng() % 4);
    const int64_t offB = static_cast<int64_t>(rng() % 4);
    const PricedDbm pa(a, 1, offA);
    const PricedDbm pb(b, 1, offB);
    if (!pa.dominates(pb)) continue;
    // Every integer point of b lies in a, and a prices it no higher.
    std::vector<int64_t> val(3, 0);
    for (int64_t x = 0; x <= 6; ++x) {
      for (int64_t y = 0; y <= 6; ++y) {
        val[1] = x;
        val[2] = y;
        if (!b.containsPoint(val)) continue;
        ASSERT_TRUE(a.containsPoint(val)) << "seed " << seed;
        ASSERT_LE(val[1] + offA, val[1] + offB) << "seed " << seed;
      }
    }
  }
}

TEST(PricedOracle, BudgetBelowOffsetEmptiesTheZone) {
  PricedDbm pz(Dbm::unconstrained(2), 1, /*offset=*/10);
  EXPECT_FALSE(pz.constrainCost(9));
  EXPECT_TRUE(pz.empty());
}

}  // namespace
}  // namespace dbm
