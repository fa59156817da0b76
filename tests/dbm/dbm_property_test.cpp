// Property-based DBM tests: random sequences of zone operations are
// cross-checked against brute-force point sampling over a small grid,
// and inclusion against an exact integer-point oracle.
#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "dbm/dbm.hpp"
#include "dbm/simd.hpp"
#include "dbm/zone_batch.hpp"

namespace dbm {
namespace {

constexpr int64_t kGrid = 8;  // sample clock values 0..kGrid

/// Enumerate all grid points of a dim-3 valuation space.
std::vector<std::vector<int64_t>> gridPoints() {
  std::vector<std::vector<int64_t>> pts;
  for (int64_t a = 0; a <= kGrid; ++a) {
    for (int64_t b = 0; b <= kGrid; ++b) {
      pts.push_back({0, a, b});
    }
  }
  return pts;
}

class RandomZone {
 public:
  explicit RandomZone(uint64_t seed) : rng_(seed) {}

  /// A random non-empty canonical zone of dimension 3 built from a few
  /// random constraints over the unconstrained zone.
  Dbm next() {
    for (;;) {
      Dbm z = Dbm::unconstrained(3);
      std::uniform_int_distribution<int> nCons(0, 4);
      std::uniform_int_distribution<int> clock(0, 2);
      std::uniform_int_distribution<int> val(-kGrid, kGrid);
      std::uniform_int_distribution<int> strict(0, 1);
      const int n = nCons(rng_);
      bool ok = true;
      for (int k = 0; k < n && ok; ++k) {
        const uint32_t i = static_cast<uint32_t>(clock(rng_));
        uint32_t j = static_cast<uint32_t>(clock(rng_));
        if (i == j) j = (j + 1) % 3;
        ok = z.constrain(i, j, bound(val(rng_), strict(rng_) != 0));
      }
      if (ok && !z.isEmpty()) return z;
    }
  }

  std::mt19937_64& rng() { return rng_; }

 private:
  std::mt19937_64 rng_;
};

class DbmProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DbmProperty, InclusionAgreesWithPointwiseContainment) {
  RandomZone gen(GetParam());
  const auto pts = gridPoints();
  for (int iter = 0; iter < 50; ++iter) {
    const Dbm a = gen.next();
    const Dbm b = gen.next();
    if (a.includes(b)) {
      for (const auto& p : pts) {
        if (b.containsPoint(p)) {
          EXPECT_TRUE(a.containsPoint(p))
              << "a claims to include b but misses a point of b";
        }
      }
    } else {
      // Not-included zones need no witness on the integer grid (the
      // separating point may be fractional), so only the positive
      // direction is checked.
    }
  }
}

TEST_P(DbmProperty, IntersectionIsPointwiseAnd) {
  RandomZone gen(GetParam());
  const auto pts = gridPoints();
  for (int iter = 0; iter < 50; ++iter) {
    const Dbm a = gen.next();
    const Dbm b = gen.next();
    Dbm c = a;
    const bool nonEmpty = c.intersect(b);
    for (const auto& p : pts) {
      const bool expect = a.containsPoint(p) && b.containsPoint(p);
      EXPECT_EQ(c.containsPoint(p), expect);
      if (expect) {
        EXPECT_TRUE(nonEmpty);
      }
    }
  }
}

TEST_P(DbmProperty, UpIsPointwiseDelayClosure) {
  RandomZone gen(GetParam());
  const auto pts = gridPoints();
  for (int iter = 0; iter < 30; ++iter) {
    const Dbm a = gen.next();
    Dbm u = a;
    u.up();
    // Every point of a delayed by d stays in up(a).
    for (const auto& p : pts) {
      if (!a.containsPoint(p)) continue;
      for (int64_t d = 0; d <= 3; ++d) {
        const std::vector<int64_t> q{0, p[1] + d, p[2] + d};
        EXPECT_TRUE(u.containsPoint(q));
      }
    }
    // Conversely every grid point of up(a) is some point of a delayed.
    for (const auto& p : pts) {
      if (!u.containsPoint(p)) continue;
      bool witness = false;
      const int64_t dmax = std::min(p[1], p[2]);
      for (int64_t d = 0; d <= dmax && !witness; ++d) {
        witness = a.containsPoint(std::vector<int64_t>{0, p[1] - d, p[2] - d});
      }
      // The witness may be fractional; only insist when a is "integral
      // enough": all its bounds weak.
      bool allWeak = true;
      for (uint32_t i = 0; i < 3; ++i) {
        for (uint32_t j = 0; j < 3; ++j) {
          if (a.at(i, j) != kInfinity && isStrict(a.at(i, j)) && i != j) {
            allWeak = false;
          }
        }
      }
      if (allWeak) {
        EXPECT_TRUE(witness) << "grid point in up(a) with no delay witness";
      }
    }
  }
}

TEST_P(DbmProperty, ResetIsPointwiseProjection) {
  RandomZone gen(GetParam());
  const auto pts = gridPoints();
  std::uniform_int_distribution<int> vdist(0, 3);
  for (int iter = 0; iter < 30; ++iter) {
    const Dbm a = gen.next();
    const int64_t v = vdist(gen.rng());
    Dbm r = a;
    r.reset(1, static_cast<value_t>(v));
    for (const auto& p : pts) {
      // Point is in reset(a) iff p[1] == v and some x1 value completes
      // it into a point of a.
      bool expect = false;
      if (p[1] == v) {
        for (int64_t x = 0; x <= kGrid * 2 && !expect; ++x) {
          expect = a.containsPoint(std::vector<int64_t>{0, x, p[2]});
        }
      }
      // Same fractional-witness caveat as above.
      if (expect) {
        EXPECT_TRUE(r.containsPoint(p));
      }
      if (p[1] != v) {
        EXPECT_FALSE(r.containsPoint(p));
      }
    }
  }
}

TEST_P(DbmProperty, CloseIsIdempotentAndPreservesPoints) {
  RandomZone gen(GetParam());
  const auto pts = gridPoints();
  for (int iter = 0; iter < 30; ++iter) {
    Dbm a = gen.next();
    Dbm closed = a;
    ASSERT_TRUE(closed.close());
    EXPECT_EQ(closed.relation(a), Relation::kEqual)
        << "zones from constrain() should already be canonical";
    for (const auto& p : pts) {
      EXPECT_EQ(a.containsPoint(p), closed.containsPoint(p));
    }
  }
}

TEST_P(DbmProperty, ExtrapolationOnlyGrowsZone) {
  RandomZone gen(GetParam());
  const std::vector<value_t> max{0, 3, 3};
  const auto pts = gridPoints();
  for (int iter = 0; iter < 50; ++iter) {
    const Dbm a = gen.next();
    Dbm e = a;
    e.extrapolateMaxBounds(max);
    EXPECT_TRUE(e.includes(a));
    // Below the max bounds the zone is unchanged.
    for (const auto& p : pts) {
      if (p[1] <= 3 && p[2] <= 3 && a.containsPoint(p)) {
        EXPECT_TRUE(e.containsPoint(p));
      }
    }
  }
}

TEST_P(DbmProperty, LUExtrapolationIsCoarserThanMaxBounds) {
  RandomZone gen(GetParam());
  const std::vector<value_t> max{0, 3, 3};
  // Pointwise-smaller LU bounds; -1 marks a clock never compared on
  // that side (treated as 0 by the operator).
  const std::vector<value_t> lower{0, 1, -1};
  const std::vector<value_t> upper{0, 3, 1};
  const auto pts = gridPoints();
  for (int iter = 0; iter < 50; ++iter) {
    const Dbm a = gen.next();
    Dbm m = a;
    m.extrapolateMaxBounds(max);
    Dbm lu = a;
    lu.extrapolateLUBounds(max, max);
    // Abstraction lattice: with L = U = M, Extra+_LU still applies the
    // additional diagonal/lower-facet rules, so it abstracts at least
    // as much as Extra_M...
    EXPECT_TRUE(lu.includes(a));
    EXPECT_TRUE(lu.includes(m));
    // ...and shrinking the bound vectors only coarsens further.
    Dbm luSmall = a;
    luSmall.extrapolateLUBounds(lower, upper);
    EXPECT_TRUE(luSmall.includes(lu));
    // Idempotence: a second application is a no-op.
    Dbm again = lu;
    again.extrapolateLUBounds(max, max);
    EXPECT_EQ(again.relation(lu), Relation::kEqual);
    // Soundness floor: points below every bound are never lost.
    for (const auto& p : pts) {
      if (p[1] <= 1 && p[2] <= 1 && a.containsPoint(p)) {
        EXPECT_TRUE(luSmall.containsPoint(p));
      }
    }
  }
}

// -- Zones over live clocks -----------------------------------------------
// The engine keeps each zone over its state's live clocks (Dbm::remap).
// The oracle is what it used to do instead: free every dead clock
// inside the full-width zone with the per-clock rule below.

/// The per-clock rule: free x_i alone (keep only x_i >= 0; x_j - x_i
/// is then bounded by x_j's upper bound).
void freeOneClock(Dbm& z, uint32_t i) {
  for (uint32_t j = 0; j < z.dimension(); ++j) {
    if (j == i) continue;
    z.setRaw(i, j, kInfinity);
    z.setRaw(j, i, z.at(j, 0));
  }
  z.setRaw(0, i, kZeroBound);
}

/// A random non-empty canonical zone of dimension `dim`, diagonal
/// constraints included; half of them start from the delayed origin,
/// so clocks are often equal, as after a common reset.
Dbm randomCanonical(uint32_t dim, std::mt19937_64& rng) {
  std::uniform_int_distribution<int> val(-kGrid, kGrid);
  Dbm z = Dbm::unconstrained(dim);
  if (rng() % 2 == 0) {
    z = Dbm::zero(dim);
    z.up();
  }
  for (int k = 0, n = static_cast<int>(rng() % 8); k < n; ++k) {
    const auto i = static_cast<uint32_t>(rng() % dim);
    const auto j = static_cast<uint32_t>((i + 1 + rng() % (dim - 1)) % dim);
    Dbm t = z;
    if (t.constrain(i, j, bound(val(rng), rng() % 2 != 0))) z = t;
  }
  return z;
}

/// The reference clock, then each other clock with probability 1/2, in
/// clock order.
std::vector<int32_t> randomLive(uint32_t dim, std::mt19937_64& rng) {
  std::vector<int32_t> live{0};
  for (uint32_t c = 1; c < dim; ++c) {
    if (rng() % 2 == 0) live.push_back(static_cast<int32_t>(c));
  }
  return live;
}

/// Every clock outside `live` freed with the per-clock rule.
Dbm freedOutside(const Dbm& z, const std::vector<int32_t>& live) {
  Dbm f = z;
  for (uint32_t c = 1; c < z.dimension(); ++c) {
    if (std::find(live.begin(), live.end(), static_cast<int32_t>(c)) ==
        live.end()) {
      freeOneClock(f, c);
    }
  }
  return f;
}

/// The entries of `full` among the clocks of `live`, copied by hand.
Dbm restrictedTo(const Dbm& full, const std::vector<int32_t>& live) {
  const auto m = static_cast<uint32_t>(live.size());
  Dbm r(m);
  for (uint32_t k = 0; k < m; ++k) {
    for (uint32_t l = 0; l < m; ++l) {
      r.setRaw(k, l,
               full.at(static_cast<uint32_t>(live[k]),
                       static_cast<uint32_t>(live[l])));
    }
  }
  return r;
}

Dbm projected(const Dbm& z, const std::vector<int32_t>& live) {
  Dbm p = z;
  p.remap(live);
  return p;
}

/// Dropping clocks and bringing them back fresh is freeing them: the
/// round trip through remap matches the per-clock rule, applied in
/// order or shuffled, and leaves a canonical zone.
TEST_P(DbmProperty, FreeClocksMatchesPerClockRule) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int> coin(0, 1);
  for (int iter = 0; iter < 60; ++iter) {
    const uint32_t dim = 2 + static_cast<uint32_t>(rng() % 9);
    const Dbm z = randomCanonical(dim, rng);
    ASSERT_FALSE(z.isEmpty());
    // Empty mask, every clock, then a random subset.
    std::vector<char> mask(dim, 0);
    if (iter % 3 == 1) std::fill(mask.begin() + 1, mask.end(), 1);
    if (iter % 3 == 2) {
      for (uint32_t i = 1; i < dim; ++i) mask[i] = static_cast<char>(coin(rng));
    }
    std::vector<uint32_t> order;
    std::vector<int32_t> live{0};
    std::vector<int32_t> back(dim, -1);
    back[0] = 0;
    for (uint32_t i = 1; i < dim; ++i) {
      if (mask[i] != 0) {
        order.push_back(i);
      } else {
        back[i] = static_cast<int32_t>(live.size());
        live.push_back(static_cast<int32_t>(i));
      }
    }
    Dbm inOrder = z;
    for (const uint32_t i : order) freeOneClock(inOrder, i);
    std::shuffle(order.begin(), order.end(), rng);
    Dbm shuffled = z;
    for (const uint32_t i : order) freeOneClock(shuffled, i);

    Dbm got = projected(z, live);
    got.remap(back);
    ASSERT_EQ(got, inOrder) << "iter " << iter << "\n" << z.toString();
    ASSERT_EQ(got, shuffled) << "iter " << iter;
    Dbm closed = got;
    ASSERT_TRUE(closed.close());
    EXPECT_EQ(closed, got) << "remap left a non-canonical zone";
  }
}

/// The projection onto the live clocks is the live sub-matrix of the
/// full zone with the dead clocks freed, and it is canonical.
TEST_P(DbmProperty, LiveSubMatrixIsFreedZoneRestricted) {
  std::mt19937_64 rng(GetParam() * 7919);
  for (int iter = 0; iter < 80; ++iter) {
    const uint32_t dim = 3 + static_cast<uint32_t>(rng() % 6);
    const Dbm z = randomCanonical(dim, rng);
    const std::vector<int32_t> live = randomLive(dim, rng);
    const Dbm p = projected(z, live);
    ASSERT_EQ(p, restrictedTo(freedOutside(z, live), live))
        << "iter " << iter << "\n" << z.toString();
    Dbm closed = p;
    ASSERT_TRUE(closed.close());
    EXPECT_EQ(closed, p) << "iter " << iter;
  }
}

/// Bit-state hashing hashes a zone as the full-width zone it is the
/// projection of: hashExpanded over the slot map equals the hash of the
/// full zone with the dead clocks freed, whatever slots the live clocks
/// take.
TEST_P(DbmProperty, ExpandedHashIsFreedZoneHash) {
  std::mt19937_64 rng(GetParam() * 65537);
  for (int iter = 0; iter < 80; ++iter) {
    const uint32_t dim = 2 + static_cast<uint32_t>(rng() % 8);
    const Dbm z = randomCanonical(dim, rng);
    std::vector<int32_t> live = randomLive(dim, rng);
    if (iter % 4 == 1) live.assign(1, 0);
    if (iter % 4 == 2) {
      live.assign(dim, 0);
      std::iota(live.begin(), live.end(), 0);
    }
    const size_t want = freedOutside(z, live).hash();
    for (int order = 0; order < 3; ++order) {
      if (order > 0) std::shuffle(live.begin() + 1, live.end(), rng);
      std::vector<int32_t> slotOf(dim, -1);
      for (size_t k = 0; k < live.size(); ++k) {
        slotOf[static_cast<size_t>(live[k])] = static_cast<int32_t>(k);
      }
      EXPECT_EQ(projected(z, live).hashExpanded(slotOf), want)
          << "iter " << iter << " order " << order << "\n"
          << z.toString();
    }
  }
}

/// Inclusion, delay, closure after a tightening and Extra+_LU answer
/// on the projection exactly as on the freed full zone, restricted to
/// the live clocks.
TEST_P(DbmProperty, ProjectionCommutesWithZoneOperations) {
  std::mt19937_64 rng(GetParam() * 104729);
  std::uniform_int_distribution<int> val(-kGrid, kGrid);
  std::uniform_int_distribution<int> luVal(-1, kGrid);
  for (int iter = 0; iter < 80; ++iter) {
    const uint32_t dim = 3 + static_cast<uint32_t>(rng() % 6);
    const std::vector<int32_t> live = randomLive(dim, rng);
    const auto m = static_cast<uint32_t>(live.size());
    const Dbm fa = freedOutside(randomCanonical(dim, rng), live);
    // b is sometimes a tightening of a, so inclusion also holds.
    Dbm b = rng() % 2 == 0 ? fa : randomCanonical(dim, rng);
    {
      const auto i = static_cast<uint32_t>(rng() % dim);
      const auto j = static_cast<uint32_t>((i + 1 + rng() % (dim - 1)) % dim);
      Dbm t = b;
      if (t.constrain(i, j, bound(val(rng), rng() % 2 != 0))) b = t;
    }
    const Dbm fb = freedOutside(b, live);
    const Dbm pa = projected(fa, live);
    const Dbm pb = projected(fb, live);
    EXPECT_EQ(fa.includes(fb), pa.includes(pb)) << "iter " << iter;
    EXPECT_EQ(fb.includes(fa), pb.includes(pa)) << "iter " << iter;

    Dbm upF = fa;
    upF.up();
    Dbm upP = pa;
    upP.up();
    EXPECT_EQ(restrictedTo(upF, live), upP) << "iter " << iter;

    if (m >= 2) {
      // Tighten one live entry by hand and re-close.
      const auto k = static_cast<uint32_t>(rng() % m);
      const auto l = static_cast<uint32_t>((k + 1 + rng() % (m - 1)) % m);
      const raw_t tight = bound(val(rng), rng() % 2 != 0);
      const auto gk = static_cast<uint32_t>(live[k]);
      const auto gl = static_cast<uint32_t>(live[l]);
      Dbm cF = fa;
      cF.setRaw(gk, gl, std::min(cF.at(gk, gl), tight));
      Dbm cP = pa;
      cP.setRaw(k, l, std::min(cP.at(k, l), tight));
      const bool okF = cF.close();
      ASSERT_EQ(okF, cP.close()) << "iter " << iter;
      if (okF) {
        EXPECT_EQ(restrictedTo(cF, live), cP) << "iter " << iter;
      }
    }

    std::vector<value_t> lower(dim), upper(dim);
    for (uint32_t c = 1; c < dim; ++c) {
      lower[c] = luVal(rng);
      upper[c] = luVal(rng);
    }
    std::vector<value_t> lowerP(m), upperP(m);
    for (uint32_t k = 0; k < m; ++k) {
      lowerP[k] = lower[static_cast<size_t>(live[k])];
      upperP[k] = upper[static_cast<size_t>(live[k])];
    }
    Dbm luF = fa;
    Dbm luP = pa;
    EXPECT_EQ(luF.extrapolateLUBounds(lower, upper),
              luP.extrapolateLUBounds(lowerP, upperP))
        << "iter " << iter;
    EXPECT_EQ(restrictedTo(luF, live), luP) << "iter " << iter;
  }
}

/// A clock that becomes live on a transition enters fresh and is reset
/// there; that equals resetting it in the full zone, then projecting.
TEST_P(DbmProperty, FreshClockResetMatchesFullReset) {
  std::mt19937_64 rng(GetParam() * 15485863);
  std::uniform_int_distribution<int> resetVal(0, kGrid);
  for (int iter = 0; iter < 80; ++iter) {
    const uint32_t dim = 3 + static_cast<uint32_t>(rng() % 6);
    const Dbm z = randomCanonical(dim, rng);
    const std::vector<int32_t> src = randomLive(dim, rng);
    // The target keeps part of the source's clocks plus one clock the
    // source dropped, which the transition resets.
    std::vector<int32_t> dead;
    for (uint32_t c = 1; c < dim; ++c) {
      if (std::find(src.begin(), src.end(), static_cast<int32_t>(c)) ==
          src.end()) {
        dead.push_back(static_cast<int32_t>(c));
      }
    }
    if (dead.empty()) continue;
    const int32_t fresh = dead[rng() % dead.size()];
    std::vector<int32_t> dst{0};
    for (size_t k = 1; k < src.size(); ++k) {
      if (rng() % 4 != 0) dst.push_back(src[k]);
    }
    dst.push_back(fresh);
    std::sort(dst.begin() + 1, dst.end());
    const auto v = static_cast<value_t>(resetVal(rng));

    Dbm full = z;
    full.reset(static_cast<uint32_t>(fresh), v);
    const Dbm want = projected(full, dst);

    std::vector<int32_t> from(dst.size(), -1);
    uint32_t freshSlot = 0;
    for (size_t k = 0; k < dst.size(); ++k) {
      const auto it = std::find(src.begin(), src.end(), dst[k]);
      if (it != src.end()) from[k] = static_cast<int32_t>(it - src.begin());
      if (dst[k] == fresh) freshSlot = static_cast<uint32_t>(k);
    }
    Dbm got = projected(z, src);
    got.remap(from);
    got.reset(freshSlot, v);
    EXPECT_EQ(got, want) << "iter " << iter << "\n" << z.toString();
  }
}

/// Closure is the same under every dispatch level at every width,
/// including rows shorter than one AVX2 vector and rows with a partial
/// last vector (zones over live clocks are mostly narrower than 8).
TEST_P(DbmProperty, CloseMatchesAcrossDispatchLevels) {
  std::mt19937_64 rng(GetParam() * 31337);
  std::uniform_int_distribution<int> val(-kGrid, 4 * kGrid);
  for (int iter = 0; iter < 120; ++iter) {
    const uint32_t dim = 1 + static_cast<uint32_t>(rng() % 18);
    // A random, usually non-canonical matrix: infinite and finite,
    // strict and weak entries, some of which make the zone empty.
    Dbm raw = Dbm::unconstrained(dim);
    for (uint32_t i = 0; i < dim; ++i) {
      for (uint32_t j = 0; j < dim; ++j) {
        if (i == j || rng() % 3 == 0) continue;
        raw.setRaw(i, j, bound(val(rng), rng() % 2 != 0));
      }
    }
    Dbm scalar = raw;
    simd::forceLevel(simd::Level::kScalar);
    const bool okScalar = scalar.close();
    simd::forceLevel(simd::detectedLevel());
    Dbm vector = raw;
    const bool okVector = vector.close();
    ASSERT_EQ(okScalar, okVector) << "dim " << dim << "\n" << raw.toString();
    if (okScalar) {
      EXPECT_EQ(scalar, vector) << "dim " << dim << "\n" << raw.toString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DbmProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// -- Exact oracles over bounded zones ------------------------------------
// Random bounded canonical DBMs with small constants, strict and
// diagonal bounds included, are checked against Dbm::includes, against
// brute-force enumeration of every integer clock valuation, and through
// the ZoneBatch layout the passed store keeps its zones in:
//
//  * a ZoneBatch must hand every pushed zone back raw-for-raw;
//  * its anySuperset scan must answer inclusion exactly as
//    Dbm::includes does, on both dispatch levels;
//  * for weak-bound zones both answers are cross-checked against the
//    integer-point oracle: bounded DBMs are integral polytopes
//    (difference constraints are totally unimodular), so "every integer
//    point of b lies in a" is equivalent to real inclusion b ⊆ a. That
//    checks includes() for completeness as well as soundness.
//
// The suite keeps the name it had when these properties checked the
// reduced ("minimal form") store layout, so its test ids stay stable.

constexpr value_t kMaxConst = 4;  // clock values range over 0..kMaxConst

/// All integer valuations of `dim` clocks (reference clock pinned to 0,
/// the others ranging over 0..kMaxConst).
std::vector<std::vector<int64_t>> boundedGridPoints(uint32_t dim) {
  std::vector<std::vector<int64_t>> pts{{std::vector<int64_t>(dim, 0)}};
  for (uint32_t c = 1; c < dim; ++c) {
    std::vector<std::vector<int64_t>> next;
    for (const auto& p : pts) {
      for (int64_t v = 0; v <= kMaxConst; ++v) {
        auto q = p;
        q[c] = v;
        next.push_back(std::move(q));
      }
    }
    pts = std::move(next);
  }
  return pts;
}

/// A random non-empty canonical zone, bounded so that every point lies
/// on the enumeration grid: each clock is capped at kMaxConst and the
/// extra random constraints use constants in [-kMaxConst, kMaxConst].
Dbm randomBoundedZone(std::mt19937_64& rng, uint32_t dim, bool weakOnly) {
  std::uniform_int_distribution<int> nCons(0, 5);
  std::uniform_int_distribution<uint32_t> clock(0, dim - 1);
  std::uniform_int_distribution<int> val(-kMaxConst, kMaxConst);
  std::uniform_int_distribution<int> strict(0, 1);
  for (;;) {
    Dbm z = Dbm::unconstrained(dim);
    bool ok = true;
    for (uint32_t c = 1; c < dim && ok; ++c) {
      ok = z.constrainUpper(c, kMaxConst, false);
    }
    const int n = nCons(rng);
    for (int k = 0; k < n && ok; ++k) {
      const uint32_t i = clock(rng);
      uint32_t j = clock(rng);
      if (i == j) j = (j + 1) % dim;
      const bool s = !weakOnly && strict(rng) != 0;
      ok = z.constrain(i, j, bound(val(rng), s));
    }
    if (ok && !z.isEmpty()) return z;
  }
}

/// Does a batch holding only `a` cover `b`, under dispatch level `l`?
bool batchCovers(const Dbm& a, const Dbm& b, simd::Level l) {
  simd::forceLevel(l);
  ZoneBatch batch(a.dimension());
  batch.push(a);
  const bool covers = batch.anySuperset(b.rawData());
  simd::forceLevel(simd::detectedLevel());
  return covers;
}

class MinimalOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MinimalOracle, ReconstructRoundTripsExactly) {
  std::mt19937_64 rng(GetParam());
  for (const uint32_t dim : {3u, 4u}) {
    // 40 zones fill five blocks, so every lane position is read back.
    ZoneBatch batch(dim);
    std::vector<Dbm> ref;
    for (int iter = 0; iter < 40; ++iter) {
      ref.push_back(randomBoundedZone(rng, dim, /*weakOnly=*/false));
      batch.push(ref.back());
    }
    ASSERT_EQ(batch.size(), ref.size());
    for (size_t k = 0; k < ref.size(); ++k) {
      const Dbm back = batch.zoneAt(k);
      ASSERT_EQ(back.dimension(), dim);
      for (uint32_t i = 0; i < dim; ++i) {
        for (uint32_t j = 0; j < dim; ++j) {
          EXPECT_EQ(back.at(i, j), ref[k].at(i, j))
              << "dim " << dim << " zone " << k << " entry (" << i << ","
              << j << ")";
        }
      }
    }
  }
}

TEST_P(MinimalOracle, InclusionMatchesFullDbm) {
  std::mt19937_64 rng(GetParam());
  for (const uint32_t dim : {3u, 4u}) {
    for (int iter = 0; iter < 60; ++iter) {
      const Dbm a = randomBoundedZone(rng, dim, /*weakOnly=*/false);
      const Dbm b = randomBoundedZone(rng, dim, /*weakOnly=*/false);
      for (const simd::Level l :
           {simd::Level::kScalar, simd::detectedLevel()}) {
        EXPECT_EQ(batchCovers(a, b, l), a.includes(b))
            << simd::levelName(l) << " dim " << dim << " iter " << iter;
        // A zone always covers itself, batched or not.
        EXPECT_TRUE(batchCovers(a, a, l)) << simd::levelName(l);
      }
    }
  }
}

TEST_P(MinimalOracle, WeakInclusionAgreesWithIntegerPointOracle) {
  std::mt19937_64 rng(GetParam());
  for (const uint32_t dim : {3u, 4u}) {
    const auto pts = boundedGridPoints(dim);
    for (int iter = 0; iter < 25; ++iter) {
      const Dbm a = randomBoundedZone(rng, dim, /*weakOnly=*/true);
      const Dbm b = randomBoundedZone(rng, dim, /*weakOnly=*/true);
      bool allPointsIncluded = true;
      for (const auto& p : pts) {
        if (b.containsPoint(p) && !a.containsPoint(p)) {
          allPointsIncluded = false;
          break;
        }
      }
      EXPECT_EQ(batchCovers(a, b, simd::detectedLevel()), allPointsIncluded)
          << "dim " << dim << " iter " << iter;
      EXPECT_EQ(a.includes(b), allPointsIncluded)
          << "dim " << dim << " iter " << iter;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimalOracle,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace dbm
