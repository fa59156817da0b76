#include "dbm/dbm.hpp"

#include <gtest/gtest.h>

namespace dbm {
namespace {

TEST(Dbm, ZeroZoneContainsOnlyOrigin) {
  const Dbm z = Dbm::zero(3);
  EXPECT_FALSE(z.isEmpty());
  EXPECT_TRUE(z.containsPoint(std::vector<int64_t>{0, 0, 0}));
  EXPECT_FALSE(z.containsPoint(std::vector<int64_t>{0, 1, 0}));
  EXPECT_FALSE(z.containsPoint(std::vector<int64_t>{0, 0, 2}));
}

TEST(Dbm, UnconstrainedContainsEverythingNonNegative) {
  const Dbm z = Dbm::unconstrained(3);
  EXPECT_TRUE(z.containsPoint(std::vector<int64_t>{0, 0, 0}));
  EXPECT_TRUE(z.containsPoint(std::vector<int64_t>{0, 100, 3}));
  EXPECT_FALSE(z.containsPoint(std::vector<int64_t>{0, -1, 3}));
}

TEST(Dbm, UpAllowsUniformDelay) {
  Dbm z = Dbm::zero(3);
  z.up();
  EXPECT_TRUE(z.containsPoint(std::vector<int64_t>{0, 5, 5}));
  // Delay is uniform: clocks drift together from (0, 0).
  EXPECT_FALSE(z.containsPoint(std::vector<int64_t>{0, 5, 4}));
}

TEST(Dbm, ConstrainUpperAndLower) {
  Dbm z = Dbm::zero(3);
  z.up();
  ASSERT_TRUE(z.constrainUpper(1, 10, /*strict=*/false));  // x1 <= 10
  ASSERT_TRUE(z.constrainLower(1, 4, /*strict=*/false));   // x1 >= 4
  EXPECT_TRUE(z.containsPoint(std::vector<int64_t>{0, 4, 4}));
  EXPECT_TRUE(z.containsPoint(std::vector<int64_t>{0, 10, 10}));
  EXPECT_FALSE(z.containsPoint(std::vector<int64_t>{0, 3, 3}));
  EXPECT_FALSE(z.containsPoint(std::vector<int64_t>{0, 11, 11}));
}

TEST(Dbm, ContradictoryConstraintsEmptyTheZone) {
  Dbm z = Dbm::zero(2);
  z.up();
  ASSERT_TRUE(z.constrainUpper(1, 3, false));
  EXPECT_FALSE(z.constrainLower(1, 5, false));
  EXPECT_TRUE(z.isEmpty());
}

TEST(Dbm, StrictBoundaryExcluded) {
  Dbm z = Dbm::zero(2);
  z.up();
  ASSERT_TRUE(z.constrainUpper(1, 3, /*strict=*/true));  // x1 < 3
  EXPECT_TRUE(z.containsPoint(std::vector<int64_t>{0, 2}));
  EXPECT_FALSE(z.containsPoint(std::vector<int64_t>{0, 3}));
}

TEST(Dbm, ResetPinsClock) {
  Dbm z = Dbm::zero(3);
  z.up();
  ASSERT_TRUE(z.constrainLower(1, 5, false));
  z.reset(2, 0);
  // x2 == 0 while x1 kept its >= 5 history.
  EXPECT_TRUE(z.containsPoint(std::vector<int64_t>{0, 5, 0}));
  EXPECT_FALSE(z.containsPoint(std::vector<int64_t>{0, 5, 1}));
  EXPECT_FALSE(z.containsPoint(std::vector<int64_t>{0, 4, 0}));
}

TEST(Dbm, ResetToNonZeroValue) {
  Dbm z = Dbm::zero(2);
  z.up();
  z.reset(1, 7);
  EXPECT_TRUE(z.containsPoint(std::vector<int64_t>{0, 7}));
  EXPECT_FALSE(z.containsPoint(std::vector<int64_t>{0, 0}));
}

TEST(Dbm, ResetThenDelayTracksDifference) {
  Dbm z = Dbm::zero(3);
  z.up();
  ASSERT_TRUE(z.constrainUpper(1, 10, false));
  ASSERT_TRUE(z.constrainLower(1, 10, false));  // x1 == 10
  z.reset(2, 0);                                // x2 := 0
  z.up();
  // Difference x1 - x2 == 10 must be preserved under delay.
  EXPECT_TRUE(z.containsPoint(std::vector<int64_t>{0, 13, 3}));
  EXPECT_FALSE(z.containsPoint(std::vector<int64_t>{0, 13, 4}));
}

TEST(Dbm, DownReachesPastValuations) {
  Dbm z = Dbm::zero(2);
  z.up();
  ASSERT_TRUE(z.constrainLower(1, 5, false));  // x1 >= 5
  z.down();
  EXPECT_TRUE(z.containsPoint(std::vector<int64_t>{0, 2}));
  EXPECT_TRUE(z.containsPoint(std::vector<int64_t>{0, 0}));
}

TEST(Dbm, CopyClock) {
  Dbm z = Dbm::zero(3);
  z.up();
  ASSERT_TRUE(z.constrainUpper(1, 8, false));
  ASSERT_TRUE(z.constrainLower(1, 8, false));  // x1 == 8
  z.reset(2, 0);
  z.copyClock(2, 1);  // x2 := x1
  EXPECT_TRUE(z.containsPoint(std::vector<int64_t>{0, 8, 8}));
  EXPECT_FALSE(z.containsPoint(std::vector<int64_t>{0, 8, 0}));
}

TEST(Dbm, FreeClockRemovesConstraints) {
  Dbm z = Dbm::zero(3);
  z.up();
  ASSERT_TRUE(z.constrainUpper(1, 3, false));
  // Drop x1, then bring it back fresh: only x1 >= 0 is left of it.
  z.remap(std::vector<int32_t>{0, 2});
  EXPECT_EQ(z.dimension(), 2u);
  z.remap(std::vector<int32_t>{0, -1, 1});
  EXPECT_TRUE(z.containsPoint(std::vector<int64_t>{0, 100, 3}));
  EXPECT_FALSE(z.containsPoint(std::vector<int64_t>{0, -1, 3}));
}

TEST(Dbm, RelationReflexive) {
  Dbm z = Dbm::zero(3);
  z.up();
  EXPECT_EQ(z.relation(z), Relation::kEqual);
  EXPECT_TRUE(z.includes(z));
}

TEST(Dbm, RelationSubsetSuperset) {
  Dbm big = Dbm::zero(2);
  big.up();
  Dbm small = big;
  ASSERT_TRUE(small.constrainUpper(1, 5, false));
  EXPECT_EQ(small.relation(big), Relation::kSubset);
  EXPECT_EQ(big.relation(small), Relation::kSuperset);
  EXPECT_TRUE(big.includes(small));
  EXPECT_FALSE(small.includes(big));
}

TEST(Dbm, RelationDifferent) {
  Dbm a = Dbm::zero(2);
  a.up();
  Dbm b = a;
  ASSERT_TRUE(a.constrainUpper(1, 5, false));   // x1 in [0,5]
  ASSERT_TRUE(b.constrainLower(1, 3, false));   // x1 in [3,inf)
  EXPECT_EQ(a.relation(b), Relation::kDifferent);
}

TEST(Dbm, IntersectOverlapping) {
  Dbm a = Dbm::zero(2);
  a.up();
  ASSERT_TRUE(a.constrainUpper(1, 5, false));
  Dbm b = Dbm::zero(2);
  b.up();
  ASSERT_TRUE(b.constrainLower(1, 3, false));
  ASSERT_TRUE(a.intersect(b));
  EXPECT_TRUE(a.containsPoint(std::vector<int64_t>{0, 4}));
  EXPECT_FALSE(a.containsPoint(std::vector<int64_t>{0, 2}));
  EXPECT_FALSE(a.containsPoint(std::vector<int64_t>{0, 6}));
}

TEST(Dbm, IntersectDisjointIsEmpty) {
  Dbm a = Dbm::zero(2);
  a.up();
  ASSERT_TRUE(a.constrainUpper(1, 2, false));
  Dbm b = Dbm::zero(2);
  b.up();
  ASSERT_TRUE(b.constrainLower(1, 5, false));
  EXPECT_FALSE(a.intersect(b));
  EXPECT_TRUE(a.isEmpty());
}

TEST(Dbm, SatisfiesMatchesConstrain) {
  Dbm z = Dbm::zero(2);
  z.up();
  ASSERT_TRUE(z.constrainUpper(1, 5, false));
  EXPECT_TRUE(z.satisfies(0, 1, boundWeak(-5)));    // x1 >= 5 touches edge
  EXPECT_FALSE(z.satisfies(0, 1, boundWeak(-6)));   // x1 >= 6 impossible
  EXPECT_FALSE(z.satisfies(0, 1, boundStrict(-5))); // x1 > 5 impossible
}

TEST(Dbm, ExtrapolationWidensAboveMax) {
  Dbm z = Dbm::zero(2);
  z.up();
  ASSERT_TRUE(z.constrainLower(1, 100, false));  // x1 >= 100
  ASSERT_TRUE(z.constrainUpper(1, 120, false));  // x1 <= 120
  const std::vector<value_t> max{0, 10};
  z.extrapolateMaxBounds(max);
  // Bounds above the max constant 10 are abstracted: zone now includes
  // everything above 10 and no longer the concrete [100,120] window only.
  EXPECT_TRUE(z.containsPoint(std::vector<int64_t>{0, 1000}));
  EXPECT_TRUE(z.containsPoint(std::vector<int64_t>{0, 11}));
  EXPECT_FALSE(z.containsPoint(std::vector<int64_t>{0, 5}));
}

TEST(Dbm, ExtrapolationBelowMaxUntouched) {
  Dbm z = Dbm::zero(2);
  z.up();
  ASSERT_TRUE(z.constrainUpper(1, 5, false));
  const Dbm before = z;
  const std::vector<value_t> max{0, 10};
  z.extrapolateMaxBounds(max);
  EXPECT_EQ(z.relation(before), Relation::kEqual);
}

TEST(Dbm, ExtrapolationIsIdempotent) {
  Dbm z = Dbm::zero(3);
  z.up();
  ASSERT_TRUE(z.constrainLower(1, 50, false));
  ASSERT_TRUE(z.constrainUpper(2, 80, false));
  const std::vector<value_t> max{0, 7, 9};
  z.extrapolateMaxBounds(max);
  Dbm again = z;
  again.extrapolateMaxBounds(max);
  EXPECT_EQ(again.relation(z), Relation::kEqual);
}

TEST(Dbm, HashEqualForEqualZones) {
  Dbm a = Dbm::zero(3);
  a.up();
  Dbm b = Dbm::zero(3);
  b.up();
  EXPECT_EQ(a.hash(), b.hash());
  ASSERT_TRUE(b.constrainUpper(1, 3, false));
  EXPECT_NE(a.hash(), b.hash());
}

TEST(Dbm, CloseDetectsNegativeCycle) {
  Dbm z = Dbm::unconstrained(3);
  z.setRaw(1, 2, boundWeak(-1));  // x1 - x2 <= -1
  z.setRaw(2, 1, boundWeak(-1));  // x2 - x1 <= -1  -> cycle sum -2
  EXPECT_FALSE(z.close());
  EXPECT_TRUE(z.isEmpty());
}

TEST(Dbm, EmptyZoneIncludesNothing) {
  Dbm z = Dbm::zero(2);
  z.setEmpty();
  Dbm w = Dbm::zero(2);
  EXPECT_FALSE(z.includes(w));
  EXPECT_TRUE(w.includes(z));
  EXPECT_FALSE(z.containsPoint(std::vector<int64_t>{0, 0}));
}

}  // namespace
}  // namespace dbm
