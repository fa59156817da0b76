#include "ta/expr.hpp"

#include <gtest/gtest.h>

#include "ta/printer.hpp"

namespace ta {
namespace {

class ExprTest : public ::testing::Test {
 protected:
  ExprPool pool;
  std::vector<int32_t> vars{10, 20, 3, 0, 5};

  [[nodiscard]] int64_t ev(ExprRef e) { return pool.eval(e, vars); }
  [[nodiscard]] Ex lit(int32_t v) { return {pool, pool.constant(v)}; }
  [[nodiscard]] Ex var(VarId v) { return {pool, pool.var(v)}; }
};

TEST_F(ExprTest, Constants) {
  EXPECT_EQ(ev(pool.constant(42)), 42);
  EXPECT_EQ(ev(pool.constant(-7)), -7);
}

TEST_F(ExprTest, AbsentGuardIsTrue) {
  EXPECT_EQ(ev(kNoExpr), 1);
  EXPECT_TRUE(pool.evalBool(kNoExpr, vars));
}

TEST_F(ExprTest, VariableRead) {
  EXPECT_EQ(ev(pool.var(0)), 10);
  EXPECT_EQ(ev(pool.var(4)), 5);
}

TEST_F(ExprTest, Arithmetic) {
  EXPECT_EQ(ev((var(0) + var(1)).ref()), 30);
  EXPECT_EQ(ev((var(1) - var(0)).ref()), 10);
  EXPECT_EQ(ev((var(0) * var(2)).ref()), 30);
  EXPECT_EQ(ev((var(1) / var(2)).ref()), 6);
  EXPECT_EQ(ev((var(1) % var(2)).ref()), 2);
  EXPECT_EQ(ev((-var(0)).ref()), -10);
}

TEST_F(ExprTest, Comparisons) {
  EXPECT_EQ(ev((var(0) < var(1)).ref()), 1);
  EXPECT_EQ(ev((var(0) > var(1)).ref()), 0);
  EXPECT_EQ(ev((var(0) <= lit(10)).ref()), 1);
  EXPECT_EQ(ev((var(0) >= lit(11)).ref()), 0);
  EXPECT_EQ(ev((var(0) == lit(10)).ref()), 1);
  EXPECT_EQ(ev((var(0) != lit(10)).ref()), 0);
}

TEST_F(ExprTest, Boolean) {
  EXPECT_EQ(ev(((var(0) == 10) && (var(1) == 20)).ref()), 1);
  EXPECT_EQ(ev(((var(0) == 11) || (var(1) == 20)).ref()), 1);
  EXPECT_EQ(ev((!(var(0) == 10)).ref()), 0);
}

TEST_F(ExprTest, Ternary) {
  // The paper's machine-choice expression shape:
  //   next := (count1 <= count2 ? m1 : m4)
  const Ex cond = var(0) <= var(1);
  EXPECT_EQ(ev(Ex::ite(cond, lit(1), lit(4)).ref()), 1);
  const Ex cond2 = var(1) <= var(0);
  EXPECT_EQ(ev(Ex::ite(cond2, lit(1), lit(4)).ref()), 4);
}

TEST_F(ExprTest, MinMax) {
  EXPECT_EQ(ev(pool.binary(Op::kMin, pool.var(0), pool.var(1))), 10);
  EXPECT_EQ(ev(pool.binary(Op::kMax, pool.var(0), pool.var(1))), 20);
}

TEST_F(ExprTest, ArrayCellDynamicIndex) {
  // vars[base + vars[2]] where base=0 and vars[2]==3 -> vars[3] == 0.
  const ExprRef e = pool.arrayCell(0, pool.var(2), 5);
  EXPECT_EQ(ev(e), 0);
}

TEST_F(ExprTest, NestedExpression) {
  // (v0 + v1) * 2 - v4  ==  (10+20)*2-5 == 55
  const Ex e = (var(0) + var(1)) * lit(2) - var(4);
  EXPECT_EQ(ev(e.ref()), 55);
}

TEST_F(ExprTest, ShortCircuitProtectsDivision) {
  // v3 == 0, so (v3 != 0 && v0 / v3 > 0) must not divide.
  const Ex e = (var(3) != 0) && (var(0) / var(3) > 0);
  EXPECT_EQ(ev(e.ref()), 0);
}

TEST_F(ExprTest, ToStringReadable) {
  System sys;
  const VarId a = sys.addVar("a", 0);
  const VarId b = sys.addVar("b", 0);
  const Ex e = (sys.rd(a) + sys.lit(2)) <= sys.rd(b);
  EXPECT_EQ(printExpr(sys, e.ref()), "((a + 2) <= b)");
  EXPECT_EQ(printExpr(sys, kNoExpr), "true");
}

TEST_F(ExprTest, OutOfBoundsIndexReportsNotOk) {
  const ExprRef bad = pool.arrayCell(0, pool.constant(99), 5);
  bool ok = true;
  EXPECT_EQ(pool.eval(bad, vars, &ok), 0);
  EXPECT_FALSE(ok);
}

TEST_F(ExprTest, DivisionByZeroReportsNotOk) {
  const ExprRef bad = pool.binary(Op::kDiv, pool.var(0), pool.var(3));
  bool ok = true;
  EXPECT_EQ(pool.eval(bad, vars, &ok), 0);
  EXPECT_FALSE(ok);
}

TEST_F(ExprTest, ModuloByZeroReportsNotOk) {
  const ExprRef bad = pool.binary(Op::kMod, pool.var(0), pool.var(3));
  bool ok = true;
  EXPECT_EQ(pool.eval(bad, vars, &ok), 0);
  EXPECT_FALSE(ok);
}

}  // namespace
}  // namespace ta
