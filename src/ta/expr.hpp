// Integer expressions over model variables — the data language of guards
// and assignments (UPPAAL's integer fragment: scalars, flattened arrays,
// arithmetic, comparisons, boolean connectives, ?:).
//
// Expressions are interned in an arena (`ExprPool`) and referenced by
// index; evaluation is an iterative-free recursive walk over the flat
// node array, cheap enough for the millions of guard evaluations a
// reachability run performs.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

namespace ta {

/// Index of an expression node inside its pool. kNoExpr means "absent"
/// (an absent guard is true).
using ExprRef = int32_t;
inline constexpr ExprRef kNoExpr = -1;

/// Flattened index of an integer variable (array cells are consecutive).
using VarId = int32_t;

enum class Op : uint8_t {
  kConst,  ///< payload a = value
  kVar,    ///< payload a = base VarId, b = index expr (kNoExpr if scalar),
           ///< c = array size (1 for scalars; used for bounds checking)
  kAdd, kSub, kMul, kDiv, kMod,
  kNeg,
  kLt, kLe, kEq, kNe, kGe, kGt,
  kAnd, kOr, kNot,
  kIte,    ///< a ? b : c
  kMin, kMax,
};

struct ExprNode {
  Op op;
  int32_t a = 0;
  int32_t b = 0;
  int32_t c = 0;
};

class ExprPool {
 public:
  [[nodiscard]] ExprRef constant(int32_t v) { return push({Op::kConst, v, 0, 0}); }

  [[nodiscard]] ExprRef var(VarId base) { return push({Op::kVar, base, kNoExpr, 1}); }

  [[nodiscard]] ExprRef arrayCell(VarId base, ExprRef index, int32_t size) {
    assert(size > 0);
    return push({Op::kVar, base, index, size});
  }

  [[nodiscard]] ExprRef unary(Op op, ExprRef a) { return push({op, a, 0, 0}); }

  [[nodiscard]] ExprRef binary(Op op, ExprRef a, ExprRef b) {
    return push({op, a, b, 0});
  }

  [[nodiscard]] ExprRef ite(ExprRef cond, ExprRef t, ExprRef f) {
    return push({Op::kIte, cond, t, f});
  }

  /// Evaluate `e` against a variable valuation. `e == kNoExpr` yields 1
  /// (the always-true guard). Division or modulo by zero and
  /// out-of-bounds array indices evaluate to 0 with `*ok = false` when
  /// `ok` is provided.
  [[nodiscard]] int64_t eval(ExprRef e, std::span<const int32_t> vars,
                             bool* ok = nullptr) const;

  /// Evaluate as a guard: nonzero result means enabled. A failing
  /// evaluation (see eval) is false: it disables what it guards.
  [[nodiscard]] bool evalBool(ExprRef e, std::span<const int32_t> vars) const {
    bool ok = true;
    const int64_t v = eval(e, vars, &ok);
    return ok && v != 0;
  }

  [[nodiscard]] const ExprNode& node(ExprRef e) const {
    assert(e >= 0 && static_cast<size_t>(e) < nodes_.size());
    return nodes_[static_cast<size_t>(e)];
  }

  [[nodiscard]] size_t size() const noexcept { return nodes_.size(); }

 private:
  ExprRef push(ExprNode n) {
    nodes_.push_back(n);
    return static_cast<ExprRef>(nodes_.size() - 1);
  }

  std::vector<ExprNode> nodes_;
};

/// Fluent expression-building handle: `Ex` values carry their pool so
/// model-construction code can write `count(t1) <= count(t2)` directly.
class Ex {
 public:
  Ex(ExprPool& pool, ExprRef ref) : pool_(&pool), ref_(ref) {}

  [[nodiscard]] ExprRef ref() const noexcept { return ref_; }
  [[nodiscard]] ExprPool& pool() const noexcept { return *pool_; }

  friend Ex operator+(Ex a, Ex b) { return a.bin(Op::kAdd, b); }
  friend Ex operator-(Ex a, Ex b) { return a.bin(Op::kSub, b); }
  friend Ex operator*(Ex a, Ex b) { return a.bin(Op::kMul, b); }
  friend Ex operator/(Ex a, Ex b) { return a.bin(Op::kDiv, b); }
  friend Ex operator%(Ex a, Ex b) { return a.bin(Op::kMod, b); }
  friend Ex operator<(Ex a, Ex b) { return a.bin(Op::kLt, b); }
  friend Ex operator<=(Ex a, Ex b) { return a.bin(Op::kLe, b); }
  friend Ex operator==(Ex a, Ex b) { return a.bin(Op::kEq, b); }
  friend Ex operator!=(Ex a, Ex b) { return a.bin(Op::kNe, b); }
  friend Ex operator>=(Ex a, Ex b) { return a.bin(Op::kGe, b); }
  friend Ex operator>(Ex a, Ex b) { return a.bin(Op::kGt, b); }
  friend Ex operator&&(Ex a, Ex b) { return a.bin(Op::kAnd, b); }
  friend Ex operator||(Ex a, Ex b) { return a.bin(Op::kOr, b); }
  friend Ex operator!(Ex a) {
    return Ex(*a.pool_, a.pool_->unary(Op::kNot, a.ref_));
  }
  friend Ex operator-(Ex a) {
    return Ex(*a.pool_, a.pool_->unary(Op::kNeg, a.ref_));
  }

  /// Mixed-operand conveniences with integer literals.
  friend Ex operator+(Ex a, int32_t b) { return a + a.lit(b); }
  friend Ex operator-(Ex a, int32_t b) { return a - a.lit(b); }
  friend Ex operator<(Ex a, int32_t b) { return a < a.lit(b); }
  friend Ex operator<=(Ex a, int32_t b) { return a <= a.lit(b); }
  friend Ex operator==(Ex a, int32_t b) { return a == a.lit(b); }
  friend Ex operator!=(Ex a, int32_t b) { return a != a.lit(b); }
  friend Ex operator>=(Ex a, int32_t b) { return a >= a.lit(b); }
  friend Ex operator>(Ex a, int32_t b) { return a > a.lit(b); }

  [[nodiscard]] static Ex ite(Ex cond, Ex t, Ex f) {
    return Ex(*cond.pool_, cond.pool_->ite(cond.ref_, t.ref_, f.ref_));
  }

 private:
  [[nodiscard]] Ex bin(Op op, Ex other) const {
    assert(pool_ == other.pool_);
    return Ex(*pool_, pool_->binary(op, ref_, other.ref_));
  }
  [[nodiscard]] Ex lit(int32_t v) const { return Ex(*pool_, pool_->constant(v)); }

  ExprPool* pool_;
  ExprRef ref_;
};

}  // namespace ta
