#include "ta/expr.hpp"

#include <algorithm>

namespace ta {

namespace {

struct Evaluator {
  const std::vector<ExprNode>& nodes;
  std::span<const int32_t> vars;
  bool ok = true;

  int64_t run(ExprRef e) {
    if (e == kNoExpr) return 1;
    const ExprNode& n = nodes[static_cast<size_t>(e)];
    switch (n.op) {
      case Op::kConst:
        return n.a;
      case Op::kVar: {
        int64_t idx = 0;
        if (n.b != kNoExpr) {
          idx = run(n.b);
          if (idx < 0 || idx >= n.c) {
            ok = false;
            return 0;
          }
        }
        return vars[static_cast<size_t>(n.a + idx)];
      }
      case Op::kAdd: return run(n.a) + run(n.b);
      case Op::kSub: return run(n.a) - run(n.b);
      case Op::kMul: return run(n.a) * run(n.b);
      case Op::kDiv: {
        const int64_t d = run(n.b);
        if (d == 0) {
          ok = false;
          return 0;
        }
        return run(n.a) / d;
      }
      case Op::kMod: {
        const int64_t d = run(n.b);
        if (d == 0) {
          ok = false;
          return 0;
        }
        return run(n.a) % d;
      }
      case Op::kNeg: return -run(n.a);
      case Op::kLt: return run(n.a) < run(n.b);
      case Op::kLe: return run(n.a) <= run(n.b);
      case Op::kEq: return run(n.a) == run(n.b);
      case Op::kNe: return run(n.a) != run(n.b);
      case Op::kGe: return run(n.a) >= run(n.b);
      case Op::kGt: return run(n.a) > run(n.b);
      case Op::kAnd: return run(n.a) != 0 && run(n.b) != 0;
      case Op::kOr: return run(n.a) != 0 || run(n.b) != 0;
      case Op::kNot: return run(n.a) == 0;
      case Op::kIte: return run(n.a) != 0 ? run(n.b) : run(n.c);
      case Op::kMin: return std::min(run(n.a), run(n.b));
      case Op::kMax: return std::max(run(n.a), run(n.b));
    }
    return 0;
  }
};

}  // namespace

int64_t ExprPool::eval(ExprRef e, std::span<const int32_t> vars,
                       bool* ok) const {
  Evaluator ev{nodes_, vars};
  const int64_t result = ev.run(e);
  if (ok != nullptr) *ok = ev.ok;
  return result;
}

}  // namespace ta
