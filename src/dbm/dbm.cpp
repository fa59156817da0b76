#include "dbm/dbm.hpp"

#include <algorithm>
#include <sstream>

#include "dbm/simd.hpp"

namespace dbm {

Dbm Dbm::unconstrained(uint32_t dim) {
  Dbm d(dim);
  for (uint32_t i = 0; i < dim; ++i) {
    for (uint32_t j = 0; j < dim; ++j) {
      // Row 0 keeps x_j >= 0 (0 - x_j <= 0); diagonal stays (0, <=).
      d.raw_[i * dim + j] = (i == 0 || i == j) ? kZeroBound : kInfinity;
    }
  }
  return d;
}

bool Dbm::close() {
  invalidateHash();
  simd::noteOp();
  const uint32_t n = dim_;
  for (uint32_t k = 0; k < n; ++k) {
    const raw_t* rowK = raw_.data() + size_t{k} * n;
    for (uint32_t i = 0; i < n; ++i) {
      const raw_t dik = raw_[i * n + k];
      if (dik == kInfinity) continue;
      simd::rowMinPlus(raw_.data() + size_t{i} * n, rowK, dik, n);
    }
    if (raw_[k * n + k] < kZeroBound) {
      setEmpty();
      return false;
    }
  }
  return true;
}

bool Dbm::closeAfterConstrain(uint32_t a, uint32_t b) {
  invalidateHash();
  simd::noteOp();
  const uint32_t n = dim_;
  const raw_t dab = raw_[a * n + b];
  if (boundAdd(dab, raw_[b * n + a]) < kZeroBound) {
    setEmpty();
    return false;
  }
  const raw_t* rowB = raw_.data() + size_t{b} * n;
  for (uint32_t i = 0; i < n; ++i) {
    const raw_t dia = boundAdd(raw_[i * n + a], dab);
    if (dia == kInfinity) continue;
    simd::rowMinPlus(raw_.data() + size_t{i} * n, rowB, dia, n);
  }
  return true;
}

bool Dbm::constrain(uint32_t i, uint32_t j, raw_t b) {
  assert(i != j);
  if (isEmpty()) return false;
  if (b >= raw_[i * dim_ + j]) return true;  // no tightening needed
  raw_[i * dim_ + j] = b;
  return closeAfterConstrain(i, j);
}

void Dbm::up() {
  invalidateHash();
  for (uint32_t i = 1; i < dim_; ++i) raw_[i * dim_] = kInfinity;
}

void Dbm::down() {
  invalidateHash();
  // Relax lower bounds: x_j may be anything a past valuation allowed,
  // clamped at 0.  Preserves canonical form (UDBM's dbm_down).
  const uint32_t n = dim_;
  for (uint32_t j = 1; j < n; ++j) {
    raw_t lo = kZeroBound;
    for (uint32_t i = 1; i < n; ++i) {
      lo = std::min(lo, raw_[i * n + j]);
    }
    raw_[j] = lo;  // raw_[0*n + j]
  }
}

void Dbm::reset(uint32_t i, value_t v) {
  invalidateHash();
  assert(i > 0 && i < dim_);
  const uint32_t n = dim_;
  const raw_t up_b = boundWeak(v);
  const raw_t lo_b = boundWeak(-v);
  for (uint32_t j = 0; j < n; ++j) {
    if (j == i) continue;
    raw_[i * n + j] = boundAdd(up_b, raw_[j]);       // x_i - x_j <= v + (0 - x_j)
    raw_[j * n + i] = boundAdd(raw_[j * n], lo_b);   // x_j - x_i <= (x_j - 0) - v
  }
}

void Dbm::copyClock(uint32_t i, uint32_t j) {
  invalidateHash();
  assert(i > 0 && i != j);
  const uint32_t n = dim_;
  for (uint32_t k = 0; k < n; ++k) {
    if (k == i) continue;
    raw_[i * n + k] = raw_[j * n + k];
    raw_[k * n + i] = raw_[k * n + j];
  }
  raw_[i * n + j] = kZeroBound;
  raw_[j * n + i] = kZeroBound;
}

void Dbm::remap(std::span<const int32_t> from) {
  assert(!from.empty() && from[0] == 0);
  invalidateHash();
  const uint32_t n = dim_;
  const auto m = static_cast<uint32_t>(from.size());
  // The old entries move to a thread-local copy (this runs once per
  // successor whose live clocks differ from its source's).
  thread_local RawBuffer old;
  old.assign(raw_.begin(), raw_.end());
  raw_.resize(size_t{m} * m);
  for (uint32_t k = 0; k < m; ++k) {
    raw_t* row = raw_.data() + size_t{k} * m;
    if (from[k] < 0) {
      // A fresh clock has no upper bound against anything.
      std::fill(row, row + m, kInfinity);
      row[k] = kZeroBound;
      continue;
    }
    assert(static_cast<uint32_t>(from[k]) < n);
    const raw_t* src = old.data() + static_cast<size_t>(from[k]) * n;
    // x_k - x_fresh <= x_k - 0 since x_fresh >= 0; row 0 keeps just
    // 0 - x_fresh <= 0.
    const raw_t toFresh = k == 0 ? kZeroBound : src[0];
    for (uint32_t l = 0; l < m; ++l) {
      row[l] = from[l] < 0 ? toFresh : src[from[l]];
    }
  }
  dim_ = m;
}

bool Dbm::extrapolateMaxBounds(std::span<const value_t> max) {
  assert(max.size() == dim_);
  const uint32_t n = dim_;
  bool changed = false;
  for (uint32_t i = 0; i < n; ++i) {
    // Clocks never compared against a constant behave as if max == 0.
    const value_t mi = std::max<value_t>(max[i], 0);
    for (uint32_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const value_t mj = std::max<value_t>(max[j], 0);
      raw_t& b = raw_[i * n + j];
      if (b == kInfinity) continue;
      if (i != 0 && b > boundWeak(mi)) {
        b = kInfinity;
        changed = true;
      } else if (b < boundStrict(-mj)) {
        b = boundStrict(-mj);
        changed = true;
      }
    }
  }
  if (changed) close();
  return changed;
}

bool Dbm::extrapolateLUBounds(std::span<const value_t> lower,
                              std::span<const value_t> upper) {
  assert(lower.size() == dim_ && upper.size() == dim_);
  const uint32_t n = dim_;
  // The rules compare against the *input* lower-bound row d_0k, which
  // the i == 0 pass mutates — snapshot it first.
  thread_local std::vector<raw_t> row0;
  row0.assign(raw_.begin(), raw_.begin() + n);
  bool changed = false;
  for (uint32_t i = 0; i < n; ++i) {
    const value_t li = std::max<value_t>(lower[i], 0);
    // -d_0i is the infimum of x_i in the input zone.
    const value_t infI = i == 0 ? 0 : -boundValue(row0[i]);
    for (uint32_t j = 0; j < n; ++j) {
      if (i == j) continue;
      raw_t& b = raw_[i * n + j];
      if (b == kInfinity) continue;
      const value_t uj = std::max<value_t>(upper[j], 0);
      const value_t infJ = -boundValue(row0[j]);
      if (i != 0) {
        if (b > boundWeak(li) || infI > li || infJ > uj) {
          b = kInfinity;
          changed = true;
        }
      } else if (infJ > uj) {
        // Weaken the lower bound of x_j down to (strictly above) U(x_j):
        // no remaining guard or invariant can tell values above U apart.
        b = boundStrict(-uj);
        changed = true;
      }
    }
  }
  if (changed) close();
  return changed;
}

Dbm Dbm::fromSpan(uint32_t dim, std::span<const raw_t> raw) {
  assert(raw.size() == size_t{dim} * dim);
  Dbm d(dim);
  std::copy(raw.begin(), raw.end(), d.raw_.begin());
  d.invalidateHash();
  return d;
}

Relation Dbm::relation(const Dbm& other) const noexcept {
  assert(dim_ == other.dim_);
  simd::noteOp();
  const simd::CompareResult r =
      simd::rowCompare(raw_.data(), other.raw_.data(), raw_.size());
  if (r.anyGreater && r.anyLess) return Relation::kDifferent;
  if (!r.anyGreater && !r.anyLess) return Relation::kEqual;
  return r.anyGreater ? Relation::kSuperset : Relation::kSubset;
}

bool Dbm::includes(const Dbm& other) const noexcept {
  assert(dim_ == other.dim_);
  if (other.isEmpty()) return true;
  if (isEmpty()) return false;
  simd::noteOp();
  return simd::rowsInclude(raw_.data(), other.raw_.data(), raw_.size());
}

bool Dbm::intersect(const Dbm& other) {
  assert(dim_ == other.dim_);
  simd::rowMinEq(raw_.data(), other.raw_.data(), raw_.size());
  return close();
}

bool Dbm::containsPoint(std::span<const int64_t> val) const noexcept {
  assert(val.size() == dim_);
  if (isEmpty() || val[0] != 0) return false;
  for (uint32_t i = 0; i < dim_; ++i) {
    for (uint32_t j = 0; j < dim_; ++j) {
      if (i == j) continue;
      const raw_t b = at(i, j);
      if (b == kInfinity) continue;
      const int64_t diff = val[i] - val[j];
      const int64_t bv = boundValue(b);
      if (isStrict(b) ? diff >= bv : diff > bv) return false;
    }
  }
  return true;
}

namespace {

// FNV-1a over raw entries; 0 is reserved as hash()'s "not computed"
// sentinel.
constexpr size_t kFnvOffset = 1469598103934665603ull;

size_t fnvStep(size_t h, raw_t r) noexcept {
  return (h ^ static_cast<size_t>(static_cast<uint32_t>(r))) *
         1099511628211ull;
}

size_t fnvFinish(size_t h) noexcept {
  return h == 0 ? 0x9e3779b97f4a7c15ull : h;
}

}  // namespace

size_t Dbm::hash() const noexcept {
  size_t h = hash_.load(std::memory_order_relaxed);
  if (h != 0) return h;
  h = kFnvOffset;
  for (raw_t r : raw_) h = fnvStep(h, r);
  h = fnvFinish(h);
  hash_.store(h, std::memory_order_relaxed);
  return h;
}

size_t Dbm::hashExpanded(std::span<const int32_t> slotOf) const noexcept {
  assert(!slotOf.empty() && slotOf[0] == 0);
  size_t h = kFnvOffset;
  const size_t n = slotOf.size();
  for (size_t i = 0; i < n; ++i) {
    const int32_t si = slotOf[i];
    for (size_t j = 0; j < n; ++j) {
      const int32_t sj = slotOf[j];
      raw_t b = kInfinity;
      if (si < 0) {
        if (i == j) b = kZeroBound;
      } else if (sj >= 0) {
        b = at(static_cast<uint32_t>(si), static_cast<uint32_t>(sj));
      } else {
        b = i == 0 ? kZeroBound : at(static_cast<uint32_t>(si), 0);
      }
      h = fnvStep(h, b);
    }
  }
  return fnvFinish(h);
}

std::string Dbm::toString() const {
  std::ostringstream os;
  for (uint32_t i = 0; i < dim_; ++i) {
    for (uint32_t j = 0; j < dim_; ++j) {
      os << boundToString(at(i, j)) << (j + 1 == dim_ ? "\n" : "\t");
    }
  }
  return os.str();
}

}  // namespace dbm
