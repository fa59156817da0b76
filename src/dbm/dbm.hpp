// Difference Bound Matrices — the symbolic representation of clock zones.
//
// A DBM of dimension n represents a convex set of clock valuations over
// clocks x_1 .. x_{n-1} plus the reference clock x_0 == 0.  Entry (i, j)
// encodes the constraint  x_i - x_j  <bound>  at(i, j).
//
// All mutating operations keep the matrix in *canonical* (closed) form —
// the tightest representation, computed with Floyd–Warshall shortest
// paths — except where documented otherwise.  An empty zone is
// represented canonically by at(0,0) < (0, <=).
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "dbm/aligned.hpp"
#include "dbm/bound.hpp"

namespace dbm {

class ZonePool;

/// Result of comparing two zones over the same clock set.
enum class Relation : uint8_t {
  kEqual,      ///< same set of valuations
  kSubset,     ///< this strictly included in other
  kSuperset,   ///< this strictly includes other
  kDifferent,  ///< incomparable
};

/// A clock zone in canonical DBM form. Dimension includes the reference
/// clock, so a system with k real clocks uses dimension k+1.
class Dbm {
 public:
  /// Uninitialized-to-zero zone of the given dimension: all clocks == 0.
  explicit Dbm(uint32_t dim) : dim_(dim), raw_(dim * dim, kZeroBound) {
    assert(dim >= 1);
  }

  // The memoized hash lives in an atomic, which is neither copyable nor
  // movable — spell out the special members it would otherwise delete.
  // Assignment must tolerate self-assignment: the best-first engine's
  // reopen path can copy a queue entry back over itself.
  Dbm(const Dbm& o) : dim_(o.dim_), raw_(o.raw_) {
    hash_.store(o.hash_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  }
  Dbm(Dbm&& o) noexcept : dim_(o.dim_), raw_(std::move(o.raw_)) {
    hash_.store(o.hash_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  }
  Dbm& operator=(const Dbm& o) {
    if (this == &o) return *this;
    dim_ = o.dim_;
    raw_ = o.raw_;
    hash_.store(o.hash_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    return *this;
  }
  Dbm& operator=(Dbm&& o) noexcept {
    if (this == &o) return *this;
    dim_ = o.dim_;
    raw_ = std::move(o.raw_);
    hash_.store(o.hash_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    return *this;
  }

  /// The zone where every clock equals zero (the initial zone).
  [[nodiscard]] static Dbm zero(uint32_t dim) { return Dbm(dim); }

  /// The unconstrained zone (all valuations with non-negative clocks).
  [[nodiscard]] static Dbm unconstrained(uint32_t dim);

  [[nodiscard]] uint32_t dimension() const noexcept { return dim_; }

  [[nodiscard]] raw_t at(uint32_t i, uint32_t j) const noexcept {
    assert(i < dim_ && j < dim_);
    return raw_[i * dim_ + j];
  }

  /// Raw write access. The caller is responsible for re-establishing
  /// canonical form (close / closeAfterConstrain) before further use.
  void setRaw(uint32_t i, uint32_t j, raw_t b) noexcept {
    assert(i < dim_ && j < dim_);
    raw_[i * dim_ + j] = b;
    invalidateHash();
  }

  /// True if the zone contains no valuation.
  [[nodiscard]] bool isEmpty() const noexcept { return raw_[0] < kZeroBound; }

  /// Mark the zone empty (canonical empty representation).
  void setEmpty() noexcept {
    raw_[0] = boundStrict(0);
    invalidateHash();
  }

  // -- Canonicalization -----------------------------------------------

  /// Full Floyd–Warshall closure, O(n^3). Detects emptiness.
  /// Returns false (and marks the zone empty) if inconsistent.
  bool close();

  /// Re-close after a single tightened entry (i, j), O(n^2).
  /// Returns false (and marks empty) if the tightening emptied the zone.
  bool closeAfterConstrain(uint32_t i, uint32_t j);

  // -- Constraint operations ------------------------------------------

  /// Conjoin constraint x_i - x_j <bound> b. Keeps canonical form.
  /// Returns false if the zone becomes empty.
  bool constrain(uint32_t i, uint32_t j, raw_t b);

  /// Conjoin x_i <= / < v (upper bound against the reference clock).
  bool constrainUpper(uint32_t i, value_t v, bool strict) {
    return constrain(i, 0, bound(v, strict));
  }

  /// Conjoin x_i >= / > v (lower bound against the reference clock).
  bool constrainLower(uint32_t i, value_t v, bool strict) {
    return constrain(0, i, bound(-v, strict));
  }

  /// Would `constrain(i, j, b)` leave the zone non-empty?  (No mutation.)
  [[nodiscard]] bool satisfies(uint32_t i, uint32_t j, raw_t b) const noexcept {
    // b conjoined with the existing bound on (j, i) must not close a
    // negative cycle: at(j,i) + b >= (0, <=).
    return !isEmpty() && boundAdd(at(j, i), b) >= kZeroBound;
  }

  // -- Time operations --------------------------------------------------

  /// Delay (future / "up"): remove all upper bounds. Stays canonical.
  void up();

  /// Past ("down"): allow any smaller valuation reachable by letting
  /// time run backwards. Stays canonical.
  void down();

  // -- Clock updates ----------------------------------------------------

  /// x_i := v. Stays canonical (precondition: canonical, non-empty).
  void reset(uint32_t i, value_t v);

  /// x_i := x_j. Stays canonical.
  void copyClock(uint32_t i, uint32_t j);

  /// Re-express the zone over another clock list: clock k of the result
  /// is clock from[k] of this zone, or, where from[k] < 0, a fresh clock
  /// bounded only by x_k >= 0. from[0] == 0 (the reference clock stays
  /// first). Dropping a clock is existential projection, and the
  /// sub-matrix of a canonical DBM is its canonical projection; a fresh
  /// clock's row is unbounded and its column repeats column 0 (what
  /// freeing it would leave), so the result stays canonical. The
  /// engine keeps each zone over its state's live clocks this way.
  void remap(std::span<const int32_t> from);

  // -- Abstraction ------------------------------------------------------

  /// Classic maximal-bounds extrapolation (Extra_M): bounds above
  /// max[i] are abstracted away so the reachability graph becomes
  /// finite. `max[i]` is the largest constant clock i is ever compared
  /// against; use -1 ("clock never compared") to drop all constraints
  /// on i. Needs a close() afterwards; this method performs it.
  /// Returns true if any entry was coarsened.
  bool extrapolateMaxBounds(std::span<const value_t> max);

  /// Extra+_LU extrapolation (Behrmann, Bouyer, Larsen, Pelánek):
  /// lower/upper-bound-aware widening, strictly coarser than Extra_M
  /// for the same constants yet still reachability-preserving for
  /// diagonal-free automata.  `lower[i]` / `upper[i]` are the largest
  /// constants clock i is compared against in lower-bound (x > c,
  /// x >= c) resp. upper-bound (x < c, x <= c) position; -1 means "no
  /// such comparison" and is treated as 0 (the nonnegativity of clocks
  /// is always observable).  Entry rules, with D the canonical input:
  ///   d_ij -> inf          if d_ij > L(x_i)              (i != 0)
  ///   d_ij -> inf          if -d_0i > L(x_i)             (i != 0)
  ///   d_ij -> inf          if -d_0j > U(x_j)             (i != 0)
  ///   d_0j -> (-U(x_j), <) if -d_0j > U(x_j)
  /// Re-canonicalizes afterwards. Returns true if anything coarsened.
  bool extrapolateLUBounds(std::span<const value_t> lower,
                           std::span<const value_t> upper);

  // -- Comparison / inclusion -------------------------------------------

  /// Exact set relation between two canonical zones of equal dimension.
  [[nodiscard]] Relation relation(const Dbm& other) const noexcept;

  /// True if `other` ⊆ `this` (both canonical, same dimension).
  [[nodiscard]] bool includes(const Dbm& other) const noexcept;

  /// Intersect with other (both canonical). Returns false if empty.
  bool intersect(const Dbm& other);

  // -- Points -----------------------------------------------------------

  /// Does the zone contain the concrete valuation? `val[0]` must be 0.
  [[nodiscard]] bool containsPoint(std::span<const int64_t> val) const noexcept;

  /// Minimum possible value of clock i in this zone (its lower bound).
  [[nodiscard]] value_t infimum(uint32_t i) const noexcept {
    return -boundValue(at(0, i));
  }

  /// Encoded upper bound of clock i (kInfinity if unbounded).
  [[nodiscard]] raw_t upperBound(uint32_t i) const noexcept { return at(i, 0); }

  // -- Raw snapshots ----------------------------------------------------

  /// The raw entries in row-major order — the flat passed store keeps
  /// zones as contiguous copies of this span.
  [[nodiscard]] std::span<const raw_t> rawData() const noexcept {
    return raw_;
  }

  /// Rebuild a zone from a row-major snapshot produced by rawData().
  /// The snapshot must already be canonical (no closure is run).
  [[nodiscard]] static Dbm fromSpan(uint32_t dim, std::span<const raw_t> raw);

  /// Overwrite the whole matrix in place from a row-major snapshot of
  /// the same dimension — the batch API's extraction path (ZoneBatch →
  /// Dbm without reallocating). Invalidates the memoized hash: the new
  /// entries share nothing with the old ones, and a copied zone that is
  /// then mutated through this path must not keep its source's hash.
  void assignRaw(std::span<const raw_t> raw) noexcept {
    assert(raw.size() == raw_.size());
    std::copy(raw.begin(), raw.end(), raw_.begin());
    invalidateHash();
  }

  // -- Misc ---------------------------------------------------------------

  /// FNV-1a over the raw entries, memoized: computed on first call and
  /// cached until the next mutating operation. The cache is a relaxed
  /// atomic so concurrent readers of a shared (immutable) zone may race
  /// on it benignly; 0 doubles as the "not computed" sentinel.
  [[nodiscard]] size_t hash() const noexcept;

  /// hash() of the wider zone this one is a projection of (see remap):
  /// its clock c is this zone's clock slotOf[c], or, where slotOf[c] < 0,
  /// a freed clock — row unbounded, column equal to column 0. The value
  /// depends on the zone's content over the wider clocks only, not on
  /// which of them this zone keeps or in which order. Not memoized.
  [[nodiscard]] size_t hashExpanded(
      std::span<const int32_t> slotOf) const noexcept;

  [[nodiscard]] bool operator==(const Dbm& other) const noexcept {
    return dim_ == other.dim_ && raw_ == other.raw_;
  }

  /// Multi-line human-readable dump (for debugging / tests).
  [[nodiscard]] std::string toString() const;

  /// Bytes of heap storage used (for the engine's memory accounting).
  [[nodiscard]] size_t memoryBytes() const noexcept {
    return raw_.capacity() * sizeof(raw_t);
  }

 private:
  friend class ZonePool;

  /// Adopt an existing buffer (already holding dim*dim entries) —
  /// the ZonePool's recycling constructor.
  Dbm(uint32_t dim, RawBuffer&& buf) noexcept
      : dim_(dim), raw_(std::move(buf)) {
    assert(raw_.size() == size_t{dim} * dim);
  }

  void invalidateHash() noexcept {
    hash_.store(0, std::memory_order_relaxed);
  }

  uint32_t dim_;
  RawBuffer raw_;
  mutable std::atomic<size_t> hash_{0};
};

}  // namespace dbm

template <>
struct std::hash<dbm::Dbm> {
  size_t operator()(const dbm::Dbm& d) const noexcept { return d.hash(); }
};
