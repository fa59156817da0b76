// Structure-of-arrays storage for many same-dimension zones.
//
// The passed store keeps each discrete bucket's zones in one arena and
// answers covered() by scanning it. Row-major blocks make that scan a
// sequence of full-matrix compares — each of which usually fails within
// the first few entries, so most loaded cache lines are wasted. The
// ZoneBatch groups zones in blocks of 8 and splits each block into a
// filter and a verify region:
//
//   * The first kPrefixRows matrix rows are stored transposed (AoSoA):
//     the 8 copies of prefix element e sit adjacent at
//     `block[e*8 + lane]`, so one 256-bit compare tests the same entry
//     of 8 stored zones against the query at once, narrowing an 8-bit
//     survivor mask. Almost every non-matching zone dies here — bound
//     differences concentrate in the reference row/column — so the
//     common early-exit (no survivors) costs a handful of vector
//     compares regardless of bucket population.
//   * The remaining rows are stored row-major per lane, each zone's
//     tail contiguous. A lane that survives the prefix is confirmed
//     with one contiguous rowsInclude over its own tail — the same
//     memory traffic a row-major scan would pay for the one zone that
//     actually matters. (A fully transposed layout makes this step
//     read 8x the data: the survivor's entries are strided 32 bytes
//     apart, so every cache line of the whole block gets touched.)
//
// Only live lanes are allocated. A block's transposed prefix is always
// 8 lanes wide (the filter loads whole vectors), but the buffer grows
// only to the end of the last pushed lane's tail. Dead lanes' prefix
// entries are masked out of every filter result, so no scan touches a
// dead lane's tail. A bucket holding one wide zone — the common case on
// the guided plant — pays for that zone plus 7 dead lanes' two prefix
// rows, not for 8 zones.
//
// Mutation is swap-remove only, keeping blocks dense from the front;
// order is not preserved (the passed store never relied on it). The
// buffer never shrinks, so memoryBytes() is what the batch holds.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>

#include "dbm/aligned.hpp"
#include "dbm/dbm.hpp"

namespace dbm {

class ZoneBatch {
 public:
  /// Lanes per block — matches the 8 x int32 width of one AVX2 vector.
  static constexpr size_t kLanes = 8;

  /// Matrix rows kept transposed as the SIMD filter region; the rest of
  /// each zone is stored contiguously for cheap survivor verification.
  static constexpr uint32_t kPrefixRows = 2;

  ZoneBatch() = default;
  explicit ZoneBatch(uint32_t dim) { init(dim); }

  /// Set the zone dimension before the first push. No-op if already
  /// set to the same value; the batch must be empty to change it.
  void init(uint32_t dim) {
    assert(size_ == 0 || dim_ == dim);
    dim_ = dim;
    elems_ = size_t{dim} * dim;
    prefixElems_ = size_t{dim < kPrefixRows ? dim : kPrefixRows} * dim;
    tailElems_ = elems_ - prefixElems_;
  }

  [[nodiscard]] uint32_t dimension() const noexcept { return dim_; }
  [[nodiscard]] size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Append a canonical row-major snapshot (rawData() of a same-dim Dbm).
  void push(std::span<const raw_t> raw);
  void push(const Dbm& z) { push(z.rawData()); }

  /// Copy zone `idx` back out in row-major order (`out` holds
  /// dim*dim entries).
  void copyTo(size_t idx, raw_t* out) const;

  /// Zone `idx` as a Dbm (tests; allocates).
  [[nodiscard]] Dbm zoneAt(size_t idx) const;

  [[nodiscard]] raw_t at(size_t idx, uint32_t i, uint32_t j) const noexcept {
    assert(idx < size_ && i < dim_ && j < dim_);
    const size_t e = size_t{i} * dim_ + j;
    if (e < prefixElems_) return block(idx / kLanes)[e * kLanes + idx % kLanes];
    return tail(idx / kLanes, idx % kLanes)[e - prefixElems_];
  }

  /// Remove zone `idx` by moving the last zone into its lane.
  void swapRemove(size_t idx);

  void clear() noexcept { size_ = 0; }

  // -- Batched scans (the covered() hot path) -------------------------

  /// Any stored zone ⊇ the query snapshot?
  [[nodiscard]] bool anySuperset(std::span<const raw_t> q) const;

  /// Remove every stored zone ⊆ the query (including equal ones) —
  /// the passed store's symmetric subsumption pruning. Returns the
  /// number removed.
  size_t pruneSubsets(std::span<const raw_t> q);

  /// Heap bytes the batch holds (its buffer's capacity).
  [[nodiscard]] size_t memoryBytes() const noexcept {
    return data_.capacity() * sizeof(raw_t);
  }

 private:
  [[nodiscard]] size_t stride() const noexcept { return elems_ * kLanes; }
  [[nodiscard]] raw_t* block(size_t b) noexcept {
    return data_.data() + b * stride();
  }
  [[nodiscard]] const raw_t* block(size_t b) const noexcept {
    return data_.data() + b * stride();
  }
  /// Contiguous row-major rows [kPrefixRows, dim) of lane `l` in block
  /// `b` (empty when dim <= kPrefixRows).
  [[nodiscard]] raw_t* tail(size_t b, size_t l) noexcept {
    return block(b) + prefixElems_ * kLanes + l * tailElems_;
  }
  [[nodiscard]] const raw_t* tail(size_t b, size_t l) const noexcept {
    return block(b) + prefixElems_ * kLanes + l * tailElems_;
  }
  [[nodiscard]] size_t numBlocks() const noexcept {
    return (size_ + kLanes - 1) / kLanes;
  }
  /// Bit i set ⇔ lane i of block b holds a live zone.
  [[nodiscard]] uint32_t liveMask(size_t b) const noexcept {
    const size_t full = size_ / kLanes;
    if (b < full) return 0xFFu;
    return (1u << (size_ - full * kLanes)) - 1;
  }

  uint32_t dim_ = 0;
  size_t elems_ = 0;
  size_t prefixElems_ = 0;
  size_t tailElems_ = 0;
  size_t size_ = 0;
  RawBuffer data_;
};

}  // namespace dbm
