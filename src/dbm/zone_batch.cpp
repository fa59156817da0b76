#include "dbm/zone_batch.hpp"

#include <cstring>

#include "dbm/simd.hpp"

namespace dbm {

void ZoneBatch::push(std::span<const raw_t> raw) {
  assert(dim_ > 0 && raw.size() == elems_);
  const size_t b = size_ / kLanes;
  const size_t lane = size_ % kLanes;
  // Grow to the end of this lane's tail only. The block's full 8-lane
  // prefix comes with its first lane; later lanes only add their tails.
  const size_t end =
      b * stride() + prefixElems_ * kLanes + (lane + 1) * tailElems_;
  if (data_.size() < end) data_.resize(end, kZeroBound);
  raw_t* blk = block(b);
  for (size_t e = 0; e < prefixElems_; ++e) blk[e * kLanes + lane] = raw[e];
  std::memcpy(tail(b, lane), raw.data() + prefixElems_,
              tailElems_ * sizeof(raw_t));
  ++size_;
}

void ZoneBatch::copyTo(size_t idx, raw_t* out) const {
  assert(idx < size_);
  const size_t b = idx / kLanes;
  const size_t lane = idx % kLanes;
  const raw_t* blk = block(b);
  for (size_t e = 0; e < prefixElems_; ++e) out[e] = blk[e * kLanes + lane];
  std::memcpy(out + prefixElems_, tail(b, lane), tailElems_ * sizeof(raw_t));
}

Dbm ZoneBatch::zoneAt(size_t idx) const {
  RawBuffer buf(elems_);
  copyTo(idx, buf.data());
  return Dbm::fromSpan(dim_, {buf.data(), elems_});
}

void ZoneBatch::swapRemove(size_t idx) {
  assert(idx < size_);
  const size_t last = size_ - 1;
  if (idx != last) {
    raw_t* db = block(idx / kLanes);
    const raw_t* sb = block(last / kLanes);
    const size_t dl = idx % kLanes;
    const size_t sl = last % kLanes;
    for (size_t e = 0; e < prefixElems_; ++e) {
      db[e * kLanes + dl] = sb[e * kLanes + sl];
    }
    // Tails of distinct lanes never overlap, even within one block.
    std::memcpy(tail(idx / kLanes, dl), tail(last / kLanes, sl),
                tailElems_ * sizeof(raw_t));
  }
  --size_;
}

bool ZoneBatch::anySuperset(std::span<const raw_t> q) const {
  assert(q.size() == elems_);
  if (size_ == 0) return false;
  simd::noteOp();
  const raw_t* qTail = q.data() + prefixElems_;
  for (size_t b = 0, nb = numBlocks(); b < nb; ++b) {
    uint32_t m = simd::blockSupersetMask(block(b), q.data(), prefixElems_,
                                         liveMask(b));
    while (m != 0) {
      const size_t lane = static_cast<size_t>(__builtin_ctz(m));
      m &= m - 1;
      if (simd::rowsInclude(tail(b, lane), qTail, tailElems_)) return true;
    }
  }
  return false;
}

size_t ZoneBatch::pruneSubsets(std::span<const raw_t> q) {
  assert(q.size() == elems_);
  if (size_ == 0) return 0;
  simd::noteOp();
  const raw_t* qTail = q.data() + prefixElems_;
  size_t removed = 0;
  // Walk blocks back to front so swapRemove (which pulls from the
  // current tail) never moves a zone into an already-scanned slot.
  for (size_t b = numBlocks(); b-- > 0;) {
    uint32_t mask =
        simd::blockSubsetMask(block(b), q.data(), prefixElems_, liveMask(b));
    // Highest lane first, same reason as the block order.
    while (mask != 0) {
      const int lane = 31 - __builtin_clz(mask);
      mask &= ~(1u << lane);
      if (!simd::rowsInclude(qTail, tail(b, static_cast<size_t>(lane)),
                             tailElems_)) {
        continue;
      }
      swapRemove(b * kLanes + static_cast<size_t>(lane));
      ++removed;
    }
  }
  return removed;
}

}  // namespace dbm
