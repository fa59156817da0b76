#include "dbm/simd.hpp"

#include <atomic>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define DBM_SIMD_X86 1
#endif

namespace dbm::simd {
namespace {

// Totals of the threads that have exited. A running thread tallies in
// its own OpTally: one shared counter ticked by every worker on every
// DBM operation costs more than the operation on a small zone.
std::atomic<size_t> g_vectorOps{0};
std::atomic<size_t> g_scalarOps{0};

struct OpTally {
  size_t vector = 0;
  size_t scalar = 0;
  ~OpTally() {
    g_vectorOps.fetch_add(vector, std::memory_order_relaxed);
    g_scalarOps.fetch_add(scalar, std::memory_order_relaxed);
  }
};
thread_local OpTally t_ops;

Level detect() noexcept {
#if defined(__aarch64__)
  return Level::kNeon;
#elif defined(DBM_SIMD_X86)
  return __builtin_cpu_supports("avx2") ? Level::kAvx2 : Level::kScalar;
#else
  return Level::kScalar;
#endif
}

std::atomic<Level> g_active{detect()};

// -- Scalar reference kernels ----------------------------------------------
// These are the semantics; the AVX2 paths below must match them bit for
// bit (including the overflow behaviour of boundAdd on near-kInfinity
// sums, which both paths share: sums of finite encoded bounds stay
// below INT32_MAX and anything above kInfinity loses every min()).

void rowMinPlusScalar(raw_t* dst, const raw_t* row, raw_t add,
                      size_t n) noexcept {
  for (size_t j = 0; j < n; ++j) {
    const raw_t r = row[j];
    if (r == kInfinity) continue;
    const raw_t via = (add + r) - ((add | r) & kWeakBit);
    if (via < dst[j]) dst[j] = via;
  }
}

bool rowsIncludeScalar(const raw_t* outer, const raw_t* inner,
                       size_t n) noexcept {
  for (size_t j = 0; j < n; ++j) {
    if (outer[j] < inner[j]) return false;
  }
  return true;
}

CompareResult rowCompareScalar(const raw_t* a, const raw_t* b,
                               size_t n) noexcept {
  CompareResult r;
  for (size_t j = 0; j < n; ++j) {
    if (a[j] < b[j]) r.anyLess = true;
    if (a[j] > b[j]) r.anyGreater = true;
    if (r.anyLess && r.anyGreater) break;
  }
  return r;
}

void rowMinEqScalar(raw_t* dst, const raw_t* src, size_t n) noexcept {
  for (size_t j = 0; j < n; ++j) {
    if (src[j] < dst[j]) dst[j] = src[j];
  }
}

uint32_t laneSupersetScalar(const raw_t* lanes, raw_t q,
                            uint32_t mask) noexcept {
  for (size_t i = 0; i < kLanes; ++i) {
    if (lanes[i] < q) mask &= ~(1u << i);
  }
  return mask;
}

uint32_t laneSubsetScalar(const raw_t* lanes, raw_t q,
                          uint32_t mask) noexcept {
  for (size_t i = 0; i < kLanes; ++i) {
    if (lanes[i] > q) mask &= ~(1u << i);
  }
  return mask;
}

// Once a scan is down to one surviving lane, the 8-lane compares read
// 8x the useful data; a strided single-lane tail touches only that
// zone's entries. The tails are shared by the scalar and AVX2 blocks.

uint32_t laneTailSuperset(const raw_t* blk, const raw_t* q, size_t e,
                          size_t elems, uint32_t mask) noexcept {
  const auto lane = static_cast<size_t>(__builtin_ctz(mask));
  for (; e < elems; ++e) {
    if (blk[e * kLanes + lane] < q[e]) return 0;
  }
  return mask;
}

uint32_t laneTailSubset(const raw_t* blk, const raw_t* q, size_t e,
                        size_t elems, uint32_t mask) noexcept {
  const auto lane = static_cast<size_t>(__builtin_ctz(mask));
  for (; e < elems; ++e) {
    if (blk[e * kLanes + lane] > q[e]) return 0;
  }
  return mask;
}

uint32_t blockSupersetScalar(const raw_t* blk, const raw_t* q, size_t elems,
                             uint32_t mask) noexcept {
  for (size_t e = 0; e < elems && mask != 0; ++e) {
    mask = laneSupersetScalar(blk + e * kLanes, q[e], mask);
    if ((mask & (mask - 1)) == 0 && mask != 0) {
      return laneTailSuperset(blk, q, e + 1, elems, mask);
    }
  }
  return mask;
}

uint32_t blockSubsetScalar(const raw_t* blk, const raw_t* q, size_t elems,
                           uint32_t mask) noexcept {
  for (size_t e = 0; e < elems && mask != 0; ++e) {
    mask = laneSubsetScalar(blk + e * kLanes, q[e], mask);
    if ((mask & (mask - 1)) == 0 && mask != 0) {
      return laneTailSubset(blk, q, e + 1, elems, mask);
    }
  }
  return mask;
}

#if defined(DBM_SIMD_X86)

// -- AVX2 kernels ----------------------------------------------------------
// Compiled with a function-level target attribute so the translation
// unit itself needs no -mavx2; the dispatcher only routes here after a
// positive CPUID check.

__attribute__((target("avx2"))) void rowMinPlusAvx2(raw_t* dst,
                                                    const raw_t* row,
                                                    raw_t add,
                                                    size_t n) noexcept {
  const __m256i addv = _mm256_set1_epi32(add);
  const __m256i inf = _mm256_set1_epi32(kInfinity);
  const __m256i one = _mm256_set1_epi32(kWeakBit);
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256i r = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(row + j));
    // via = (add + r) - ((add | r) & 1), with r == inf absorbing.
    __m256i via = _mm256_sub_epi32(
        _mm256_add_epi32(addv, r),
        _mm256_and_si256(_mm256_or_si256(addv, r), one));
    const __m256i isInf = _mm256_cmpeq_epi32(r, inf);
    via = _mm256_blendv_epi8(via, inf, isInf);
    __m256i* dp = reinterpret_cast<__m256i*>(dst + j);
    const __m256i d = _mm256_loadu_si256(dp);
    _mm256_storeu_si256(dp, _mm256_min_epi32(d, via));
  }
  if (j < n) {
    // The last n - j < 8 entries in one masked step: masked-out lanes
    // are neither read nor written. Zones over live clocks are mostly
    // narrower than 8, so this is often the whole row.
    const __m256i live = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(n - j)),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    const __m256i r = _mm256_maskload_epi32(row + j, live);
    __m256i via = _mm256_sub_epi32(
        _mm256_add_epi32(addv, r),
        _mm256_and_si256(_mm256_or_si256(addv, r), one));
    via = _mm256_blendv_epi8(via, inf, _mm256_cmpeq_epi32(r, inf));
    const __m256i d = _mm256_maskload_epi32(dst + j, live);
    _mm256_maskstore_epi32(dst + j, live, _mm256_min_epi32(d, via));
  }
}

__attribute__((target("avx2"))) bool rowsIncludeAvx2(const raw_t* outer,
                                                     const raw_t* inner,
                                                     size_t n) noexcept {
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256i o = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(outer + j));
    const __m256i in = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(inner + j));
    if (_mm256_movemask_epi8(_mm256_cmpgt_epi32(in, o)) != 0) return false;
  }
  return rowsIncludeScalar(outer + j, inner + j, n - j);
}

__attribute__((target("avx2"))) CompareResult
rowCompareAvx2(const raw_t* a, const raw_t* b, size_t n) noexcept {
  __m256i less = _mm256_setzero_si256();
  __m256i greater = _mm256_setzero_si256();
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256i av = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(a + j));
    const __m256i bv = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b + j));
    less = _mm256_or_si256(less, _mm256_cmpgt_epi32(bv, av));
    greater = _mm256_or_si256(greater, _mm256_cmpgt_epi32(av, bv));
  }
  CompareResult r;
  r.anyLess = _mm256_movemask_epi8(less) != 0;
  r.anyGreater = _mm256_movemask_epi8(greater) != 0;
  if (!(r.anyLess && r.anyGreater)) {
    const CompareResult tail = rowCompareScalar(a + j, b + j, n - j);
    r.anyLess = r.anyLess || tail.anyLess;
    r.anyGreater = r.anyGreater || tail.anyGreater;
  }
  return r;
}

__attribute__((target("avx2"))) void rowMinEqAvx2(raw_t* dst,
                                                  const raw_t* src,
                                                  size_t n) noexcept {
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256i* dp = reinterpret_cast<__m256i*>(dst + j);
    const __m256i d = _mm256_loadu_si256(dp);
    const __m256i s = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(src + j));
    _mm256_storeu_si256(dp, _mm256_min_epi32(d, s));
  }
  rowMinEqScalar(dst + j, src + j, n - j);
}

__attribute__((target("avx2"))) uint32_t
blockSupersetAvx2(const raw_t* blk, const raw_t* q, size_t elems,
                  uint32_t mask) noexcept {
  for (size_t e = 0; e < elems && mask != 0; ++e) {
    const __m256i lv = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(blk + e * kLanes));
    const __m256i lt = _mm256_cmpgt_epi32(_mm256_set1_epi32(q[e]), lv);
    mask &= ~static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(lt)));
    if ((mask & (mask - 1)) == 0 && mask != 0) {
      return laneTailSuperset(blk, q, e + 1, elems, mask);
    }
  }
  return mask;
}

__attribute__((target("avx2"))) uint32_t
blockSubsetAvx2(const raw_t* blk, const raw_t* q, size_t elems,
                uint32_t mask) noexcept {
  for (size_t e = 0; e < elems && mask != 0; ++e) {
    const __m256i lv = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(blk + e * kLanes));
    const __m256i gt = _mm256_cmpgt_epi32(lv, _mm256_set1_epi32(q[e]));
    mask &= ~static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(gt)));
    if ((mask & (mask - 1)) == 0 && mask != 0) {
      return laneTailSubset(blk, q, e + 1, elems, mask);
    }
  }
  return mask;
}

#endif  // DBM_SIMD_X86

inline bool useAvx2() noexcept {
#if defined(DBM_SIMD_X86)
  return g_active.load(std::memory_order_relaxed) == Level::kAvx2;
#else
  return false;
#endif
}

}  // namespace

const char* levelName(Level l) noexcept {
  switch (l) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
    case Level::kNeon:
      return "neon";
  }
  return "?";
}

Level detectedLevel() noexcept {
  static const Level d = detect();
  return d;
}

Level activeLevel() noexcept {
  return g_active.load(std::memory_order_relaxed);
}

void forceLevel(Level l) noexcept {
  const Level d = detectedLevel();
  g_active.store(static_cast<uint8_t>(l) <= static_cast<uint8_t>(d) ? l : d,
                 std::memory_order_relaxed);
}

size_t vectorOps() noexcept {
  return g_vectorOps.load(std::memory_order_relaxed) + t_ops.vector;
}

size_t scalarOps() noexcept {
  return g_scalarOps.load(std::memory_order_relaxed) + t_ops.scalar;
}

void resetCounters() noexcept {
  g_vectorOps.store(0, std::memory_order_relaxed);
  g_scalarOps.store(0, std::memory_order_relaxed);
  t_ops.vector = 0;
  t_ops.scalar = 0;
}

void noteOp() noexcept {
  if (activeLevel() == Level::kScalar) {
    ++t_ops.scalar;
  } else {
    ++t_ops.vector;
  }
}

void rowMinPlus(raw_t* dst, const raw_t* row, raw_t add, size_t n) noexcept {
#if defined(DBM_SIMD_X86)
  if (useAvx2()) {
    rowMinPlusAvx2(dst, row, add, n);
    return;
  }
#endif
  rowMinPlusScalar(dst, row, add, n);
}

bool rowsInclude(const raw_t* outer, const raw_t* inner, size_t n) noexcept {
#if defined(DBM_SIMD_X86)
  if (useAvx2()) return rowsIncludeAvx2(outer, inner, n);
#endif
  return rowsIncludeScalar(outer, inner, n);
}

CompareResult rowCompare(const raw_t* a, const raw_t* b, size_t n) noexcept {
#if defined(DBM_SIMD_X86)
  if (useAvx2()) return rowCompareAvx2(a, b, n);
#endif
  return rowCompareScalar(a, b, n);
}

void rowMinEq(raw_t* dst, const raw_t* src, size_t n) noexcept {
#if defined(DBM_SIMD_X86)
  if (useAvx2()) {
    rowMinEqAvx2(dst, src, n);
    return;
  }
#endif
  rowMinEqScalar(dst, src, n);
}

uint32_t blockSupersetMask(const raw_t* blk, const raw_t* q, size_t elems,
                           uint32_t mask) noexcept {
#if defined(DBM_SIMD_X86)
  if (useAvx2()) return blockSupersetAvx2(blk, q, elems, mask);
#endif
  return blockSupersetScalar(blk, q, elems, mask);
}

uint32_t blockSubsetMask(const raw_t* blk, const raw_t* q, size_t elems,
                         uint32_t mask) noexcept {
#if defined(DBM_SIMD_X86)
  if (useAvx2()) return blockSubsetAvx2(blk, q, elems, mask);
#endif
  return blockSubsetScalar(blk, q, elems, mask);
}

}  // namespace dbm::simd
