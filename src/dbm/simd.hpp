// Vectorized row kernels for the DBM substrate.
//
// Every hot DBM operation — Floyd–Warshall closure, inclusion,
// relation, batch-inclusion scans over a passed-store bucket — reduces
// to a handful of row primitives over contiguous raw_t arrays:
//
//   rowMinPlus   dst[j] = min(dst[j], add ⊕ row[j])   (close inner loop)
//   rowsInclude  ∀j: outer[j] >= inner[j]             (zone inclusion)
//   rowCompare   entrywise <,> summary                (Dbm::relation)
//   rowMinEq     dst[j] = min(dst[j], src[j])         (intersection)
//
// plus the 8-lane transposed block kernels ZoneBatch builds its
// structure-of-arrays scans on (blockSupersetMask / blockSubsetMask).
//
// Each primitive has a portable scalar implementation and an AVX2
// implementation compiled behind a function-level target attribute (so
// the baseline build still runs on pre-AVX2 hardware); NEON maps to the
// compiler's baseline auto-vectorization on aarch64. Dispatch is
// resolved once at startup from CPUID (compile-time when the whole
// build targets AVX2 anyway) and can be forced down to scalar at
// runtime — the roofline benchmarks measure both paths in one binary,
// and the Stats' SIMD-hit counters report which path served the search.
#pragma once

#include <cstddef>
#include <cstdint>

#include "dbm/bound.hpp"

namespace dbm::simd {

/// Instruction set the row kernels dispatch to.
enum class Level : uint8_t {
  kScalar = 0,  ///< portable fallback (also the forced roofline baseline)
  kAvx2 = 1,    ///< x86-64 AVX2, 8 x int32 lanes
  kNeon = 2,    ///< aarch64 NEON via compiler vectorization of the
                ///< scalar kernels (baseline on that architecture)
};

[[nodiscard]] const char* levelName(Level l) noexcept;

/// The best level this build + this CPU supports (detected once).
[[nodiscard]] Level detectedLevel() noexcept;

/// The level the kernels currently dispatch to (detected unless forced).
[[nodiscard]] Level activeLevel() noexcept;

/// Force dispatch at or below the detected level (benchmarks force
/// kScalar to measure the roofline baseline). Passing a level above
/// detectedLevel() clamps. Not thread-safe against in-flight kernels;
/// call from single-threaded setup/bench code only.
void forceLevel(Level l) noexcept;

// -- Kernel-hit counters ---------------------------------------------------
// Split by the path that served the work. Ticked once per DBM-level
// operation (close, inclusion scan, batch normalize...), NOT per row
// primitive. Each thread counts on its own and adds its counts to the
// process-wide totals when it exits; the getters return those totals
// plus the calling thread's own counts. The engines snapshot them
// around a run, after joining their workers, to report
// Stats.simdKernelOps / scalarKernelOps.

[[nodiscard]] size_t vectorOps() noexcept;
[[nodiscard]] size_t scalarOps() noexcept;
void resetCounters() noexcept;

/// Record one DBM-level operation against the active path's counter
/// (kScalar → scalarOps, anything vectorized → vectorOps).
void noteOp() noexcept;

// -- Row primitives --------------------------------------------------------

/// dst[j] = min(dst[j], boundAdd(add, row[j])) for j in [0, n).
/// `add` must be finite; infinity in row[] is absorbing (stays inf).
void rowMinPlus(raw_t* dst, const raw_t* row, raw_t add, size_t n) noexcept;

/// True iff outer[j] >= inner[j] for all j in [0, n)  (outer ⊇ inner
/// for canonical zones).
[[nodiscard]] bool rowsInclude(const raw_t* outer, const raw_t* inner,
                               size_t n) noexcept;

/// Entrywise comparison summary for Dbm::relation.
struct CompareResult {
  bool anyLess = false;     ///< some a[j] < b[j]
  bool anyGreater = false;  ///< some a[j] > b[j]
};
[[nodiscard]] CompareResult rowCompare(const raw_t* a, const raw_t* b,
                                       size_t n) noexcept;

/// dst[j] = min(dst[j], src[j]).
void rowMinEq(raw_t* dst, const raw_t* src, size_t n) noexcept;

// -- 8-lane transposed (structure-of-arrays) block scans -------------------
// `blk` holds `elems` consecutive 8-lane groups: group e is 8 raw_t
// holding matrix element e of 8 different zones (ZoneBatch's block
// layout). Masks are 8-bit, lane i = bit i. Each scan compares the
// groups against the row-major query `q`, pruning `mask`, and
// early-exits once the mask dies. One dispatch per whole block, not
// one per element: the per-call dispatch (atomic level load, branch,
// out-of-line call) costs more than the 8-lane compare it guards.

inline constexpr size_t kLanes = 8;

/// Bits of `mask` survive only for lanes whose zone dominates the query
/// on every element (stored ⊇ query, on this region).
[[nodiscard]] uint32_t blockSupersetMask(const raw_t* blk, const raw_t* q,
                                         size_t elems,
                                         uint32_t mask) noexcept;
/// Bits survive only for lanes dominated by the query on every element
/// (stored ⊆ query, on this region).
[[nodiscard]] uint32_t blockSubsetMask(const raw_t* blk, const raw_t* q,
                                       size_t elems, uint32_t mask) noexcept;

}  // namespace dbm::simd
