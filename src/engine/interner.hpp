// Hash-consing arena for discrete states.
//
// Every distinct (location vector, variable valuation) pair is stored
// exactly once and identified by a dense 32-bit id; the engines'
// waiting deques, DFS frames and trace parents carry the id instead of
// vector copies, and the passed store keys its flat table by it.
//
// Thread-safety: `intern` takes one of 16 shard mutexes (the shard is
// picked from the state hash, so unrelated states never contend);
// `get`/`hashOf` are lock-free. Lock-free reads are sound because an id
// only reaches another thread through a synchronizing channel — the
// parallel BFS level barrier (thread join), a work-stealing stack
// mutex, or the work-stealing goal mutex — each of which orders the
// interning writes before the read; the chunk-pointer acquire load
// additionally orders the chunk allocation itself for readers (stats
// scans) that hold no such channel.
//
// Storage is chunked: each shard owns a fixed-size array of atomic
// chunk pointers and allocates 4096-entry chunks on demand, so entry
// addresses are stable for the lifetime of the interner and `get`
// never races with a growing spine.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "engine/state.hpp"

namespace engine {

class StateInterner {
 public:
  /// Sentinel for "no state" — e.g. a covered testAndInsert.
  static constexpr uint32_t kNoId = 0xffffffffu;

  /// Equal states share one entry and one id.
  StateInterner() = default;

  StateInterner(const StateInterner&) = delete;
  StateInterner& operator=(const StateInterner&) = delete;

  ~StateInterner() {
    for (Shard& sh : shards_) {
      for (auto& c : sh.chunks) delete c.load(std::memory_order_relaxed);
    }
  }

  [[nodiscard]] uint32_t intern(const DiscreteState& d) {
    return intern(d, d.hash());
  }

  /// Intern with a precomputed DiscreteState::hash() (the passed store
  /// already has it in hand).
  [[nodiscard]] uint32_t intern(const DiscreteState& d, uint64_t h) {
    Shard& sh = shards_[h & kShardMask];
    std::lock_guard<std::mutex> lk(sh.m);
    if (!sh.table.empty()) {
      const size_t mask = sh.table.size() - 1;
      for (size_t pos = (h >> kShardBits) & mask;;
           pos = (pos + 1) & mask) {
        const uint32_t slot = sh.table[pos];
        if (slot == 0) break;
        const Item& it = itemAt(sh, slot - 1);
        if (it.hash == h && it.d == d) {
          add(sh.hits, 1);
          return makeId(slot - 1, h);
        }
      }
    }
    return append(sh, d, h);
  }

  /// The interned state. Lock-free; see the header comment for why.
  [[nodiscard]] const DiscreteState& get(uint32_t id) const noexcept {
    return item(id).d;
  }

  /// The state's DiscreteState::hash(), memoized at intern time.
  [[nodiscard]] uint64_t hashOf(uint32_t id) const noexcept {
    return item(id).hash;
  }

  /// Entries in the arena (distinct states).
  [[nodiscard]] size_t size() const noexcept {
    size_t n = 0;
    for (const Shard& sh : shards_) {
      n += sh.count.load(std::memory_order_acquire);
    }
    return n;
  }

  /// intern() calls answered from an existing entry.
  [[nodiscard]] size_t hits() const noexcept { return sum(&Shard::hits); }

  [[nodiscard]] size_t bytes() const noexcept { return sum(&Shard::bytes); }

 private:
  static constexpr uint32_t kShardBits = 4;
  static constexpr uint32_t kShardMask = (1u << kShardBits) - 1;
  static constexpr uint32_t kChunkShift = 12;
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;  // entries/chunk
  static constexpr uint32_t kMaxChunks = 1024;  // 4M entries per shard

  struct Item {
    DiscreteState d;
    uint64_t hash = 0;
  };
  using Chunk = std::array<Item, kChunkSize>;

  struct alignas(64) Shard {
    std::mutex m;
    std::vector<uint32_t> table;  ///< local index + 1; 0 = empty
    std::atomic<uint32_t> count{0};
    /// Written under `m`, read lock-free by hits() / bytes(). Kept per
    /// shard, so threads interning into different shards never write
    /// one counter.
    std::atomic<size_t> hits{0};
    std::atomic<size_t> bytes{0};
    std::array<std::atomic<Chunk*>, kMaxChunks> chunks{};
  };

  [[nodiscard]] static uint32_t makeId(uint32_t localIdx,
                                       uint64_t h) noexcept {
    return (localIdx << kShardBits) | static_cast<uint32_t>(h & kShardMask);
  }

  [[nodiscard]] static const Item& itemAt(const Shard& sh,
                                          uint32_t localIdx) noexcept {
    const Chunk* c =
        sh.chunks[localIdx >> kChunkShift].load(std::memory_order_acquire);
    return (*c)[localIdx & (kChunkSize - 1)];
  }

  [[nodiscard]] const Item& item(uint32_t id) const noexcept {
    assert(id != kNoId);
    return itemAt(shards_[id & kShardMask], id >> kShardBits);
  }

  uint32_t append(Shard& sh, const DiscreteState& d, uint64_t h) {
    const uint32_t idx = sh.count.load(std::memory_order_relaxed);
    assert(idx < kMaxChunks * kChunkSize && "interner arena exhausted");
    auto& slot = sh.chunks[idx >> kChunkShift];
    Chunk* c = slot.load(std::memory_order_relaxed);
    if (c == nullptr) {
      c = new Chunk();
      slot.store(c, std::memory_order_release);
      add(sh.bytes, sizeof(Chunk));
    }
    Item& it = (*c)[idx & (kChunkSize - 1)];
    it.d = d;
    it.hash = h;
    add(sh.bytes, d.memoryBytes());
    sh.count.store(idx + 1, std::memory_order_release);
    if ((idx + 1) * 8 >= sh.table.size() * 7) {
      grow(sh);  // the rehash picks up the entry appended above
    } else {
      const size_t mask = sh.table.size() - 1;
      size_t pos = (h >> kShardBits) & mask;
      while (sh.table[pos] != 0) pos = (pos + 1) & mask;
      sh.table[pos] = idx + 1;
    }
    return makeId(idx, h);
  }

  void grow(Shard& sh) {
    const size_t old = sh.table.size();
    const size_t next = old == 0 ? 256 : old * 2;
    sh.table.assign(next, 0);
    add(sh.bytes, (next - old) * sizeof(uint32_t));
    const size_t mask = next - 1;
    const uint32_t n = sh.count.load(std::memory_order_relaxed);
    for (uint32_t k = 0; k < n; ++k) {
      size_t pos = (itemAt(sh, k).hash >> kShardBits) & mask;
      while (sh.table[pos] != 0) pos = (pos + 1) & mask;
      sh.table[pos] = k + 1;
    }
  }

  /// Bump a counter of a shard whose lock the caller holds.
  static void add(std::atomic<size_t>& c, size_t v) noexcept {
    c.store(c.load(std::memory_order_relaxed) + v, std::memory_order_relaxed);
  }

  [[nodiscard]] size_t sum(
      std::atomic<size_t> Shard::*counter) const noexcept {
    size_t n = 0;
    for (const Shard& sh : shards_) {
      n += (sh.*counter).load(std::memory_order_relaxed);
    }
    return n;
  }

  std::array<Shard, kShardMask + 1> shards_;
};

}  // namespace engine
