// Passed/waiting stores for the reachability engine.
//
// `PassedStore` is UPPAAL's PWList rebuilt as a flat open-addressing
// table: one linear-probing slot array (parallel hash/entry-index
// vectors, so a probe walks a single cache stream) keyed by the
// hash-consed discrete-state id from `StateInterner`, with each
// bucket's zones held in one contiguous `ZoneBatch` arena, so a
// covered() scan streams one buffer instead of chasing per-zone heap
// allocations. Subsumption pruning is symmetric: a newly inserted zone
// drops every stored zone it covers.
//
// `BitTable` is Holzmann's two-bit bit-state hash table (untouched by
// the flat-store rewrite). `ShardedPassedStore` wraps 2^shardBits
// independently-locked PassedStores for the parallel engines: the
// shard is picked from DiscreteState::hash(), so all zones of one
// discrete state land in one shard and the covered-check/insert pair
// stays atomic under that shard's lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "dbm/dbm.hpp"
#include "dbm/zone_batch.hpp"
#include "engine/interner.hpp"
#include "engine/state.hpp"

namespace engine {

/// Passed/waiting store with zone-inclusion checking (UPPAAL's PWList).
/// Discrete keys live in the interner; the store holds their 32-bit ids.
class PassedStore {
 public:
  explicit PassedStore(StateInterner& interner) : interner_(&interner) {}

  [[nodiscard]] bool covered(const DiscreteState& d, const dbm::Dbm& z) const {
    return coveredHashed(d, z, d.hash());
  }

  /// covered() with a precomputed DiscreteState::hash() (the sharded
  /// wrapper already derived the shard from it).
  [[nodiscard]] bool coveredHashed(const DiscreteState& d, const dbm::Dbm& z,
                                   uint64_t h) const {
    ++lookups_;
    const Entry* e = find(d, h);
    // One SoA scan over the bucket's ZoneBatch.
    return e != nullptr && e->zones.anySuperset(z.rawData());
  }

  /// Insert the zone under the interned discrete state `did`. The
  /// caller has already established it is not covered.
  void insert(uint32_t did, const dbm::Dbm& z) {
    insertHashed(did, z, interner_->hashOf(did));
  }

  void insertHashed(uint32_t did, const dbm::Dbm& z, uint64_t h) {
    Entry& e = findOrCreate(did, h);
    // Account the batch's buffer as held: growth slack and dead-lane
    // prefix rows included (the buffer never shrinks).
    const size_t heldBefore = e.zones.memoryBytes();
    e.zones.init(z.dimension());
    // Drop stored zones the new one subsumes (one SoA scan; swap-remove
    // keeps the blocks dense).
    zones_ -= e.zones.pruneSubsets(z.rawData());
    e.zones.push(z);
    ++zones_;
    bytes_ += e.zones.memoryBytes() - heldBefore;
  }

  [[nodiscard]] size_t bytes() const noexcept { return bytes_; }
  /// Stored zones (the engine's storedZones; subsumption pruning
  /// shrinks it).
  [[nodiscard]] size_t states() const noexcept { return zones_; }
  /// Distinct discrete buckets in the table.
  [[nodiscard]] size_t entryCount() const noexcept { return entries_.size(); }
  [[nodiscard]] size_t lookups() const noexcept { return lookups_; }
  [[nodiscard]] size_t probeSteps() const noexcept { return probeSteps_; }

  [[nodiscard]] StateInterner& interner() const noexcept { return *interner_; }

 private:
  /// Estimated fixed cost of one discrete bucket beyond its vectors.
  static constexpr size_t kEntryOverhead = 32;

  struct Entry {
    uint64_t hash = 0;
    uint32_t key = 0;  ///< intern id of the discrete part
    /// The bucket's zones in SoA form (8-lane blocks).
    dbm::ZoneBatch zones;
  };

  [[nodiscard]] const Entry* find(const DiscreteState& d, uint64_t h) const {
    if (entries_.empty()) return nullptr;
    const size_t mask = slotEntry_.size() - 1;
    for (size_t pos = h & mask;; pos = (pos + 1) & mask) {
      ++probeSteps_;
      const uint32_t se = slotEntry_[pos];
      if (se == 0) return nullptr;
      if (slotHash_[pos] == h && interner_->get(entries_[se - 1].key) == d) {
        return &entries_[se - 1];
      }
    }
  }

  [[nodiscard]] Entry& findOrCreate(uint32_t did, uint64_t h) {
    if ((entries_.size() + 1) * 8 >= slotEntry_.size() * 7) growTable();
    const size_t mask = slotEntry_.size() - 1;
    size_t pos = h & mask;
    for (;; pos = (pos + 1) & mask) {
      ++probeSteps_;
      const uint32_t se = slotEntry_[pos];
      if (se == 0) break;
      // Equal states share one interned id.
      if (entries_[se - 1].key == did) return entries_[se - 1];
    }
    slotHash_[pos] = h;
    slotEntry_[pos] = static_cast<uint32_t>(entries_.size()) + 1;
    Entry e;
    e.hash = h;
    e.key = did;
    entries_.push_back(std::move(e));
    bytes_ += sizeof(Entry) + kEntryOverhead;
    return entries_.back();
  }

  void growTable() {
    const size_t old = slotEntry_.size();
    const size_t next = old == 0 ? 1024 : old * 2;
    slotHash_.assign(next, 0);
    slotEntry_.assign(next, 0);
    bytes_ += (next - old) * (sizeof(uint64_t) + sizeof(uint32_t));
    const size_t mask = next - 1;
    for (size_t k = 0; k < entries_.size(); ++k) {
      size_t pos = entries_[k].hash & mask;
      while (slotEntry_[pos] != 0) pos = (pos + 1) & mask;
      slotHash_[pos] = entries_[k].hash;
      slotEntry_[pos] = static_cast<uint32_t>(k) + 1;
    }
  }

  StateInterner* interner_;

  // Open-addressing slot arrays (parallel so probes stream one buffer;
  // power-of-two size, linear probing, grown at 7/8 load).
  std::vector<uint64_t> slotHash_;
  std::vector<uint32_t> slotEntry_;  ///< entry index + 1; 0 = empty
  std::vector<Entry> entries_;

  size_t zones_ = 0;
  size_t bytes_ = 0;
  // Mutable: covered() is logically const; the sequential engines own
  // the store outright and the sharded wrapper serializes per shard.
  mutable size_t lookups_ = 0;
  mutable size_t probeSteps_ = 0;
};

/// Holzmann-style two-bit bit-state hash table. The words are relaxed
/// atomics so the table can be shared by the work-stealing DFS workers:
/// two threads may both see a state as unseen and both explore it — a
/// benign duplication that cannot flip the (already inconclusive-on-
/// negative) bit-state verdict, and never a data race.
class BitTable {
 public:
  explicit BitTable(uint32_t bits)
      : mask_((size_t{1} << bits) - 1),
        nwords_((size_t{1} << bits) / 64 + 1),
        words_(new std::atomic<uint64_t>[nwords_]) {
    for (size_t i = 0; i < nwords_; ++i) {
      words_[i].store(0, std::memory_order_relaxed);
    }
  }

  /// `zoneHash` hashes s.zone. The engines pass
  /// SuccessorGenerator::fullWidthHash, so which states collide does
  /// not depend on which clocks a zone keeps.
  [[nodiscard]] bool testAndSet(const SymbolicState& s, size_t zoneHash) {
    // Two probes from independently seeded hashes — see
    // SymbolicState::fullHash2() for why deriving both positions from
    // one hash value would break the two-bit scheme.
    const size_t h1 = s.fullHash(zoneHash) & mask_;
    const size_t h2 = s.fullHash2(zoneHash) & mask_;
    const bool seen = get(h1) && get(h2);
    set(h1);
    set(h2);
    return seen;
  }

  [[nodiscard]] size_t bytes() const noexcept {
    return nwords_ * sizeof(uint64_t);
  }

 private:
  [[nodiscard]] bool get(size_t i) const {
    return (words_[i >> 6].load(std::memory_order_relaxed) >> (i & 63)) & 1;
  }
  void set(size_t i) {
    words_[i >> 6].fetch_or(uint64_t{1} << (i & 63),
                            std::memory_order_relaxed);
  }

  size_t mask_;
  size_t nwords_;
  std::unique_ptr<std::atomic<uint64_t>[]> words_;
};

/// N = 2^shardBits independently-locked PassedStores for the parallel
/// explorer. Lock scope is one shard, so threads working on different
/// discrete-state hash slices never contend. The interner is shared
/// across shards (it has its own internal sharding); interning happens
/// under the store shard's lock only for states that survive the
/// covered check, and the shard-then-interner lock order is acyclic.
class ShardedPassedStore {
 public:
  ShardedPassedStore(uint32_t shardBits, StateInterner& interner)
      : interner_(&interner), mask_((size_t{1} << shardBits) - 1) {
    const size_t n = size_t{1} << shardBits;
    shards_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      shards_.push_back(std::make_unique<Shard>(interner));
    }
  }

  /// Atomic covered-check + insert under the owning shard's lock.
  /// Returns the interned id of the newly stored state, or
  /// StateInterner::kNoId when it was already covered.
  [[nodiscard]] uint32_t testAndInsert(const SymbolicState& s) {
    const uint64_t h = s.d.hash();
    Shard& sh = *shards_[shardOf(h)];
    std::unique_lock<std::mutex> lk(sh.m, std::try_to_lock);
    if (!lk.owns_lock()) {
      contention_.fetch_add(1, std::memory_order_relaxed);
      lk.lock();
    }
    if (sh.store.coveredHashed(s.d, s.zone, h)) return StateInterner::kNoId;
    const uint32_t id = interner_->intern(s.d, h);
    sh.store.insertHashed(id, s.zone, h);
    sh.bytes.store(sh.store.bytes(), std::memory_order_relaxed);
    return id;
  }

  // Aggregates lock shard-by-shard; exact when no insert is racing
  // (the engine reads them at level barriers / after the join).
  [[nodiscard]] size_t bytes() const { return sum(&PassedStore::bytes); }
  [[nodiscard]] size_t states() const { return sum(&PassedStore::states); }
  [[nodiscard]] size_t lookups() const { return sum(&PassedStore::lookups); }
  [[nodiscard]] size_t probeSteps() const {
    return sum(&PassedStore::probeSteps);
  }

  /// Lock-free byte total, from the per-shard totals testAndInsert
  /// leaves behind. The work-stealing DFS consults this for its memory
  /// cut-off, where locking all shards via bytes() would serialize the
  /// workers.
  [[nodiscard]] size_t approxBytes() const noexcept {
    size_t n = 0;
    for (const auto& sh : shards_) {
      n += sh->bytes.load(std::memory_order_relaxed);
    }
    return n;
  }

  /// try_lock failures on the shard locks so far.
  [[nodiscard]] size_t lockContention() const noexcept {
    return contention_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] size_t numShards() const noexcept { return shards_.size(); }

 private:
  // One cache line per shard header so neighbouring locks don't false-share.
  struct alignas(64) Shard {
    explicit Shard(StateInterner& interner) : store(interner) {}
    mutable std::mutex m;
    /// store.bytes() as of the last insert, for approxBytes(): one
    /// counter per shard, so inserting threads never write a shared one.
    std::atomic<size_t> bytes{0};
    PassedStore store;
  };

  [[nodiscard]] size_t shardOf(size_t h) const noexcept {
    // The flat table inside each shard consumes the low bits of the
    // same hash; take the shard index from remixed high bits.
    return ((h * 0x9e3779b97f4a7c15ull) >> 32) & mask_;
  }

  [[nodiscard]] size_t sum(size_t (PassedStore::*fn)() const noexcept) const {
    size_t n = 0;
    for (const auto& sh : shards_) {
      std::lock_guard<std::mutex> lk(sh->m);
      n += (sh->store.*fn)();
    }
    return n;
  }

  StateInterner* interner_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<size_t> contention_{0};
  size_t mask_;
};

}  // namespace engine
