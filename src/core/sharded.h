// Lock-striped (sharded) hash maps — the concurrency backbone of the
// data-plane fast path.
//
// The paper's design choice 3 keeps forwarding devices on symmetric crypto
// so the data plane can run at line rate (§IV, §V-B); the matching software
// requirement is that per-packet state lookups never serialize on one lock.
// ShardedMap splits a hash map into N power-of-two shards, each guarded by
// its own shared_mutex, keyed by the entry hash. M worker threads touching
// pseudorandom keys (EphIDs, HIDs) contend only when they land on the same
// stripe, so throughput scales with cores instead of flatlining on a global
// mutex.
//
// Concurrency contract (see ARCHITECTURE.md "Concurrency model"):
//  * every member function is safe to call from any thread;
//  * find() returns a COPY of the value taken under the shard lock — holding
//    references into the map across calls is not supported;
//  * update() runs the caller's functor under the shard's exclusive lock, so
//    functors must be short and must not call back into the same map.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace apna::core {

/// Monotone per-AS generation counter — the invalidation channel between
/// the striped tables and the per-worker verified-flow caches
/// (core/flow_cache.h). Every mutation that can turn a cached EphID pass
/// into a drop (revocation, host de-registration or key replacement) bumps
/// the generation; cache entries record the generation they were verified
/// under, so one atomic increment invalidates every stale verdict in every
/// worker without touching the workers. Starts at 1: generation 0 is the
/// flow caches' "empty slot" marker.
class VerdictEpoch {
 public:
  std::uint64_t current() const { return gen_.load(std::memory_order_acquire); }

  /// Called AFTER the table mutation is visible (the tables are internally
  /// locked, so a worker that misses on the new generation re-reads them
  /// and observes the mutation).
  void bump() { gen_.fetch_add(1, std::memory_order_release); }

  /// Recovery-only: raises the generation to at least `gen` (monotone —
  /// never moves backwards). AsState::recover uses this to implement the
  /// one-bump contract: restored state is installed through non-bumping
  /// paths, then the epoch advances once past the snapshot's value so
  /// every worker FlowCache invalidates exactly once.
  void advance_to(std::uint64_t gen) {
    std::uint64_t cur = gen_.load(std::memory_order_relaxed);
    while (cur < gen &&
           !gen_.compare_exchange_weak(cur, gen, std::memory_order_release,
                                       std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<std::uint64_t> gen_{1};
};

/// Per-name generation counters — the invalidation channel between the DNS
/// zone (services/dns_zone.h) and the resolver caches that derive answers
/// from it (dns/dns_cache.h). VerdictEpoch's contract, split into a fixed
/// table of kSlots counters indexed by the name hash: a mutation bumps only
/// its name's slot, so it invalidates the cached answers of the names that
/// share that slot and leaves every other answer valid. Sharing a slot is
/// conservative (a bump kills both names' answers, never neither). The
/// slot count is a constant: 2¹⁶ × 8 B = 512 KiB per table.
///
/// Ordering, per slot: writers bump AFTER the mutation is visible; readers
/// read the slot BEFORE the table they derive from and stamp the derived
/// entry with that value, so a racing mutation leaves the entry stillborn.
class GenerationTable {
 public:
  static constexpr std::size_t kSlots = std::size_t{1} << 16;

  GenerationTable()
      : gens_(std::make_unique<std::atomic<std::uint64_t>[]>(kSlots)) {}

  /// The one name hash the zone and the resolver caches share: seeded
  /// FNV-1a + finalizer. Its users keep their bit ranges DISJOINT (HostDb
  /// convention): the table's slot reads bits 32..47, the resolver cache
  /// stripes on the TOP byte and probes its index on the LOW bits.
  static std::uint64_t hash(std::string_view name) {
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (const char c : name) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 1099511628211ull;
    }
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h;
  }

  static std::size_t slot(std::uint64_t name_hash) {
    return (name_hash >> 32) & (kSlots - 1);
  }

  std::uint64_t current(std::uint64_t name_hash) const {
    return gens_[slot(name_hash)].load(std::memory_order_acquire);
  }

  /// Called AFTER the mutation of the name is visible.
  void bump(std::uint64_t name_hash) {
    gens_[slot(name_hash)].fetch_add(1, std::memory_order_release);
  }

 private:
  std::unique_ptr<std::atomic<std::uint64_t>[]> gens_;
};

/// Default stripe count for per-AS forwarding state. 16 stripes keep
/// worst-case contention below ~1/16 of lookups for up to ~16 workers while
/// costing only 16 mutexes per table.
constexpr std::size_t kDefaultShardCount = 16;

/// Smallest power of two >= n (shard indexing uses `hash & mask`).
constexpr std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

template <class Key, class Value, class Hash = std::hash<Key>>
class ShardedMap {
 public:
  explicit ShardedMap(std::size_t shard_count = kDefaultShardCount)
      : count_(round_up_pow2(shard_count == 0 ? 1 : shard_count)),
        mask_(count_ - 1),
        shards_(std::make_unique<Shard[]>(count_)) {}

  /// Copy-out lookup under the shard's shared lock.
  std::optional<Value> find(const Key& key) const {
    const Shard& s = shard(key);
    std::shared_lock lock(s.mu);
    auto it = s.map.find(key);
    if (it == s.map.end()) return std::nullopt;
    return it->second;
  }

  bool contains(const Key& key) const {
    const Shard& s = shard(key);
    std::shared_lock lock(s.mu);
    return s.map.contains(key);
  }

  /// Best-effort prefetch of the stripe `key` hashes to (mutex word + map
  /// header share the stripe's cache lines). The burst pipelines issue this
  /// a few packets ahead of the actual lookup.
  void prefetch(const Key& key) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&shard(key));
#endif
  }

  /// Returns true when the key was newly inserted, false when an existing
  /// entry was replaced (callers use the distinction to decide whether the
  /// mutation can invalidate previously cached verdicts).
  bool insert_or_assign(const Key& key, Value value) {
    Shard& s = shard(key);
    std::unique_lock lock(s.mu);
    return s.map.insert_or_assign(key, std::move(value)).second;
  }

  bool erase(const Key& key) {
    Shard& s = shard(key);
    std::unique_lock lock(s.mu);
    return s.map.erase(key) != 0;
  }

  /// Runs `fn(value&)` under the shard's exclusive lock, default-inserting
  /// the entry via `make()` when absent. Returns fn's result. This is the
  /// read-modify-write primitive (replay-window accept, revocation counts).
  template <class MakeFn, class Fn>
  auto update(const Key& key, MakeFn make, Fn fn) {
    Shard& s = shard(key);
    std::unique_lock lock(s.mu);
    auto it = s.map.find(key);
    if (it == s.map.end()) it = s.map.emplace(key, make()).first;
    return fn(it->second);
  }

  /// Erases every entry for which `pred(key, value)` is true, one shard at a
  /// time (writers on other shards proceed meanwhile). Returns erase count.
  template <class Pred>
  std::size_t erase_if(Pred pred) {
    std::size_t erased = 0;
    for (std::size_t i = 0; i < count_; ++i) {
      Shard& s = shards_[i];
      std::unique_lock lock(s.mu);
      for (auto it = s.map.begin(); it != s.map.end();) {
        if (pred(it->first, it->second)) {
          it = s.map.erase(it);
          ++erased;
        } else {
          ++it;
        }
      }
    }
    return erased;
  }

  /// Visits every entry as `fn(key, value)` under each shard's shared
  /// lock, one stripe at a time (writers on other stripes proceed
  /// meanwhile). Snapshot iteration for the durability layer; `fn` must
  /// not call back into the same map.
  template <class Fn>
  void for_each(Fn fn) const {
    for (std::size_t i = 0; i < count_; ++i) {
      const Shard& s = shards_[i];
      std::shared_lock lock(s.mu);
      for (const auto& [k, v] : s.map) fn(k, v);
    }
  }

  /// Total entry count (sums shard sizes; a racing writer may make the
  /// result stale by the time it returns, like any concurrent counter).
  std::size_t size() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < count_; ++i) {
      std::shared_lock lock(shards_[i].mu);
      n += shards_[i].map.size();
    }
    return n;
  }

  std::size_t shard_count() const { return count_; }

  /// Per-stripe occupancy and approximate footprint — the raw input for
  /// memory accounting (HostDb::memory_stats, RevocationList::memory_bytes)
  /// and for stripe-balance diagnostics in the scenario engine. `bytes` is
  /// an estimate: unordered_map's node and bucket overheads are not
  /// observable portably, so each entry is costed at its pair size plus
  /// kNodeOverheadBytes and each bucket at one pointer. An estimate with a
  /// stated model beats a guess with none.
  struct StripeStats {
    std::size_t entries = 0;
    std::size_t buckets = 0;
    std::size_t bytes = 0;
  };

  /// Modeled per-node overhead: the forward pointer of the bucket chain
  /// plus one allocator header per node (libstdc++ node = ptr + hash cache;
  /// 24 covers the common ABIs without flattering any of them).
  static constexpr std::size_t kNodeOverheadBytes = 24;

  StripeStats stripe_stats(std::size_t i) const {
    const Shard& s = shards_[i];
    std::shared_lock lock(s.mu);
    StripeStats st;
    st.entries = s.map.size();
    st.buckets = s.map.bucket_count();
    st.bytes = sizeof(Shard) +
               st.entries * (sizeof(std::pair<const Key, Value>) +
                             kNodeOverheadBytes) +
               st.buckets * sizeof(void*);
    return st;
  }

  std::vector<StripeStats> stripe_stats() const {
    std::vector<StripeStats> all(count_);
    for (std::size_t i = 0; i < count_; ++i) all[i] = stripe_stats(i);
    return all;
  }

  /// Approximate total footprint across all stripes (sum of stripe bytes).
  std::size_t approx_memory_bytes() const {
    std::size_t total = sizeof(ShardedMap);
    for (std::size_t i = 0; i < count_; ++i) total += stripe_stats(i).bytes;
    return total;
  }

 private:
  /// Cache-line aligned so two stripes never false-share.
  struct alignas(64) Shard {
    mutable std::shared_mutex mu;
    std::unordered_map<Key, Value, Hash> map;
  };

  Shard& shard(const Key& key) { return shards_[Hash{}(key)&mask_]; }
  const Shard& shard(const Key& key) const {
    return shards_[Hash{}(key)&mask_];
  }

  std::size_t count_;
  std::size_t mask_;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace apna::core
