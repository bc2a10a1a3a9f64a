// Sharded DNS TTL cache with negative caching — the resolver's hot store.
//
// ROADMAP item 2 sizes the resolver for millions of names; the cache is
// where that budget lives, so it follows core/host_db.h rather than a
// node-based map: lock-striped stripes (core/sharded.h layout, alignas(64),
// power-of-two count), fixed-size slots in flat vectors, an open-addressing
// index with backward-shift deletion (no tombstone rot under storm churn),
// names copied once into per-stripe size-class slab arenas and records into
// fixed-POD slabs. MemoryStats reports the modeled footprint and
// bytes-per-name exactly like HostDb::memory_stats — bench_e7_dns asserts
// the budget at 10⁶ entries.
//
// Negative caching (§VII-A NXDOMAIN answers) with two hard bounds the
// flood path cannot break:
//  * TTL bound: negative entries are clamped to Config::max_negative_ttl
//    no matter what the caller asks for;
//  * occupancy bound: at most Config::negative_percent of each stripe holds
//    negatives, and a negative insert NEVER evicts a positive — when the
//    stripe is full of positives the negative is simply not cached
//    (negative_uncached). A random-name storm therefore churns only its own
//    bounded slice and the positive hit rate recovers the moment it stops.
//
// Invalidation: entries are stamped with their name's slot in the zone's
// core::GenerationTable AS OBSERVED BEFORE THE ZONE READ (the flow-cache
// rule — stamping at insert time would let a racing zone update hide
// behind a fresh stamp). lookup() reads that slot before it probes and, on
// a miss, hands the value back for the caller to stamp its fill with, so
// the one name hash serves stripe, index and generation. A lookup whose
// entry carries a stale generation erases it and reports a miss
// (stale_gen): a zone put/erase invalidates the derived answers,
// positive and negative, of the names in its slot and no others.
//
// Every member function is thread-safe. Lookups take the stripe mutex
// exclusively (LRU reordering mutates on read, same trade as HostDb's
// schedule updates).
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "core/messages.h"
#include "core/sharded.h"
#include "util/bytes.h"
#include "util/counters.h"

namespace apna::dns {

/// Fixed-size payload of a positive entry — everything in core::DnsRecord
/// except the name, which lives in the stripe's name arena.
struct CompactDnsRecord {
  core::EphIdCertificate cert;
  crypto::Ed25519Signature sig;
  std::uint32_t ipv4 = 0;
};
static_assert(sizeof(CompactDnsRecord) <= 256,
              "DNS record slab class outgrew its budget — rethink before "
              "silently inflating the per-name footprint");

class DnsCache {
 public:
  struct Config {
    /// Total slots across all stripes (positives + negatives). The index
    /// arrays are allocated eagerly (2x capacity), so size to the
    /// deployment: bench_e7_dns runs at 1<<20, per-AS resolvers default
    /// smaller.
    std::size_t capacity = 1u << 16;
    std::size_t shard_count = core::kDefaultShardCount;
    /// Hard TTL clamp for NXDOMAIN entries, seconds.
    core::ExpTime max_negative_ttl = 30;
    /// Hard occupancy clamp for NXDOMAIN entries, percent of each stripe.
    std::uint32_t negative_percent = 25;
  };

  /// Plain copyable counters — what stats() returns.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t negative_hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t expired = 0;            // TTL-lapsed entries dropped on read
    std::uint64_t stale_gen = 0;          // zone slot bumped since the fill
    std::uint64_t insertions = 0;
    std::uint64_t negative_insertions = 0;
    std::uint64_t evictions = 0;          // positives displaced (LRU)
    std::uint64_t negative_evictions = 0; // negatives displaced (LRU/cap)
    std::uint64_t negative_uncached = 0;  // negatives refused (stripe full)
  };

  /// Modeled memory accounting (HostDb::MemoryStats convention: reserved
  /// bytes, not malloc metadata).
  struct MemoryStats {
    std::uint64_t entries = 0;
    std::uint64_t negative_entries = 0;
    std::uint64_t slot_bytes = 0;    // slot vectors (flat, reserved)
    std::uint64_t index_bytes = 0;   // open-addressing hash + slot arrays
    std::uint64_t name_bytes = 0;    // size-class name slabs
    std::uint64_t record_bytes = 0;  // CompactDnsRecord slabs
    std::uint64_t fixed_bytes = 0;   // stripe headers + this object

    std::uint64_t total() const {
      return slot_bytes + index_bytes + name_bytes + record_bytes +
             fixed_bytes;
    }
    double bytes_per_name() const {
      return entries == 0 ? 0.0
                          : static_cast<double>(total()) /
                                static_cast<double>(entries);
    }
  };

  enum class Outcome : std::uint8_t { miss = 0, hit = 1, negative = 2 };

  /// `zone_gens` is the zone's per-name generation table
  /// (services::DnsZone::generations()); the cache only reads it on
  /// lookups.
  DnsCache(const Config& cfg, const core::GenerationTable& zone_gens)
      : cfg_(cfg),
        gens_(zone_gens),
        count_(core::round_up_pow2(
            cfg.shard_count == 0 ? 1 : cfg.shard_count)),
        mask_(count_ - 1),
        stripes_(std::make_unique<Stripe[]>(count_)) {
    const std::size_t per = (cfg_.capacity + count_ - 1) / count_;
    slot_cap_ = per < 4 ? 4 : per;
    neg_cap_ = slot_cap_ * cfg_.negative_percent / 100;
    if (neg_cap_ == 0) neg_cap_ = 1;
    index_size_ = core::round_up_pow2(2 * slot_cap_);
    for (std::size_t i = 0; i < count_; ++i) {
      Stripe& s = stripes_[i];
      s.idx_hash.assign(index_size_, 0);
      s.idx_slot.assign(index_size_, kEmpty);
    }
  }

  /// Positive/negative/miss. On a positive hit, fills `*out` (name, cert,
  /// ipv4, signature) when `out` is non-null. Expired and stale-generation
  /// entries are erased on the way and reported as misses. `*gen_out`,
  /// when non-null, receives the name's generation read before the probe —
  /// the stamp for the caller's fill after a miss.
  Outcome lookup(std::string_view name, core::ExpTime now,
                 core::DnsRecord* out, std::uint64_t* gen_out = nullptr) {
    const std::uint64_t h = core::GenerationTable::hash(name);
    Stripe& s = stripe(h);
    const std::uint64_t gen = gens_.current(h);
    if (gen_out) *gen_out = gen;
    std::lock_guard lock(s.mu);
    const std::size_t i = index_find(s, h, name);
    if (i == kNotFound) {
      counters_.add<&Stats::misses>();
      return Outcome::miss;
    }
    const std::uint32_t slot = s.idx_slot[i];
    Slot& e = s.slots[slot];
    if (e.gen != gen) {
      erase_entry(s, i, slot);
      counters_.add<&Stats::stale_gen>();
      counters_.add<&Stats::misses>();
      return Outcome::miss;
    }
    if (e.expires_at <= now) {
      erase_entry(s, i, slot);
      counters_.add<&Stats::expired>();
      counters_.add<&Stats::misses>();
      return Outcome::miss;
    }
    const bool negative = (e.flags & kNegative) != 0;
    lru_touch(s, negative ? s.neg : s.pos, slot);
    if (negative) {
      counters_.add<&Stats::negative_hits>();
      return Outcome::negative;
    }
    if (out) {
      const CompactDnsRecord& rec = record_at(s, e.rec_index);
      out->name.assign(name_at(s, e.name_off), e.name_len);
      out->cert = rec.cert;
      out->ipv4 = rec.ipv4;
      out->sig = rec.sig;
    }
    counters_.add<&Stats::hits>();
    return Outcome::hit;
  }

  /// Caches a positive answer. `gen` is the name's generation the caller
  /// observed BEFORE reading the zone (lookup()'s `*gen_out`). Replaces any
  /// existing entry for the name; evicts the LRU negative first, then the
  /// LRU positive, when the stripe is full.
  void insert(std::string_view name, const core::DnsRecord& rec,
              core::ExpTime expires_at, std::uint64_t gen) {
    if (name.empty() || name.size() > kMaxNameBytes) return;
    const std::uint64_t h = core::GenerationTable::hash(name);
    Stripe& s = stripe(h);
    std::lock_guard lock(s.mu);
    drop_existing(s, h, name);
    if (s.entries == slot_cap_) {
      if (s.neg.tail >= 0)
        evict(s, s.neg, true);
      else
        evict(s, s.pos, false);
    }
    const std::uint32_t slot = alloc_slot(s);
    Slot& e = s.slots[slot];
    e.name_hash = h;
    e.gen = gen;
    e.expires_at = expires_at;
    e.name_len = static_cast<std::uint16_t>(name.size());
    e.name_off = name_alloc(s, name);
    e.rec_index = rec_alloc(s);
    CompactDnsRecord& c = record_at(s, e.rec_index);
    c.cert = rec.cert;
    c.sig = rec.sig;
    c.ipv4 = rec.ipv4;
    e.flags = 0;
    index_insert(s, h, slot);
    lru_push_front(s, s.pos, slot);
    ++s.entries;
    counters_.add<&Stats::insertions>();
  }

  /// Caches an NXDOMAIN answer with TTL min(ttl, max_negative_ttl). Never
  /// evicts a positive: when the stripe has no negative slot to reuse and
  /// no free capacity, the answer is simply not cached.
  void insert_negative(std::string_view name, core::ExpTime now,
                       core::ExpTime ttl, std::uint64_t gen) {
    if (name.empty() || name.size() > kMaxNameBytes) return;
    const core::ExpTime bounded =
        ttl < cfg_.max_negative_ttl ? ttl : cfg_.max_negative_ttl;
    const std::uint64_t h = core::GenerationTable::hash(name);
    Stripe& s = stripe(h);
    std::lock_guard lock(s.mu);
    drop_existing(s, h, name);
    if (s.neg_entries >= neg_cap_) evict(s, s.neg, true);
    if (s.entries == slot_cap_) {
      if (s.neg.tail < 0) {
        counters_.add<&Stats::negative_uncached>();
        return;
      }
      evict(s, s.neg, true);
    }
    const std::uint32_t slot = alloc_slot(s);
    Slot& e = s.slots[slot];
    e.name_hash = h;
    e.gen = gen;
    e.expires_at = now + bounded;
    e.name_len = static_cast<std::uint16_t>(name.size());
    e.name_off = name_alloc(s, name);
    e.rec_index = kEmpty;
    e.flags = kNegative;
    index_insert(s, h, slot);
    lru_push_front(s, s.neg, slot);
    ++s.entries;
    ++s.neg_entries;
    counters_.add<&Stats::negative_insertions>();
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < count_; ++i) {
      std::lock_guard lock(stripes_[i].mu);
      n += stripes_[i].entries;
    }
    return n;
  }

  std::size_t negative_size() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < count_; ++i) {
      std::lock_guard lock(stripes_[i].mu);
      n += stripes_[i].neg_entries;
    }
    return n;
  }

  /// The occupancy clamp, total across stripes (tests assert against it).
  std::size_t negative_capacity() const { return neg_cap_ * count_; }
  std::size_t capacity() const { return slot_cap_ * count_; }

  Stats stats() const { return counters_.snapshot(); }

  MemoryStats memory_stats() const {
    MemoryStats m;
    m.fixed_bytes = sizeof(*this) + count_ * sizeof(Stripe);
    for (std::size_t i = 0; i < count_; ++i) {
      const Stripe& s = stripes_[i];
      std::lock_guard lock(s.mu);
      m.entries += s.entries;
      m.negative_entries += s.neg_entries;
      m.slot_bytes += s.slots.capacity() * sizeof(Slot);
      m.index_bytes += index_size_ * (sizeof(std::uint64_t) +
                                      sizeof(std::uint32_t));
      m.name_bytes += s.name_slabs.size() * kNameSlabBytes;
      m.record_bytes +=
          s.rec_slabs.size() * kRecSlabRecords * sizeof(CompactDnsRecord);
      for (const auto& fl : s.name_free)
        m.fixed_bytes += fl.capacity() * sizeof(std::uint32_t);
      m.fixed_bytes += (s.free_slots.capacity() + s.rec_free.capacity()) *
                       sizeof(std::uint32_t);
    }
    return m;
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;
  static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);
  static constexpr std::uint8_t kNegative = 1;
  static constexpr std::size_t kMaxNameBytes = 253;  // dotted form
  static constexpr std::size_t kNameSlabBytes = 64 * 1024;
  static constexpr std::size_t kRecSlabRecords = 512;
  // Size classes for arena names (dotted names are ≤ 253 bytes).
  static constexpr std::uint32_t kClassBytes[4] = {32, 64, 128, 256};

  struct Slot {
    std::uint64_t name_hash = 0;
    std::uint64_t gen = 0;
    std::uint32_t name_off = 0;
    std::uint32_t rec_index = kEmpty;  // kEmpty for negatives
    core::ExpTime expires_at = 0;
    std::int32_t lru_prev = -1;
    std::int32_t lru_next = -1;
    std::uint16_t name_len = 0;
    std::uint8_t flags = 0;
  };

  struct LruList {
    std::int32_t head = -1;
    std::int32_t tail = -1;
  };

  struct alignas(64) Stripe {
    mutable std::mutex mu;
    std::vector<Slot> slots;
    std::vector<std::uint32_t> free_slots;
    // Open-addressing index: parallel hash/slot arrays, linear probing,
    // backward-shift deletion (storm churn must not grow tombstones).
    std::vector<std::uint64_t> idx_hash;
    std::vector<std::uint32_t> idx_slot;
    LruList pos;
    LruList neg;
    std::size_t entries = 0;
    std::size_t neg_entries = 0;
    // Name arena: 64 KiB slabs carved into size classes; freed names go to
    // the matching class free list and never cross a slab boundary.
    std::vector<std::unique_ptr<std::uint8_t[]>> name_slabs;
    std::size_t name_bump = kNameSlabBytes;  // force a slab on first alloc
    std::vector<std::uint32_t> name_free[4];
    // Record slabs: fixed PODs with a free list, HostDb-style.
    std::vector<std::unique_ptr<CompactDnsRecord[]>> rec_slabs;
    std::size_t rec_bump = kRecSlabRecords;
    std::vector<std::uint32_t> rec_free;
  };

  // Names hash with core::GenerationTable::hash: stripe selection reads the
  // TOP byte, index probing the LOW bits (disjoint from the table's slot
  // bits), and the seed decorrelates from DnsZone's striping of the names.
  Stripe& stripe(std::uint64_t h) const { return stripes_[(h >> 56) & mask_]; }

  const char* name_at(const Stripe& s, std::uint32_t off) const {
    return reinterpret_cast<const char*>(
        s.name_slabs[off / kNameSlabBytes].get() + off % kNameSlabBytes);
  }

  CompactDnsRecord& record_at(const Stripe& s, std::uint32_t idx) const {
    return s.rec_slabs[idx / kRecSlabRecords][idx % kRecSlabRecords];
  }

  static std::size_t size_class(std::size_t len) {
    if (len <= 32) return 0;
    if (len <= 64) return 1;
    if (len <= 128) return 2;
    return 3;
  }

  // ---- index (linear probe + backshift delete) -------------------------------

  std::size_t index_find(const Stripe& s, std::uint64_t h,
                         std::string_view name) const {
    std::size_t i = h & (index_size_ - 1);
    while (s.idx_slot[i] != kEmpty) {
      if (s.idx_hash[i] == h) {
        const Slot& e = s.slots[s.idx_slot[i]];
        if (e.name_len == name.size() &&
            std::memcmp(name_at(s, e.name_off), name.data(), name.size()) == 0)
          return i;
      }
      i = (i + 1) & (index_size_ - 1);
    }
    return kNotFound;
  }

  void index_insert(Stripe& s, std::uint64_t h, std::uint32_t slot) {
    std::size_t i = h & (index_size_ - 1);
    while (s.idx_slot[i] != kEmpty) i = (i + 1) & (index_size_ - 1);
    s.idx_hash[i] = h;
    s.idx_slot[i] = slot;
  }

  void index_erase(Stripe& s, std::size_t i) {
    const std::size_t mask = index_size_ - 1;
    s.idx_slot[i] = kEmpty;
    std::size_t j = i;
    for (;;) {
      j = (j + 1) & mask;
      if (s.idx_slot[j] == kEmpty) return;
      const std::size_t ideal = s.idx_hash[j] & mask;
      // j's entry may slide into the hole at i iff its ideal position is
      // cyclically at-or-before i (the classic backshift condition).
      if (((j - ideal) & mask) >= ((j - i) & mask)) {
        s.idx_hash[i] = s.idx_hash[j];
        s.idx_slot[i] = s.idx_slot[j];
        s.idx_slot[j] = kEmpty;
        i = j;
      }
    }
  }

  // ---- LRU -------------------------------------------------------------------

  void lru_unlink(Stripe& s, LruList& l, std::uint32_t slot) {
    Slot& e = s.slots[slot];
    if (e.lru_prev >= 0)
      s.slots[static_cast<std::uint32_t>(e.lru_prev)].lru_next = e.lru_next;
    else
      l.head = e.lru_next;
    if (e.lru_next >= 0)
      s.slots[static_cast<std::uint32_t>(e.lru_next)].lru_prev = e.lru_prev;
    else
      l.tail = e.lru_prev;
    e.lru_prev = e.lru_next = -1;
  }

  void lru_push_front(Stripe& s, LruList& l, std::uint32_t slot) {
    Slot& e = s.slots[slot];
    e.lru_prev = -1;
    e.lru_next = l.head;
    if (l.head >= 0)
      s.slots[static_cast<std::uint32_t>(l.head)].lru_prev =
          static_cast<std::int32_t>(slot);
    l.head = static_cast<std::int32_t>(slot);
    if (l.tail < 0) l.tail = static_cast<std::int32_t>(slot);
  }

  void lru_touch(Stripe& s, LruList& l, std::uint32_t slot) {
    if (l.head == static_cast<std::int32_t>(slot)) return;
    lru_unlink(s, l, slot);
    lru_push_front(s, l, slot);
  }

  // ---- entry lifecycle -------------------------------------------------------

  std::uint32_t alloc_slot(Stripe& s) {
    if (!s.free_slots.empty()) {
      const std::uint32_t slot = s.free_slots.back();
      s.free_slots.pop_back();
      return slot;
    }
    if (s.slots.capacity() == 0) s.slots.reserve(slot_cap_);
    s.slots.push_back(Slot{});
    return static_cast<std::uint32_t>(s.slots.size() - 1);
  }

  std::uint32_t name_alloc(Stripe& s, std::string_view name) {
    const std::size_t cls = size_class(name.size());
    std::uint32_t off;
    if (!s.name_free[cls].empty()) {
      off = s.name_free[cls].back();
      s.name_free[cls].pop_back();
    } else {
      if (s.name_bump + kClassBytes[cls] > kNameSlabBytes) {
        s.name_slabs.push_back(
            std::make_unique<std::uint8_t[]>(kNameSlabBytes));
        s.name_bump = 0;
      }
      off = static_cast<std::uint32_t>((s.name_slabs.size() - 1) *
                                           kNameSlabBytes +
                                       s.name_bump);
      s.name_bump += kClassBytes[cls];
    }
    std::memcpy(s.name_slabs[off / kNameSlabBytes].get() +
                    off % kNameSlabBytes,
                name.data(), name.size());
    return off;
  }

  std::uint32_t rec_alloc(Stripe& s) {
    if (!s.rec_free.empty()) {
      const std::uint32_t idx = s.rec_free.back();
      s.rec_free.pop_back();
      return idx;
    }
    if (s.rec_bump == kRecSlabRecords) {
      s.rec_slabs.push_back(
          std::make_unique<CompactDnsRecord[]>(kRecSlabRecords));
      s.rec_bump = 0;
    }
    const auto idx = static_cast<std::uint32_t>(
        (s.rec_slabs.size() - 1) * kRecSlabRecords + s.rec_bump);
    ++s.rec_bump;
    return idx;
  }

  /// Unlinks + frees `slot` and backshifts its index entry at `i`.
  void erase_entry(Stripe& s, std::size_t i, std::uint32_t slot) {
    Slot& e = s.slots[slot];
    const bool negative = (e.flags & kNegative) != 0;
    lru_unlink(s, negative ? s.neg : s.pos, slot);
    s.name_free[size_class(e.name_len)].push_back(e.name_off);
    if (e.rec_index != kEmpty) s.rec_free.push_back(e.rec_index);
    e = Slot{};
    s.free_slots.push_back(slot);
    index_erase(s, i);
    --s.entries;
    if (negative) --s.neg_entries;
  }

  /// Drops any existing entry for (h, name) — inserts replace.
  void drop_existing(Stripe& s, std::uint64_t h, std::string_view name) {
    const std::size_t i = index_find(s, h, name);
    if (i != kNotFound) erase_entry(s, i, s.idx_slot[i]);
  }

  /// Evicts the LRU entry of `l` (caller guarantees non-empty unless the
  /// list may legitimately be empty, in which case this is a no-op).
  void evict(Stripe& s, LruList& l, bool negative) {
    if (l.tail < 0) return;
    const auto slot = static_cast<std::uint32_t>(l.tail);
    const Slot& e = s.slots[slot];
    const std::size_t i =
        index_find(s, e.name_hash,
                   std::string_view(name_at(s, e.name_off), e.name_len));
    erase_entry(s, i, slot);
    if (negative)
      counters_.add<&Stats::negative_evictions>();
    else
      counters_.add<&Stats::evictions>();
  }

  Config cfg_;
  const core::GenerationTable& gens_;
  std::size_t count_;
  std::size_t mask_;
  std::size_t slot_cap_ = 0;
  std::size_t neg_cap_ = 0;
  std::size_t index_size_ = 0;
  std::unique_ptr<Stripe[]> stripes_;
  util::Counters<Stats> counters_;
};

}  // namespace apna::dns
