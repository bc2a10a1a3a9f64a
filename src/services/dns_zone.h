// Shared DNS zone store (§VII-A zone data).
//
// The authoritative name → signed-record table behind the DNS resolvers.
// The store is shared on purpose: several ASes' DNS services can serve one
// global zone, modelling public DNS, so a host may query a *trusted* DNS in
// a different AS to keep its queries away from its own AS (§VII-A
// "Protecting DNS Queries").
//
// Lock-striped like the rest of the per-AS tables (core/sharded.h): stripes
// keyed by a seeded name hash, atomic hit/miss/insert/erase counters
// exposed as a copyable Stats snapshot, and a borrow path (with_record)
// that runs a short functor under the stripe lock instead of copying the
// whole record out.
//
// Invalidation contract: the zone owns a core::GenerationTable of per-name
// generations and bumps the mutated name's slot AFTER every mutation —
// including plain inserts. Unlike the forwarding epoch (where a new host
// cannot turn a cached pass into a drop), DNS caches hold NEGATIVE
// answers, so an insert can invalidate a cached NXDOMAIN; every put/erase
// therefore bumps. Only the name's slot moves, so a publication
// invalidates just the cached answers of the names sharing that slot.
// Downstream caches stamp entries with the slot's generation read before
// the zone read (dns/dns_cache.h).
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/as_persist.h"
#include "core/messages.h"
#include "core/sharded.h"
#include "persist/sink.h"
#include "util/counters.h"

namespace apna::services {

class DnsZone {
 public:
  /// Plain copyable counters — what stats() returns.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t erases = 0;
  };

  explicit DnsZone(std::size_t shard_count = core::kDefaultShardCount)
      : count_(core::round_up_pow2(shard_count == 0 ? 1 : shard_count)),
        mask_(count_ - 1),
        shards_(std::make_unique<Shard[]>(count_)) {}

  void put(const core::DnsRecord& rec) {
    {
      Shard& s = shard(rec.name);
      std::lock_guard lock(s.mu);
      s.map[rec.name] = rec;
    }
    core::emit_dns_put(persist_, rec);
    counters_.add<&Stats::inserts>();
    // After the mutation is visible (core/sharded.h contract).
    gens_.bump(core::GenerationTable::hash(rec.name));
  }

  /// Copy-out lookup (cold paths and tests). Counts hit/miss.
  std::optional<core::DnsRecord> get(const std::string& name) const {
    const Shard& s = shard(name);
    std::lock_guard lock(s.mu);
    auto it = s.map.find(name);
    if (it == s.map.end()) {
      counters_.add<&Stats::misses>();
      return std::nullopt;
    }
    counters_.add<&Stats::hits>();
    return it->second;
  }

  /// Borrow path for the hot lookup: runs `fn(const core::DnsRecord&)`
  /// under the stripe lock — no key or record copy (heterogeneous lookup),
  /// so misses and callers that only need a few fields never touch the
  /// heap. `fn` must be short and must not call back into the zone.
  /// Returns false on miss. Counts hit/miss.
  template <class Fn>
  bool with_record(std::string_view name, Fn&& fn) const {
    const Shard& s = shard(name);
    std::lock_guard lock(s.mu);
    auto it = s.map.find(name);
    if (it == s.map.end()) {
      counters_.add<&Stats::misses>();
      return false;
    }
    counters_.add<&Stats::hits>();
    fn(it->second);
    return true;
  }

  bool erase(const std::string& name) {
    bool erased;
    {
      Shard& s = shard(name);
      std::lock_guard lock(s.mu);
      erased = s.map.erase(name) > 0;
    }
    if (erased) {
      core::emit_dns_erase(persist_, name);
      counters_.add<&Stats::erases>();
      gens_.bump(core::GenerationTable::hash(name));
    }
    return erased;
  }

  /// Attaches the durability hook: zone mutations are journaled through
  /// `sink` (nullptr — the default — costs one branch per mutation).
  void set_persist_sink(persist::Sink* sink) { persist_ = sink; }

  /// Visits every record under the stripe locks, one stripe at a time
  /// (policy sweeps, audits). Same functor rules as with_record.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < count_; ++i) {
      const Shard& s = shards_[i];
      std::lock_guard lock(s.mu);
      for (const auto& [name, rec] : s.map) fn(rec);
    }
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < count_; ++i) {
      std::lock_guard lock(shards_[i].mu);
      n += shards_[i].map.size();
    }
    return n;
  }

  Stats stats() const { return counters_.snapshot(); }

  /// Per-name generations, the mutated name's slot bumped after every
  /// put/erase — the invalidation channel for resolver caches (positive
  /// AND negative entries).
  const core::GenerationTable& generations() const { return gens_; }

 private:
  struct NameHashFn {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const { return name_hash(s); }
  };
  struct NameEqFn {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const {
      return a == b;
    }
  };

  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, core::DnsRecord, NameHashFn, NameEqFn> map;
  };

  static std::size_t name_hash(std::string_view name) {
    // FNV-1a with a final mix; stripe selection uses the TOP bits so the
    // resolver cache (which stripes and probes on the LOW bits of its own
    // hash) never correlates with zone striping.
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : name) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 1099511628211ull;
    }
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return h;
  }

  Shard& shard(std::string_view name) const {
    return shards_[(name_hash(name) >> 56) & mask_];
  }

  std::size_t count_;
  std::size_t mask_;
  std::unique_ptr<Shard[]> shards_;
  persist::Sink* persist_ = nullptr;
  mutable util::Counters<Stats> counters_;  // const lookups count hits/misses
  core::GenerationTable gens_;
};

}  // namespace apna::services
