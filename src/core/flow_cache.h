// Verified-flow cache — per-worker memoization of the Fig 4 EphID verdict.
//
// Design choice 3 (§IV-D3) keeps border routers on symmetric crypto so the
// data plane can run at line rate; this cache exploits the next property
// down: real traffic is flow-dominated, and after the first packet of a
// flow the EphID verdict is a pure function of (EphID, revocation state,
// clock). A verified entry therefore lets every later packet of the flow
// skip the EphID decrypt+auth (2 AES passes + CBC-MAC) and both striped
// table lookups. The per-packet source MAC is NEVER skipped — it is
// per-packet by design (§IV-D2), so an entry carries a borrowed pointer to
// the host's pre-scheduled kHA CMAC instead.
//
// Concurrency model: no internal locks; one user at a time
// (router::ForwardingPool gives each steered ring its own, touched only
// under the ring's lock by whichever thread runs the ring).
// Coherence with the shared AS state is EPOCH-BASED: AsState owns a
// VerdictEpoch whose generation is bumped by every mutation that can turn a
// cached pass into a drop (EphID/HID revocation, host de-registration or
// key replacement). Entries record the generation they were verified under;
// a probe whose entry generation differs from the current one is a miss, so
// a revocation invalidates every cached verdict in every worker instantly —
// without touching the workers. Expiry needs no epoch: entries carry the
// EphID's decrypted ExpTime and the probe's caller compares it against the
// burst clock, reproducing the uncached Errc::expired verdict exactly.
//
// Layout: open addressing, kWays-associative buckets. The bucket's tags
// (8-byte EphID fingerprints) are contiguous — one cache line covers a
// whole bucket's tags — so the common miss costs a single line fill and a
// hit adds exactly one entry line. Tag collisions are resolved by a full
// 16-byte EphID compare on the entry: a forged EphID sharing a fingerprint
// can never borrow another flow's verdict.
#pragma once

#include <cstdint>
#include <memory>

#include "core/ids.h"
#include "core/sharded.h"
#include "crypto/modes.h"
#include "util/counters.h"

namespace apna::core {

/// Fixed-capacity, lock-free (single-owner) EphID → verdict cache.
class FlowCache {
 public:
  static constexpr std::size_t kWays = 4;

  /// One verified EphID. `cmac` shares ownership of the host's
  /// pre-scheduled packet-MAC key so a concurrent de-registration can
  /// never free a schedule while a hit still points at it (the entry
  /// itself is already unusable then — the erase bumped the epoch).
  struct Entry {
    EphId ephid;
    Hid hid = 0;
    ExpTime exp_time = 0;
    std::uint64_t gen = 0;  // 0 = empty slot
    std::shared_ptr<const crypto::AesCmac> cmac;
  };

  struct Stats {
    std::uint64_t hits = 0;        // generation-valid fingerprint+EphID match
    std::uint64_t misses = 0;      // no usable entry (includes stale/empty)
    std::uint64_t stale_gen = 0;   // of misses: entry existed, epoch moved on
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;   // insertion displaced a live entry
    /// EphIDs currently cached by MORE than one ring's cache (each extra
    /// copy counts one). A single cache always reports 0 — the field is filled
    /// by router::ForwardingPool::flow_cache_stats() on the merged view,
    /// where duplicates measure steering quality: flow-hash steering
    /// (core/flow_steer.h) drives this to zero.
    std::uint64_t cross_worker_duplicates = 0;

    double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }

    Stats& operator+=(const Stats& o) { return util::add_fields(*this, o); }

    /// Subtracts an earlier snapshot of the same monotone counters (per-
    /// phase deltas in the scenario engine).
    Stats& operator-=(const Stats& o) { return util::sub_fields(*this, o); }
  };

  /// `capacity` is rounded up to a power of two, minimum one bucket.
  explicit FlowCache(std::size_t capacity = 4096)
      : buckets_(round_up_pow2(
            (capacity < kWays ? kWays : capacity) / kWays)),
        mask_(buckets_ - 1),
        tags_(std::make_unique<std::uint64_t[]>(buckets_ * kWays)),
        entries_(std::make_unique<Entry[]>(buckets_ * kWays)) {
    for (std::size_t i = 0; i < buckets_ * kWays; ++i) tags_[i] = 0;
  }

  /// Looks up `ephid` under the caller's observed generation. Returns the
  /// entry on a generation-valid match (the caller still compares
  /// `exp_time` against its clock — an expired entry reproduces the
  /// uncached Errc::expired verdict without re-running the crypto), or
  /// nullptr on a miss. The pointer is valid until the next insert().
  const Entry* find(const EphId& ephid, std::uint64_t gen) {
    const std::uint64_t tag = fingerprint(ephid);
    const std::size_t base = (tag & mask_) * kWays;
    for (std::size_t w = 0; w < kWays; ++w) {
      if (tags_[base + w] != tag) continue;
      const Entry& e = entries_[base + w];
      if (e.gen == gen && e.ephid == ephid) {
        ++stats_.hits;
        return &e;
      }
      if (e.gen != 0 && e.gen != gen) ++stats_.stale_gen;
    }
    ++stats_.misses;
    return nullptr;
  }

  /// Caches a freshly verified verdict under generation `gen` (the value
  /// the caller read BEFORE running the checks, so a racing epoch bump
  /// leaves the entry conservatively stale). Victim order: same EphID >
  /// empty > stale generation > earliest expiry.
  void insert(const EphId& ephid, Hid hid, ExpTime exp_time,
              std::uint64_t gen,
              std::shared_ptr<const crypto::AesCmac> cmac) {
    const std::uint64_t tag = fingerprint(ephid);
    const std::size_t base = (tag & mask_) * kWays;
    std::size_t victim = base;
    int victim_rank = 3;  // 0 same-key, 1 empty, 2 stale, 3 live
    for (std::size_t w = 0; w < kWays; ++w) {
      const Entry& e = entries_[base + w];
      int rank;
      if (tags_[base + w] == tag && e.gen != 0 && e.ephid == ephid) {
        rank = 0;
      } else if (e.gen == 0) {
        rank = 1;
      } else if (e.gen != gen) {
        rank = 2;
      } else {
        rank = 3;
      }
      if (rank < victim_rank ||
          (rank == 3 && victim_rank == 3 &&
           e.exp_time < entries_[victim].exp_time)) {
        victim = base + w;
        victim_rank = rank;
        if (rank == 0) break;
      }
    }
    if (victim_rank == 3) ++stats_.evictions;
    Entry& e = entries_[victim];
    e.ephid = ephid;
    e.hid = hid;
    e.exp_time = exp_time;
    e.gen = gen;
    e.cmac = std::move(cmac);
    tags_[victim] = tag;
    ++stats_.insertions;
  }

  /// Prefetches the bucket `ephid` would probe (tag line + first entry).
  void prefetch(const EphId& ephid) const {
    const std::size_t base = (fingerprint(ephid) & mask_) * kWays;
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&tags_[base]);
    __builtin_prefetch(&entries_[base]);
#endif
  }

  /// Drops every entry (tests; a size change would need a new cache).
  void clear() {
    for (std::size_t i = 0; i < buckets_ * kWays; ++i) {
      tags_[i] = 0;
      entries_[i] = Entry{};
    }
  }

  /// Visits every occupied entry (any generation). Stat readers and tests;
  /// not a fast path.
  template <typename Fn>
  void for_each_entry(Fn&& fn) const {
    for (std::size_t i = 0; i < buckets_ * kWays; ++i)
      if (entries_[i].gen != 0) fn(entries_[i]);
  }

  std::size_t capacity() const { return buckets_ * kWays; }
  const Stats& stats() const { return stats_; }

 private:
  /// EphIDs are pseudorandom (ciphertext ‖ IV ‖ tag), so EphIdHash's fold
  /// of the first 8 bytes serves as both bucket hash (low bits) and
  /// in-bucket tag (all bits) — one shared hashing decision, one site
  /// (core/ids.h). Tag collisions are harmless: hits full-compare the
  /// EphID.
  static std::uint64_t fingerprint(const EphId& e) { return EphIdHash{}(e); }

  std::size_t buckets_;
  std::size_t mask_;
  std::unique_ptr<std::uint64_t[]> tags_;  // bucket-contiguous fingerprints
  std::unique_ptr<Entry[]> entries_;
  Stats stats_;
};

}  // namespace apna::core
