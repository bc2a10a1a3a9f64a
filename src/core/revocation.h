// revoked_ids — the border routers' revocation state (Fig 4/5, §VIII-G2).
//
// Stores revoked EphIDs with their expiry so entries can be purged once the
// EphID would be rejected anyway ("since EphIDs will expire over time ...
// the expired EphIDs can be removed from revoked_EphIDs"). Also tracks
// per-host revocation counts so the AS can apply the §VIII-G2 escalation
// policy (revoke the HID after too many shutoffs) and a revoked-HID set.
//
// Both tables are lock-striped (core/sharded.h): the Fig 4 "EphID ∈
// revoked_EphIDs" check runs on every forwarded packet from every router
// worker, while the AA applies revocations concurrently (Fig 5). A
// revocation becomes visible to a worker the moment its shard lock is
// released — there is no global pause. Only the snapshot walk (for_each)
// holds revocations off.
#pragma once

#include <cstdint>
#include <mutex>
#include <shared_mutex>

#include "core/ids.h"
#include "core/sharded.h"

namespace apna::core {

class RevocationList {
 public:
  /// Max preemptive revocations per host before HID escalation (§VIII-G2).
  /// `epoch` (optional) is bumped AFTER each revocation becomes visible in
  /// the striped tables, instantly invalidating every per-worker
  /// flow-cache verdict issued before it (core/flow_cache.h). purge_expired
  /// never bumps: un-revoking an already expired EphID cannot change a
  /// verdict (both paths drop it as expired).
  explicit RevocationList(std::uint32_t max_revocations_per_host = 16,
                          std::size_t shard_count = kDefaultShardCount,
                          VerdictEpoch* epoch = nullptr)
      : max_per_host_(max_revocations_per_host),
        ephids_(shard_count),
        hosts_(shard_count),
        epoch_(epoch) {}

  /// Marks an EphID revoked. Returns true when the EphID was not revoked
  /// yet. Only such an EphID raises the host's revocation count and bumps
  /// the verdict epoch: a replayed shutoff or a journal record the
  /// snapshot already holds counts once (§VIII-G2 caps EphIDs revoked per
  /// host, not requests) and leaves every worker's flow cache alone.
  bool revoke_ephid(const EphId& ephid, ExpTime exp_time, Hid hid) {
    std::shared_lock walk(walk_mu_);  // revocations run side by side
    const bool fresh = ephids_.insert_or_assign(ephid, exp_time);
    if (!fresh) return false;
    hosts_.update(
        hid, [] { return HostRevState{}; },
        [](HostRevState& h) { ++h.revocations; });
    if (epoch_) epoch_->bump();
    return true;
  }

  bool is_revoked(const EphId& ephid) const { return ephids_.contains(ephid); }

  void prefetch(const EphId& ephid) const { ephids_.prefetch(ephid); }

  /// HID escalation (§VIII-G2): all of the host's EphIDs become invalid.
  void revoke_hid(Hid hid) {
    hosts_.update(
        hid, [] { return HostRevState{}; },
        [](HostRevState& h) { h.hid_revoked = true; });
    if (epoch_) epoch_->bump();
  }

  bool is_hid_revoked(Hid hid) const {
    const auto h = hosts_.find(hid);
    return h && h->hid_revoked;
  }

  /// True when the host has hit the escalation threshold.
  bool over_limit(Hid hid) const {
    const auto h = hosts_.find(hid);
    return h && h->revocations >= max_per_host_;
  }

  /// §VIII-G2 measure 1: drop entries whose EphIDs have expired anyway.
  /// Proceeds shard by shard so routers keep forwarding during the purge.
  /// Returns the number of purged entries.
  std::size_t purge_expired(ExpTime now) {
    return ephids_.erase_if(
        [now](const EphId&, ExpTime exp) { return exp < now; });
  }

  std::size_t size() const { return ephids_.size(); }

  /// Snapshot iteration for the durability layer: `on_ephid(ephid, exp)`
  /// per revoked EphID, then `on_host(hid, revocations, hid_revoked)` per
  /// host. revoke_ephid waits for the walk, so no EphID is seen without
  /// its count or its count without the EphID: recovery, which counts a
  /// journaled revocation only when the snapshot lacks its EphID, then
  /// rebuilds every counter exactly.
  template <class EphIdFn, class HostFn>
  void for_each(EphIdFn on_ephid, HostFn on_host) const {
    std::unique_lock walk(walk_mu_);
    ephids_.for_each([&](const EphId& e, ExpTime exp) { on_ephid(e, exp); });
    hosts_.for_each([&](Hid hid, const HostRevState& h) {
      on_host(hid, h.revocations, h.hid_revoked);
    });
  }

  /// Recovery-only restore paths. They install state without bumping the
  /// verdict epoch and without re-running the escalation side effects —
  /// AsState::recover replays the image, then advances the epoch once.
  void restore_ephid(const EphId& ephid, ExpTime exp_time) {
    ephids_.insert_or_assign(ephid, exp_time);
  }
  void restore_host(Hid hid, std::uint32_t revocations, bool hid_revoked) {
    hosts_.update(
        hid, [] { return HostRevState{}; },
        [&](HostRevState& h) {
          h.revocations = revocations;
          h.hid_revoked = hid_revoked;
        });
  }

  /// Approximate resident footprint of both striped tables (EphID → exp
  /// and per-host escalation state), from ShardedMap::stripe_stats — real
  /// per-stripe occupancy, not an estimate over assumed load factors. The
  /// §VIII-G2 sizing question ("can revoked_EphIDs grow unboundedly?") gets
  /// a measured answer in the mass-revocation scenarios.
  std::size_t memory_bytes() const {
    return ephids_.approx_memory_bytes() + hosts_.approx_memory_bytes();
  }

 private:
  struct HostRevState {
    std::uint32_t revocations = 0;  // §VIII-G2 escalation counter
    bool hid_revoked = false;
  };

  std::uint32_t max_per_host_;
  ShardedMap<EphId, ExpTime, EphIdHash> ephids_;
  ShardedMap<Hid, HostRevState> hosts_;
  /// Pairs the two tables: revoke_ephid holds it shared, for_each unique.
  mutable std::shared_mutex walk_mu_;
  VerdictEpoch* epoch_;
};

}  // namespace apna::core
