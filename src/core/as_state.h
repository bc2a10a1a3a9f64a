// The shared — and now sharded — state of one AS's infrastructure.
//
// Every infrastructure entity of an AS (RS, MS, AA, border routers) holds kA
// and the host/revocation databases (Fig 2: "the RS sends the host
// information to infrastructure entities in the AS; the entities store the
// information in their database"). In this in-process model they share one
// AsState by reference, which faithfully models the synchronized state while
// the message flows that synchronize it are still exercised and counted.
//
// AsState is the "ShardedAsState" of the scaling roadmap: every mutable
// member is safe for concurrent use from M router workers —
//  * codec / infra_mac are immutable after construction (shareable, §V-A1);
//  * host_db and revoked are lock-striped into `shard_count` stripes keyed
//    by HID / EphID hash (core/sharded.h), so the Fig 4 per-packet lookups
//    (revocation check, host_info check) never contend on a global lock
//    while the RS enrolls hosts and the AA revokes EphIDs concurrently.
// See ARCHITECTURE.md, "Concurrency model".
#pragma once

#include <string>

#include "core/ephid.h"
#include "core/host_db.h"
#include "core/ids.h"
#include "core/keys.h"
#include "core/revocation.h"
#include "core/sharded.h"
#include "crypto/modes.h"

namespace apna::persist {
class Vfs;
}

namespace apna::core {

struct AsStateRecovery;  // core/as_persist.h

struct AsState {
  Aid aid;
  AsSecrets secrets;
  EphIdCodec codec;          // kA' / kA'' derived from kA (§V-A1)
  crypto::AesCmac infra_mac; // kAS: authenticates AA→BR revocation (Fig 5)
  /// Verdict generation for the per-worker flow caches: revocations and
  /// host de-registration bump it; workers stamp cached verdicts with it
  /// (core/flow_cache.h — "Epoch invalidation" in ARCHITECTURE.md).
  VerdictEpoch epoch;
  HostDb host_db;            // host_info (lock-striped by HID)
  RevocationList revoked;    // revoked_ids (lock-striped by EphID/HID)

  /// `max_revocations_per_host` is the §VIII-G2 escalation threshold;
  /// `shard_count` stripes the host/revocation tables (rounded to a power
  /// of two).
  AsState(Aid aid_, AsSecrets secrets_,
          std::uint32_t max_revocations_per_host = 16,
          std::size_t shard_count = kDefaultShardCount)
      : aid(aid_),
        secrets(std::move(secrets_)),
        codec(ByteSpan(secrets.ka.data(), secrets.ka.size())),
        infra_mac(ByteSpan(secrets.ka_infra.data(), secrets.ka_infra.size())),
        host_db(shard_count, &epoch),
        revoked(max_revocations_per_host, shard_count, &epoch) {}

  AsState(const AsState&) = delete;
  AsState& operator=(const AsState&) = delete;

  /// Crash recovery (see core/as_persist.h and ARCHITECTURE.md
  /// "Durability"): loads the newest valid snapshot under `dir`, falls
  /// back a generation when a snapshot is corrupt, replays the journal
  /// suffix up to the last valid frame (torn tails truncate, never
  /// crash), then advances the verdict epoch ONCE so every worker
  /// FlowCache invalidates. Returns the rebuilt state (default escalation
  /// threshold and striping) plus the recovered records the layers above
  /// core must re-install (DNS zone records, domain blocks). Issued EphIDs
  /// need no recovery: each carries its HID ‖ ExpTime under kA (Fig 6).
  static Result<AsStateRecovery> recover(persist::Vfs& vfs,
                                         const std::string& dir);
};

}  // namespace apna::core
