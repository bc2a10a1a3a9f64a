// Durable image of one AS's control-plane state, in one on-disk format:
// the CRC-framed records of persist/journal.h.
//
//  * JOURNALS — `journal-<gen>.log`, one record per control-plane
//    mutation, emitted at the mutation sites (RegistryService bootstrap,
//    AccountabilityAgent revocation/escalation/domain block, DnsZone
//    put/erase) through the narrow `persist::Sink` hook. The emit_*
//    helpers below are all null-safe: with no sink attached they cost one
//    predicted branch, keeping the hot paths' allocation gates intact.
//    Fig 3 issuance journals nothing: Fig 6 seals HID ‖ ExpTime inside
//    every EphID under kA, so no EphID→HID table exists to lose.
//
//  * SNAPSHOTS — `snapshot-<gen>.snap`, the full state as records: a
//    snapshot_head (format version, provenance, aid, secrets, epoch), one
//    record per host, revoked EphID, host revocation counter, blocked
//    domain and zone record, then a snapshot_end holding the count of
//    records between the two. Published atomically (temp file, sync,
//    rename); records that follow go to `journal-<gen>.log`.
//
// Every record payload has one encoder and one decoder (as_persist.cpp),
// whichever file it sits in. Recovery (AsState::recover, declared in
// core/as_state.h) loads the newest snapshot that replays whole — no torn
// tail, the head first, every record decodes, the end count matches —
// falling back a generation otherwise, replays every journal from that
// generation on up to the last valid frame, and advances the verdict
// epoch once.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/as_state.h"
#include "core/messages.h"
#include "persist/sink.h"
#include "persist/vfs.h"

namespace apna::core {

enum class PersistRecordType : std::uint8_t {
  host_upsert = 1,   // RS bootstrap / key replacement
  host_erase = 2,    // HID rotation, §VIII-G2 escalation
  revoke_ephid = 3,  // AA Fig-5 shutoff
  revoke_hid = 4,    // AA §VIII-G2 escalation
  ephid_issued = 5,  // reserved: older files log Fig 3 issuances; dropped
  domain_block = 6,  // AA/resolver Fig-5 domain policy rule
  dns_put = 7,       // DnsZone publish (§VII-A)
  dns_erase = 8,     // DnsZone unpublish
  // Snapshot-only records.
  snapshot_head = 9,      // format version, provenance, aid, secrets, epoch
  revoked_ephid = 10,     // one revoked_ids entry, restored as it stands
  host_revocations = 11,  // one host's §VIII-G2 counter and HID flag
  snapshot_end = 12,      // count of the records since the head
};

/// The state above core that snapshots carry and recovery hands back:
/// which domains the AA and resolver block, and what the zone publishes.
/// Ordered containers keep snapshots byte-stable for a given mutation
/// history.
struct ServiceRecords {
  std::set<std::string> blocked_domains;
  std::map<std::string, DnsRecord> dns;

  /// Folds in one domain_block, dns_put or dns_erase record.
  /// Returns false for any other type and for a payload that fails to
  /// decode.
  bool apply(std::uint8_t type, ByteSpan payload);
};

// --- journal record emission (all null-safe on `sink`) --------------------
void emit_host_upsert(persist::Sink* sink, const HostRecord& rec);
void emit_host_erase(persist::Sink* sink, Hid hid);
void emit_revoke_ephid(persist::Sink* sink, const EphId& ephid,
                       ExpTime exp_time, Hid hid);
void emit_revoke_hid(persist::Sink* sink, Hid hid);
void emit_domain_block(persist::Sink* sink, std::string_view domain);
void emit_dns_put(persist::Sink* sink, const DnsRecord& rec);
void emit_dns_erase(persist::Sink* sink, std::string_view name);

// --- directory layout -----------------------------------------------------
std::string snapshot_path(const std::string& dir, std::uint64_t generation);
std::string journal_path(const std::string& dir, std::uint64_t generation);

/// Generations on disk under `dir`, ascending. A name whose number is 0
/// or does not fit 64 bits is ignored.
struct Generations {
  std::vector<std::uint64_t> snapshots;
  std::vector<std::uint64_t> journals;
};
Generations list_generations(persist::Vfs& vfs, const std::string& dir);

/// Provenance recorded in a snapshot's head record.
struct SnapshotInfo {
  std::uint64_t generation = 0;
  std::uint64_t seed = 0;  // run provenance (scenario/bench seed)
  std::string git_sha;     // build provenance
};

/// Writes the full state as `snapshot-<gen>.snap` (temp file, sync,
/// rename). Does NOT rotate the journal — the coordinator owning the
/// JournalWriter does that.
Result<void> write_as_snapshot(persist::Vfs& vfs, const std::string& dir,
                               const AsState& as,
                               const ServiceRecords& services,
                               const SnapshotInfo& info);

/// What AsState::recover hands back: the rebuilt core state plus the
/// recovered records the layers above core re-install (services put the
/// DNS records back into a DnsZone, the resolver re-blocks domains).
struct AsStateRecovery {
  std::unique_ptr<AsState> as;
  std::uint64_t snapshot_generation = 0;
  std::uint64_t snapshot_epoch = 0;
  /// Journal records applied (snapshot records are not counted).
  std::uint64_t journal_records_replayed = 0;
  /// Torn/corrupt tail bytes discarded across the replayed journals.
  std::uint64_t journal_bytes_discarded = 0;
  /// Malformed payloads inside CRC-valid frames (skipped, counted).
  std::uint64_t records_malformed = 0;
  /// Corrupt snapshot generations fallen past before a valid one loaded.
  std::uint32_t snapshots_skipped = 0;
  ServiceRecords services;
};

}  // namespace apna::core
