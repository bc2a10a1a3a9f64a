// PersistCoordinator — one AS's durability pipeline.
//
// The single `persist::Sink` every control-plane mutation site is wired
// to (RS, AA, DnsZone, resolver domain blocks; Fig 3 issuance journals
// nothing). It does two things with each record:
//
//  * appends it to the current generation's journal (group commit,
//    configurable fsync policy — persist/journal.h), and
//  * folds the above-core records (domain blocks, DNS records) into a
//    core::ServiceRecords, because the snapshot carries them and no core
//    structure tracks them.
//
// write_snapshot() publishes the full state as generation g+1 and
// rotates the journal to `journal-<g+1>.log`; recovery therefore needs
// snapshot g plus journals g, g+1, ... (see core/as_persist.h). The last
// kKeepGenerations snapshot/journal pairs are retained so a corrupt
// newest snapshot can fall back a generation.
//
// Journal-write failure degrades the pipeline explicitly (counted,
// non-durable) — issuance never blocks on a sick disk.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/as_persist.h"
#include "core/as_state.h"
#include "persist/journal.h"
#include "persist/sink.h"
#include "persist/vfs.h"

namespace apna::services {

class PersistCoordinator final : public persist::Sink {
 public:
  struct Config {
    persist::JournalConfig journal;
    /// Auto-snapshot after this many journaled records (0 = manual only).
    std::uint64_t snapshot_every_records = 0;
    std::uint64_t seed = 0;   // provenance, recorded in snapshot heads
    std::string git_sha;      // provenance
  };

  /// Snapshot/journal generations retained: the newest and one to fall
  /// back to.
  static constexpr std::uint64_t kKeepGenerations = 2;

  struct Stats {
    persist::JournalWriter::Stats journal;
    std::uint64_t snapshots_written = 0;
    std::uint64_t snapshot_failures = 0;
    std::uint64_t generation = 0;
  };

  PersistCoordinator(persist::Vfs& vfs, std::string dir, core::AsState& as,
                     Config cfg);
  PersistCoordinator(persist::Vfs& vfs, std::string dir, core::AsState& as)
      : PersistCoordinator(vfs, std::move(dir), as, Config()) {}
  ~PersistCoordinator() override;

  /// Creates the directory, writes the initial snapshot (the generation
  /// after the newest on disk, or 1) and opens its journal. Must succeed
  /// before records are emitted.
  Result<void> start();

  /// Re-seeds the above-core records after a recovery, so the next
  /// snapshot still carries the pre-crash domain blocks and zone records.
  void seed(core::ServiceRecords services);

  // persist::Sink
  bool append(std::uint8_t type, ByteSpan payload) override;

  /// Publishes a new snapshot generation and rotates the journal.
  Result<void> write_snapshot();

  /// Flushes the journal's group-commit buffer (fsync per policy).
  Result<void> commit();

  bool degraded() const;
  Stats stats() const;
  const std::string& dir() const { return dir_; }

 private:
  Result<void> write_snapshot_locked();

  persist::Vfs& vfs_;
  std::string dir_;
  core::AsState& as_;
  Config cfg_;

  mutable std::mutex mu_;
  std::uint64_t generation_ = 0;
  std::uint64_t records_since_snapshot_ = 0;
  std::uint64_t snapshots_written_ = 0;
  std::uint64_t snapshot_failures_ = 0;
  std::unique_ptr<persist::JournalWriter> journal_;
  /// Totals carried across journal rotations (stats() = base + current).
  persist::JournalWriter::Stats journal_base_;
  core::ServiceRecords services_;  // what the snapshot carries above core
};

}  // namespace apna::services
