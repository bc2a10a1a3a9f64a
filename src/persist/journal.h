// Append-only journal: length-prefixed, CRC32C-framed records with
// group commit and a configurable fsync policy. It is the one on-disk
// format: a snapshot is a file of these frames too (core/as_persist.h).
//
// Frame layout (the two u32s little-endian; the payload is the caller's):
//
//   [u32 len][u32 crc32c][u8 type][payload ...]
//
// `len` counts type + payload bytes; the CRC covers the same span. A
// reader walks frames until the first violation — short header, insane
// length, short body, or CRC mismatch — and treats everything from
// there on as a torn tail: the journal's effective content is the
// longest valid prefix, never garbage, never an exception.
//
// Write failures flip the writer into a sticky non-durable degraded
// mode: subsequent records are counted as dropped and the service keeps
// running. fsync failures are counted but non-sticky (the data reached
// the file; only the durability barrier failed).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "persist/sink.h"
#include "persist/vfs.h"
#include "util/bytes.h"
#include "util/result.h"

namespace apna::persist {

/// Largest accepted frame body (type + payload). Anything bigger in a
/// length prefix is treated as corruption.
inline constexpr std::uint32_t kMaxFrameLen = 1u << 20;

enum class FsyncPolicy : std::uint8_t {
  never,         // leave durability to the OS
  every_commit,  // fsync after each group commit
};

struct JournalConfig {
  FsyncPolicy fsync = FsyncPolicy::every_commit;
  /// Auto-commit once this many records are buffered (group commit).
  std::size_t group_commit_records = 64;
};

/// Thread-safe journal writer; implements `Sink` so it can be handed
/// straight to the control-plane services.
class JournalWriter final : public Sink {
 public:
  struct Stats {
    std::uint64_t appended = 0;   // records accepted into the buffer
    std::uint64_t dropped = 0;    // records lost to degraded mode
    std::uint64_t commits = 0;
    std::uint64_t sync_failures = 0;
    bool degraded = false;
  };

  /// Opens `path` through `vfs`. `truncate` starts a fresh journal
  /// (new generation); otherwise appends to existing content.
  JournalWriter(Vfs& vfs, std::string path, bool truncate,
                JournalConfig cfg = {});

  bool append(std::uint8_t type, ByteSpan payload) override;

  /// Flushes buffered frames and applies the fsync policy.
  Result<void> commit();

  bool degraded() const;
  Stats stats() const;

 private:
  Result<void> commit_locked();

  mutable std::mutex mu_;
  Vfs& vfs_;
  std::string path_;
  JournalConfig cfg_;
  std::unique_ptr<VfsFile> file_;
  Bytes buf_;
  std::size_t buffered_records_ = 0;
  Stats stats_{};
};

struct ReplayResult {
  std::uint64_t records = 0;
  std::uint64_t bytes_consumed = 0;
  /// Torn/corrupt tail bytes discarded after the last valid frame.
  std::uint64_t bytes_discarded = 0;
  bool torn() const { return bytes_discarded != 0; }
};

/// Walks frames in `data`, invoking `fn(type, payload)` for each valid
/// one, stopping (without error) at the first torn or corrupt frame.
using ReplayFn = std::function<void(std::uint8_t, ByteSpan)>;
ReplayResult replay_journal(ByteSpan data, const ReplayFn& fn);

/// Reads `path` via `vfs` and replays it. A missing file is an empty
/// journal, not an error.
ReplayResult replay_journal_file(Vfs& vfs, const std::string& path,
                                 const ReplayFn& fn);

}  // namespace apna::persist
