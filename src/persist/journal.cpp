#include "persist/journal.h"

#include "persist/crc32c.h"

namespace apna::persist {

JournalWriter::JournalWriter(Vfs& vfs, std::string path, bool truncate,
                             JournalConfig cfg)
    : vfs_(vfs), path_(std::move(path)), cfg_(cfg) {
  auto f = vfs_.open_append(path_, truncate);
  if (f) {
    file_ = f.take();
  } else {
    stats_.degraded = true;
  }
}

bool JournalWriter::append(std::uint8_t type, ByteSpan payload) {
  std::lock_guard lk(mu_);
  if (stats_.degraded) {
    ++stats_.dropped;
    return false;
  }
  std::uint8_t head[9];
  store_le32(head, 1 + static_cast<std::uint32_t>(payload.size()));
  // CRC over type ‖ payload: seed with the type byte, continue over the
  // payload (crc32c is incremental).
  store_le32(head + 4, crc32c(payload, crc32c(ByteSpan(&type, 1))));
  head[8] = type;
  buf_.insert(buf_.end(), head, head + sizeof head);
  buf_.insert(buf_.end(), payload.begin(), payload.end());
  ++buffered_records_;
  ++stats_.appended;
  if (buffered_records_ >= cfg_.group_commit_records)
    (void)commit_locked();
  return !stats_.degraded;
}

Result<void> JournalWriter::commit() {
  std::lock_guard lk(mu_);
  return commit_locked();
}

Result<void> JournalWriter::commit_locked() {
  if (stats_.degraded)
    return Result<void>(Errc::internal, "journal degraded");
  if (buffered_records_ == 0) return Result<void>::success();
  const std::size_t records = buffered_records_;
  if (auto r = file_->append(ByteSpan(buf_.data(), buf_.size())); !r) {
    // Sticky degraded mode: the buffered records are gone and every
    // future append is counted as dropped — the control plane keeps
    // issuing, explicitly non-durable.
    stats_.degraded = true;
    stats_.dropped += records;
    stats_.appended -= records;
    buf_.clear();
    buffered_records_ = 0;
    return r;
  }
  buf_.clear();
  buffered_records_ = 0;
  ++stats_.commits;
  if (cfg_.fsync == FsyncPolicy::every_commit) {
    if (auto r = file_->sync(); !r) {
      ++stats_.sync_failures;  // counted, non-sticky: bytes reached the file
      return r;
    }
  }
  return Result<void>::success();
}

bool JournalWriter::degraded() const {
  std::lock_guard lk(mu_);
  return stats_.degraded;
}

JournalWriter::Stats JournalWriter::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

ReplayResult replay_journal(ByteSpan data, const ReplayFn& fn) {
  ReplayResult out;
  std::size_t pos = 0;
  while (data.size() - pos >= 8) {
    const std::uint32_t len = load_le32(data.data() + pos);
    const std::uint32_t want_crc = load_le32(data.data() + pos + 4);
    if (len < 1 || len > kMaxFrameLen) break;          // insane length
    if (data.size() - pos - 8 < len) break;            // torn body
    const ByteSpan body(data.data() + pos + 8, len);
    if (crc32c(body) != want_crc) break;               // bit rot
    fn(body[0], body.subspan(1));
    pos += 8 + len;
    ++out.records;
  }
  out.bytes_consumed = pos;
  out.bytes_discarded = data.size() - pos;
  return out;
}

ReplayResult replay_journal_file(Vfs& vfs, const std::string& path,
                                 const ReplayFn& fn) {
  auto data = vfs.read_all(path);
  if (!data) return ReplayResult{};  // missing journal == empty journal
  return replay_journal(ByteSpan(data->data(), data->size()), fn);
}

}  // namespace apna::persist
