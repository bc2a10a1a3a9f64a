#include "services/persist_coordinator.h"

#include <algorithm>
#include <utility>

#include "wire/codec.h"

namespace apna::services {
namespace {

/// Parses "<stem>-<gen>.<ext>"; returns the generation or 0 (no valid
/// generation is ever 0 — start() begins at 1).
std::uint64_t parse_generation(const std::string& name, std::string_view stem,
                               std::string_view ext) {
  if (name.size() <= stem.size() + 1 + ext.size()) return 0;
  if (name.compare(0, stem.size(), stem) != 0 || name[stem.size()] != '-')
    return 0;
  if (name.compare(name.size() - ext.size(), ext.size(), ext) != 0) return 0;
  const std::string digits =
      name.substr(stem.size() + 1, name.size() - stem.size() - 1 - ext.size());
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos)
    return 0;
  return std::stoull(digits);
}

void accumulate(persist::JournalWriter::Stats& into,
                const persist::JournalWriter::Stats& from) {
  into.appended += from.appended;
  into.dropped += from.dropped;
  into.commits += from.commits;
  into.sync_failures += from.sync_failures;
  into.degraded = into.degraded || from.degraded;
}

}  // namespace

PersistCoordinator::PersistCoordinator(persist::Vfs& vfs, std::string dir,
                                       core::AsState& as, Config cfg)
    : vfs_(vfs), dir_(std::move(dir)), as_(as), cfg_(cfg) {
  if (cfg_.keep_generations == 0) cfg_.keep_generations = 1;
}

PersistCoordinator::~PersistCoordinator() {
  if (journal_) (void)journal_->commit();
}

Result<void> PersistCoordinator::start() {
  if (auto made = vfs_.mkdirs(dir_); !made) return made;
  std::lock_guard lock(mu_);
  // Resume after the newest generation already on disk (never overwrite a
  // prior run's snapshot — recovery may still need it to fall back to).
  std::uint64_t newest = 0;
  for (const std::string& name : vfs_.list(dir_)) {
    newest = std::max(newest, parse_generation(name, "snapshot", ".snap"));
    newest = std::max(newest, parse_generation(name, "journal", ".log"));
  }
  generation_ = newest;
  // The initial snapshot makes the secrets durable before the first
  // journal record exists — a crash at any later point is recoverable.
  return write_snapshot_locked();
}

void PersistCoordinator::seed(std::vector<core::IssuedEphIdMeta> issued,
                              std::vector<std::string> blocked_domains,
                              std::vector<core::DnsRecord> dns_records) {
  std::lock_guard lock(mu_);
  issued_ = std::move(issued);
  blocked_.clear();
  for (std::string& d : blocked_domains) blocked_.insert(std::move(d));
  dns_.clear();
  for (core::DnsRecord& rec : dns_records) {
    std::string name = rec.name;
    dns_.emplace(std::move(name), std::move(rec));
  }
}

bool PersistCoordinator::append(std::uint8_t type, ByteSpan payload) {
  std::lock_guard lock(mu_);
  if (!journal_) return false;  // start() not run / failed — not durable

  // Fold the above-core records into the snapshot aggregates. The codecs
  // mirror core/as_persist.cpp apply_record; a payload that fails to
  // decode still goes to the journal (recovery counts it as malformed).
  wire::Reader r(payload);
  switch (static_cast<core::PersistRecordType>(type)) {
    case core::PersistRecordType::ephid_issued: {
      auto e = r.arr<16>();
      auto exp = r.u32();
      auto hid = r.u32();
      if (e && exp && hid) {
        core::IssuedEphIdMeta m;
        m.ephid.bytes = *e;
        m.exp_time = *exp;
        m.hid = *hid;
        issued_.push_back(m);
      }
      break;
    }
    case core::PersistRecordType::domain_block: {
      if (auto d = r.str()) blocked_.insert(d.take());
      break;
    }
    case core::PersistRecordType::dns_put: {
      if (auto rec = core::DnsRecord::decode(r)) {
        core::DnsRecord d = rec.take();
        std::string name = d.name;
        dns_.insert_or_assign(std::move(name), std::move(d));
      }
      break;
    }
    case core::PersistRecordType::dns_erase: {
      if (auto n = r.str()) dns_.erase(std::string(*n));
      break;
    }
    default:
      break;  // core-visible records need no aggregate
  }

  const bool appended = journal_->append(type, payload);
  if (appended && cfg_.snapshot_every_records != 0 &&
      ++records_since_snapshot_ >= cfg_.snapshot_every_records) {
    // Periodic cadence: a failed snapshot is counted and retried after
    // the next batch of records; journaling continues either way.
    (void)write_snapshot_locked();
  }
  return appended;
}

Result<void> PersistCoordinator::write_snapshot() {
  std::lock_guard lock(mu_);
  return write_snapshot_locked();
}

Result<void> PersistCoordinator::write_snapshot_locked() {
  // Flush the outgoing journal first: the snapshot must supersede every
  // record in generation g's journal, or rotation would lose the tail
  // still sitting in the group-commit buffer.
  if (journal_) {
    if (auto committed = journal_->commit(); !committed) {
      ++snapshot_failures_;
      return committed;
    }
  }

  const std::uint64_t next = generation_ + 1;
  std::vector<std::string> blocked(blocked_.begin(), blocked_.end());
  std::vector<core::DnsRecord> dns;
  dns.reserve(dns_.size());
  for (const auto& [name, rec] : dns_) dns.push_back(rec);

  core::AsSnapshotExtras extras;
  extras.issued = issued_;
  extras.blocked_domains = blocked;
  extras.dns_records = dns;
  persist::SnapshotInfo info;
  info.generation = next;
  info.seed = cfg_.seed;
  info.git_sha = cfg_.git_sha;

  if (auto written = core::write_as_snapshot(vfs_, dir_, as_, extras, info);
      !written) {
    ++snapshot_failures_;
    return written;  // keep journaling into the current generation
  }

  if (journal_) accumulate(journal_base_, journal_->stats());
  journal_ = std::make_unique<persist::JournalWriter>(
      vfs_, core::journal_path(dir_, next), /*truncate=*/true, cfg_.journal);
  generation_ = next;
  records_since_snapshot_ = 0;
  ++snapshots_written_;

  // Prune generations older than the retention window; best effort — a
  // leftover file only costs disk, never correctness.
  if (next > cfg_.keep_generations) {
    const std::uint64_t cutoff = next - cfg_.keep_generations;
    for (const std::string& name : vfs_.list(dir_)) {
      const std::uint64_t sg = parse_generation(name, "snapshot", ".snap");
      const std::uint64_t jg = parse_generation(name, "journal", ".log");
      if ((sg != 0 && sg <= cutoff) || (jg != 0 && jg <= cutoff))
        (void)vfs_.remove(dir_ + "/" + name);
    }
  }
  return Result<void>::success();
}

Result<void> PersistCoordinator::commit() {
  std::lock_guard lock(mu_);
  if (!journal_) return Result<void>(Errc::internal, "coordinator not started");
  return journal_->commit();
}

bool PersistCoordinator::degraded() const {
  std::lock_guard lock(mu_);
  return journal_base_.degraded || (journal_ && journal_->degraded());
}

PersistCoordinator::Stats PersistCoordinator::stats() const {
  std::lock_guard lock(mu_);
  Stats s;
  s.journal = journal_base_;
  if (journal_) accumulate(s.journal, journal_->stats());
  s.snapshots_written = snapshots_written_;
  s.snapshot_failures = snapshot_failures_;
  s.generation = generation_;
  s.issued_tracked = issued_.size();
  s.blocked_tracked = blocked_.size();
  s.dns_tracked = dns_.size();
  return s;
}

}  // namespace apna::services
