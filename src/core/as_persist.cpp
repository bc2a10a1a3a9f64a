#include "core/as_persist.h"

#include <algorithm>
#include <charconv>
#include <limits>

#include "persist/journal.h"
#include "wire/codec.h"
#include "wire/msg_codec.h"

namespace apna::core {
namespace {

/// Version in every snapshot_head; a snapshot of another version does not
/// load.
constexpr std::uint16_t kFormatVersion = 2;

// Payloads with no core type of their own.
struct EphIdRevocation {
  EphId ephid;
  ExpTime exp_time = 0;
  Hid hid = 0;
};
struct RevokedEphId {
  EphId ephid;
  ExpTime exp_time = 0;
};
struct HostRevocations {
  Hid hid = 0;
  std::uint32_t revocations = 0;
  bool hid_revoked = false;
};
struct SnapshotHead {
  SnapshotInfo info;
  Aid aid = 0;
  AsSecrets secrets;
  std::uint64_t epoch = 0;
};
struct SnapshotEnd {
  std::uint64_t records = 0;
};

// ---------------------------------------------------------------------------
// Record codecs: one encoder (`put`) and one decoder (`get`) per payload.
// Record types whose payloads share a shape share its codec: host_erase
// and revoke_hid (an HID), domain_block and dns_erase (a name). A decoder
// reads the fields it needs and ignores trailing bytes.

/// Moves one decoded field into place; false once the reader runs short.
template <class T, class Field>
bool take(Result<T> v, Field& out) {
  if (!v) return false;
  out = v.take();
  return true;
}

void put(wire::MsgWriter& w, Hid hid) { w.u32(hid); }
bool get(wire::Reader& r, Hid& hid) { return take(r.u32(), hid); }

void put(wire::MsgWriter& w, std::string_view name) { w.str(name); }
bool get(wire::Reader& r, std::string& name) { return take(r.str(), name); }

void put(wire::MsgWriter& w, const HostRecord& rec) {
  w.u32(rec.hid);
  w.u32(rec.subscriber_id);
  w.raw(rec.keys.enc);
  w.raw(rec.keys.mac);
  w.raw(rec.host_pub);
}
bool get(wire::Reader& r, HostRecord& rec) {
  return take(r.u32(), rec.hid) && take(r.u32(), rec.subscriber_id) &&
         take(r.arr<32>(), rec.keys.enc) && take(r.arr<16>(), rec.keys.mac) &&
         take(r.arr<32>(), rec.host_pub);
}

void put(wire::MsgWriter& w, const EphIdRevocation& m) {
  w.raw(m.ephid.bytes);
  w.u32(m.exp_time);
  w.u32(m.hid);
}
bool get(wire::Reader& r, EphIdRevocation& m) {
  return take(r.arr<16>(), m.ephid.bytes) && take(r.u32(), m.exp_time) &&
         take(r.u32(), m.hid);
}

void put(wire::MsgWriter& w, const DnsRecord& rec) { rec.encode(w); }
bool get(wire::Reader& r, DnsRecord& rec) {
  return take(DnsRecord::decode(r), rec);
}

void put(wire::MsgWriter& w, const RevokedEphId& e) {
  w.raw(e.ephid.bytes);
  w.u32(e.exp_time);
}
bool get(wire::Reader& r, RevokedEphId& e) {
  return take(r.arr<16>(), e.ephid.bytes) && take(r.u32(), e.exp_time);
}

void put(wire::MsgWriter& w, const HostRevocations& h) {
  w.u32(h.hid);
  w.u32(h.revocations);
  w.u8(h.hid_revoked ? 1 : 0);
}
bool get(wire::Reader& r, HostRevocations& h) {
  return take(r.u32(), h.hid) && take(r.u32(), h.revocations) &&
         take(r.u8(), h.hid_revoked);
}

void put(wire::MsgWriter& w, const SnapshotHead& h) {
  w.u16(kFormatVersion);
  w.u64(h.info.generation);
  w.u64(h.info.seed);
  w.str(h.info.git_sha);
  w.u32(h.aid);
  w.raw(h.secrets.ka);
  w.raw(h.secrets.ka_infra);
  w.raw(h.secrets.sign.seed);
  w.raw(h.secrets.sign.pub);
  w.raw(h.secrets.dh.priv);
  w.raw(h.secrets.dh.pub);
  w.u64(h.epoch);
}
bool get(wire::Reader& r, SnapshotHead& h) {
  std::uint16_t version = 0;
  AsSecrets& s = h.secrets;
  return take(r.u16(), version) && version == kFormatVersion &&
         take(r.u64(), h.info.generation) && take(r.u64(), h.info.seed) &&
         take(r.str(), h.info.git_sha) && take(r.u32(), h.aid) &&
         take(r.arr<16>(), s.ka) && take(r.arr<16>(), s.ka_infra) &&
         take(r.arr<32>(), s.sign.seed) && take(r.arr<32>(), s.sign.pub) &&
         take(r.arr<32>(), s.dh.priv) && take(r.arr<32>(), s.dh.pub) &&
         take(r.u64(), h.epoch);
}

void put(wire::MsgWriter& w, const SnapshotEnd& e) { w.u64(e.records); }
bool get(wire::Reader& r, SnapshotEnd& e) { return take(r.u64(), e.records); }

/// Appends `p` to `sink` as one `type` record, encoding it in `scratch`.
template <class Payload>
void write_record(persist::Sink& sink, wire::MsgWriter& scratch,
                  PersistRecordType type, const Payload& p) {
  scratch.clear();
  put(scratch, p);
  sink.append(static_cast<std::uint8_t>(type), scratch.span());
}

template <class Payload>
void emit(persist::Sink* sink, PersistRecordType type, const Payload& p) {
  if (!sink) return;
  wire::MsgWriter scratch(128);
  write_record(*sink, scratch, type, p);
}

template <class Payload>
bool decode(ByteSpan payload, Payload& out) {
  wire::Reader r(payload);
  return get(r, out);
}

/// Applies one record through the restore-path mutators; a reserved
/// ephid_issued record applies as nothing. Returns false when the payload
/// fails its decoder or the type is a head or an end.
bool apply_record(AsState& as, ServiceRecords& services, std::uint8_t type,
                  ByteSpan payload) {
  switch (static_cast<PersistRecordType>(type)) {
    case PersistRecordType::host_upsert: {
      HostRecord rec;
      if (!decode(payload, rec)) return false;
      as.host_db.restore(std::move(rec));
      return true;
    }
    case PersistRecordType::host_erase: {
      Hid hid = 0;
      if (!decode(payload, hid)) return false;
      as.host_db.restore_erase(hid);
      return true;
    }
    case PersistRecordType::revoke_ephid: {
      EphIdRevocation m;
      if (!decode(payload, m)) return false;
      // The normal path: replay IS a re-application of the original
      // mutation, escalation counters included (an EphID the snapshot
      // already holds counts nothing). The epoch bumps it does are
      // invisible — no worker observes the state until recovery finishes
      // with the single advance_to in AsState::recover.
      as.revoked.revoke_ephid(m.ephid, m.exp_time, m.hid);
      return true;
    }
    case PersistRecordType::revoke_hid: {
      Hid hid = 0;
      if (!decode(payload, hid)) return false;
      as.revoked.revoke_hid(hid);
      return true;
    }
    case PersistRecordType::revoked_ephid: {
      RevokedEphId e;
      if (!decode(payload, e)) return false;
      as.revoked.restore_ephid(e.ephid, e.exp_time);
      return true;
    }
    case PersistRecordType::host_revocations: {
      HostRevocations h;
      if (!decode(payload, h)) return false;
      as.revoked.restore_host(h.hid, h.revocations, h.hid_revoked);
      return true;
    }
    case PersistRecordType::ephid_issued:
      return true;  // reserved: files from older builds still carry it
    default:
      return services.apply(type, payload);
  }
}

/// Loads one snapshot file into `out`'s state, epoch and service records.
/// Accepts the file only whole: no torn tail, the head first, every
/// record decodes, and the end record counts the records between.
bool load_snapshot(persist::Vfs& vfs, const std::string& path,
                   AsStateRecovery& out) {
  std::unique_ptr<AsState> as;
  ServiceRecords services;
  SnapshotHead head;
  std::uint64_t records = 0;
  bool ok = true;
  bool ended = false;
  const persist::ReplayResult rr = persist::replay_journal_file(
      vfs, path, [&](std::uint8_t type, ByteSpan payload) {
        const auto t = static_cast<PersistRecordType>(type);
        if (!ok || ended) {
          ok = false;  // a record after the end, or after a bad one
        } else if (!as) {
          ok = t == PersistRecordType::snapshot_head && decode(payload, head);
          if (ok) as = std::make_unique<AsState>(head.aid, head.secrets);
        } else if (t == PersistRecordType::snapshot_end) {
          SnapshotEnd end;
          ok = decode(payload, end) && end.records == records;
          ended = true;
        } else {
          ok = apply_record(*as, services, type, payload);
          ++records;
        }
      });
  if (!ok || !ended || rr.torn()) return false;
  out.as = std::move(as);
  out.services = std::move(services);
  out.snapshot_epoch = head.epoch;
  return true;
}

/// The generation in a "<stem>-<gen><ext>" name, or 0.
std::uint64_t parse_generation(std::string_view name, std::string_view stem,
                               std::string_view ext) {
  if (name.size() <= stem.size() + 1 + ext.size() ||
      !name.starts_with(stem) || name[stem.size()] != '-' ||
      !name.ends_with(ext))
    return 0;
  const char* first = name.data() + stem.size() + 1;
  const char* last = name.data() + name.size() - ext.size();
  std::uint64_t gen = 0;
  const auto [end, ec] = std::from_chars(first, last, gen);
  return ec == std::errc() && end == last ? gen : 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// Journal record emission

void emit_host_upsert(persist::Sink* sink, const HostRecord& rec) {
  emit(sink, PersistRecordType::host_upsert, rec);
}

void emit_host_erase(persist::Sink* sink, Hid hid) {
  emit(sink, PersistRecordType::host_erase, hid);
}

void emit_revoke_ephid(persist::Sink* sink, const EphId& ephid,
                       ExpTime exp_time, Hid hid) {
  emit(sink, PersistRecordType::revoke_ephid,
       EphIdRevocation{ephid, exp_time, hid});
}

void emit_revoke_hid(persist::Sink* sink, Hid hid) {
  emit(sink, PersistRecordType::revoke_hid, hid);
}

void emit_domain_block(persist::Sink* sink, std::string_view domain) {
  emit(sink, PersistRecordType::domain_block, domain);
}

void emit_dns_put(persist::Sink* sink, const DnsRecord& rec) {
  emit(sink, PersistRecordType::dns_put, rec);
}

void emit_dns_erase(persist::Sink* sink, std::string_view name) {
  emit(sink, PersistRecordType::dns_erase, name);
}

bool ServiceRecords::apply(std::uint8_t type, ByteSpan payload) {
  switch (static_cast<PersistRecordType>(type)) {
    case PersistRecordType::domain_block: {
      std::string domain;
      if (!decode(payload, domain)) return false;
      blocked_domains.insert(std::move(domain));
      return true;
    }
    case PersistRecordType::dns_put: {
      DnsRecord rec;
      if (!decode(payload, rec)) return false;
      std::string name = rec.name;
      dns.insert_or_assign(std::move(name), std::move(rec));
      return true;
    }
    case PersistRecordType::dns_erase: {
      std::string name;
      if (!decode(payload, name)) return false;
      dns.erase(name);
      return true;
    }
    default:
      return false;
  }
}

// ---------------------------------------------------------------------------
// Directory layout

std::string snapshot_path(const std::string& dir, std::uint64_t generation) {
  return dir + "/snapshot-" + std::to_string(generation) + ".snap";
}

std::string journal_path(const std::string& dir, std::uint64_t generation) {
  return dir + "/journal-" + std::to_string(generation) + ".log";
}

Generations list_generations(persist::Vfs& vfs, const std::string& dir) {
  Generations out;
  for (const std::string& name : vfs.list(dir)) {
    if (auto g = parse_generation(name, "snapshot", ".snap"))
      out.snapshots.push_back(g);
    if (auto g = parse_generation(name, "journal", ".log"))
      out.journals.push_back(g);
  }
  for (auto* gens : {&out.snapshots, &out.journals}) {
    std::sort(gens->begin(), gens->end());
    gens->erase(std::unique(gens->begin(), gens->end()), gens->end());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Snapshot

Result<void> write_as_snapshot(persist::Vfs& vfs, const std::string& dir,
                               const AsState& as,
                               const ServiceRecords& services,
                               const SnapshotInfo& info) {
  const std::string path = snapshot_path(dir, info.generation);
  const std::string tmp = path + ".tmp";
  Result<void> written = Result<void>::success();
  {
    // The whole snapshot is one group commit: one buffer, one append, one
    // sync. The end record counts what the stripe walks actually visited.
    persist::JournalWriter w(
        vfs, tmp, /*truncate=*/true,
        {persist::FsyncPolicy::every_commit,
         std::numeric_limits<std::size_t>::max()});
    // One scratch writer for every record: a pooled writer per record
    // costs more than the encoding.
    wire::MsgWriter scratch(128);
    const auto record = [&](PersistRecordType type, const auto& payload) {
      write_record(w, scratch, type, payload);
    };
    record(PersistRecordType::snapshot_head,
           SnapshotHead{info, as.aid, as.secrets, as.epoch.current()});
    SnapshotEnd end;
    as.host_db.for_each([&](const HostRecord& rec) {
      record(PersistRecordType::host_upsert, rec);
      ++end.records;
    });
    as.revoked.for_each(
        [&](const EphId& e, ExpTime exp) {
          record(PersistRecordType::revoked_ephid, RevokedEphId{e, exp});
          ++end.records;
        },
        [&](Hid hid, std::uint32_t n, bool revoked) {
          record(PersistRecordType::host_revocations,
                 HostRevocations{hid, n, revoked});
          ++end.records;
        });
    for (const std::string& d : services.blocked_domains)
      record(PersistRecordType::domain_block, std::string_view(d));
    for (const auto& [name, rec] : services.dns)
      record(PersistRecordType::dns_put, rec);
    end.records += services.blocked_domains.size() + services.dns.size();
    record(PersistRecordType::snapshot_end, end);
    written = w.commit();
  }  // closes the file before it is published
  if (!written) {
    (void)vfs.remove(tmp);
    return written;
  }
  return vfs.rename(tmp, path);
}

// ---------------------------------------------------------------------------
// Recovery

Result<AsStateRecovery> AsState::recover(persist::Vfs& vfs,
                                         const std::string& dir) {
  const Generations gens = list_generations(vfs, dir);
  AsStateRecovery out;
  for (auto it = gens.snapshots.rbegin(); it != gens.snapshots.rend(); ++it) {
    if (load_snapshot(vfs, snapshot_path(dir, *it), out)) {
      out.snapshot_generation = *it;
      break;
    }
    ++out.snapshots_skipped;
  }
  if (!out.as)
    return Result<AsStateRecovery>(Errc::not_found,
                                   "no loadable snapshot generation");

  // Replay every journal from the chosen generation on, oldest first.
  // Journals older than the snapshot are already folded into it; the
  // chosen generation's journal holds the suffix written after it; later
  // generations exist when a newer snapshot was corrupt — their journals
  // continue the record stream without overlap (rotation happens exactly
  // at snapshot publication).
  for (std::uint64_t gen : gens.journals) {
    if (gen < out.snapshot_generation) continue;
    const persist::ReplayResult rr = persist::replay_journal_file(
        vfs, journal_path(dir, gen), [&](std::uint8_t type, ByteSpan payload) {
          if (apply_record(*out.as, out.services, type, payload))
            ++out.journal_records_replayed;
          else
            ++out.records_malformed;
        });
    out.journal_bytes_discarded += rr.bytes_discarded;
  }

  // The one-bump contract: restored state was installed through
  // non-bumping paths (or on a world no worker can see yet); advance the
  // epoch once past everything so every per-worker FlowCache entry
  // stamped before the crash is invalid after it.
  out.as->epoch.advance_to(
      std::max(out.snapshot_epoch, out.as->epoch.current()) + 1);
  return Result<AsStateRecovery>(std::move(out));
}

}  // namespace apna::core
