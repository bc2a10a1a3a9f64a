#include "core/as_persist.h"

#include <algorithm>
#include <map>
#include <set>

#include "persist/journal.h"
#include "wire/codec.h"
#include "wire/msg_codec.h"

namespace apna::core {
namespace {

std::uint8_t type_byte(PersistRecordType t) {
  return static_cast<std::uint8_t>(t);
}

ByteSpan span_of(const Bytes& b) { return ByteSpan(b.data(), b.size()); }

}  // namespace

// ---------------------------------------------------------------------------
// Journal record emission

void emit_host_upsert(persist::Sink* sink, const HostRecord& rec) {
  if (!sink) return;
  wire::MsgWriter w(96);
  w.u32(rec.hid);
  w.u32(rec.subscriber_id);
  w.raw(rec.keys.enc);
  w.raw(rec.keys.mac);
  w.raw(rec.host_pub);
  sink->append(type_byte(PersistRecordType::host_upsert), w.span());
}

void emit_host_erase(persist::Sink* sink, Hid hid) {
  if (!sink) return;
  wire::MsgWriter w(8);
  w.u32(hid);
  sink->append(type_byte(PersistRecordType::host_erase), w.span());
}

void emit_revoke_ephid(persist::Sink* sink, const EphId& ephid,
                       ExpTime exp_time, Hid hid) {
  if (!sink) return;
  wire::MsgWriter w(32);
  w.raw(ephid.bytes);
  w.u32(exp_time);
  w.u32(hid);
  sink->append(type_byte(PersistRecordType::revoke_ephid), w.span());
}

void emit_revoke_hid(persist::Sink* sink, Hid hid) {
  if (!sink) return;
  wire::MsgWriter w(8);
  w.u32(hid);
  sink->append(type_byte(PersistRecordType::revoke_hid), w.span());
}

void emit_ephid_issued(persist::Sink* sink, const EphId& ephid,
                       ExpTime exp_time, Hid hid) {
  if (!sink) return;
  wire::MsgWriter w(32);
  w.raw(ephid.bytes);
  w.u32(exp_time);
  w.u32(hid);
  sink->append(type_byte(PersistRecordType::ephid_issued), w.span());
}

void emit_domain_block(persist::Sink* sink, std::string_view domain) {
  if (!sink) return;
  wire::MsgWriter w(domain.size() + 4);
  w.str(domain);
  sink->append(type_byte(PersistRecordType::domain_block), w.span());
}

void emit_dns_put(persist::Sink* sink, const DnsRecord& rec) {
  if (!sink) return;
  wire::MsgWriter w(320);
  rec.encode(w);
  sink->append(type_byte(PersistRecordType::dns_put), w.span());
}

void emit_dns_erase(persist::Sink* sink, std::string_view name) {
  if (!sink) return;
  wire::MsgWriter w(name.size() + 4);
  w.str(name);
  sink->append(type_byte(PersistRecordType::dns_erase), w.span());
}

// ---------------------------------------------------------------------------
// Directory layout

std::string snapshot_path(const std::string& dir, std::uint64_t generation) {
  return dir + "/snapshot-" + std::to_string(generation) + ".snap";
}

std::string journal_path(const std::string& dir, std::uint64_t generation) {
  return dir + "/journal-" + std::to_string(generation) + ".log";
}

// ---------------------------------------------------------------------------
// Snapshot image

namespace {

constexpr std::uint16_t kImageVersion = 1;

void put_secrets(wire::Writer& w, const AsSecrets& s) {
  w.raw(ByteSpan(s.ka.data(), s.ka.size()));
  w.raw(ByteSpan(s.ka_infra.data(), s.ka_infra.size()));
  w.raw(ByteSpan(s.sign.seed.data(), s.sign.seed.size()));
  w.raw(ByteSpan(s.sign.pub.data(), s.sign.pub.size()));
  w.raw(ByteSpan(s.dh.priv.data(), s.dh.priv.size()));
  w.raw(ByteSpan(s.dh.pub.data(), s.dh.pub.size()));
}

Result<AsSecrets> get_secrets(wire::Reader& r) {
  AsSecrets s;
  auto ka = r.arr<16>();
  auto ka_infra = r.arr<16>();
  auto seed = r.arr<32>();
  auto pub = r.arr<32>();
  auto dpriv = r.arr<32>();
  auto dpub = r.arr<32>();
  if (!ka || !ka_infra || !seed || !pub || !dpriv || !dpub)
    return Result<AsSecrets>(Errc::malformed, "snapshot secrets");
  s.ka = *ka;
  s.ka_infra = *ka_infra;
  s.sign.seed = *seed;
  s.sign.pub = *pub;
  s.dh.priv = *dpriv;
  s.dh.pub = *dpub;
  return Result<AsSecrets>(s);
}

}  // namespace

Result<void> write_as_snapshot(persist::Vfs& vfs, const std::string& dir,
                               const AsState& as,
                               const AsSnapshotExtras& extras,
                               const persist::SnapshotInfo& info) {
  wire::Writer w;
  w.u16(kImageVersion);
  w.u32(as.aid);
  put_secrets(w, as.secrets);
  w.u64(as.epoch.current());

  // HostDb image. The count prefix is written from a first pass; the
  // stripe locks are shared, so a concurrent writer could skew a single
  // pass's count (snapshots are taken from the coordinator's thread with
  // mutations quiesced per group commit, but stay honest anyway).
  std::vector<HostRecord> hosts;
  hosts.reserve(as.host_db.size());
  as.host_db.for_each([&](const HostRecord& rec) { hosts.push_back(rec); });
  w.u64(hosts.size());
  for (const HostRecord& rec : hosts) {
    w.u32(rec.hid);
    w.u32(rec.subscriber_id);
    w.raw(ByteSpan(rec.keys.enc.data(), rec.keys.enc.size()));
    w.raw(ByteSpan(rec.keys.mac.data(), rec.keys.mac.size()));
    w.raw(ByteSpan(rec.host_pub.data(), rec.host_pub.size()));
  }

  std::vector<std::pair<EphId, ExpTime>> ephids;
  as.revoked.for_each_ephid(
      [&](const EphId& e, ExpTime exp) { ephids.emplace_back(e, exp); });
  w.u64(ephids.size());
  for (const auto& [e, exp] : ephids) {
    w.raw(ByteSpan(e.bytes.data(), e.bytes.size()));
    w.u32(exp);
  }

  struct RevHost {
    Hid hid;
    std::uint32_t revocations;
    bool hid_revoked;
  };
  std::vector<RevHost> rev_hosts;
  as.revoked.for_each_host([&](Hid hid, std::uint32_t n, bool hr) {
    rev_hosts.push_back({hid, n, hr});
  });
  w.u64(rev_hosts.size());
  for (const RevHost& h : rev_hosts) {
    w.u32(h.hid);
    w.u32(h.revocations);
    w.u8(h.hid_revoked ? 1 : 0);
  }

  w.u64(extras.issued.size());
  for (const IssuedEphIdMeta& m : extras.issued) {
    w.raw(ByteSpan(m.ephid.bytes.data(), m.ephid.bytes.size()));
    w.u32(m.exp_time);
    w.u32(m.hid);
  }

  w.u64(extras.blocked_domains.size());
  for (const std::string& d : extras.blocked_domains) w.str(d);

  w.u64(extras.dns_records.size());
  wire::MsgWriter rec_buf(320);
  for (const DnsRecord& rec : extras.dns_records) {
    rec_buf.clear();
    rec.encode(rec_buf);
    w.var(rec_buf.span());
  }

  return persist::write_snapshot_file(
      vfs, snapshot_path(dir, info.generation), info, span_of(w.bytes()));
}

// ---------------------------------------------------------------------------
// Recovery

namespace {

struct RecoveringWorld {
  std::unique_ptr<AsState> as;
  std::uint64_t snapshot_epoch = 0;
  std::vector<IssuedEphIdMeta> issued;
  std::set<std::string> blocked;
  std::map<std::string, DnsRecord> dns;  // ordered → deterministic output
};

Result<RecoveringWorld> load_image(ByteSpan payload,
                                   std::uint32_t max_revocations_per_host,
                                   std::size_t shard_count) {
  wire::Reader r(payload);
  auto version = r.u16();
  if (!version || *version != kImageVersion)
    return Result<RecoveringWorld>(Errc::malformed, "snapshot image version");
  auto aid = r.u32();
  if (!aid) return Result<RecoveringWorld>(Errc::malformed, "snapshot aid");
  auto secrets = get_secrets(r);
  if (!secrets) return Result<RecoveringWorld>(secrets.error());
  auto epoch = r.u64();
  if (!epoch)
    return Result<RecoveringWorld>(Errc::malformed, "snapshot epoch");

  RecoveringWorld world;
  world.snapshot_epoch = *epoch;
  world.as = std::make_unique<AsState>(*aid, secrets.take(),
                                       max_revocations_per_host, shard_count);

  auto host_count = r.u64();
  if (!host_count)
    return Result<RecoveringWorld>(Errc::malformed, "snapshot host count");
  for (std::uint64_t i = 0; i < *host_count; ++i) {
    HostRecord rec;
    auto hid = r.u32();
    auto sub = r.u32();
    auto enc = r.arr<32>();
    auto mac = r.arr<16>();
    auto pub = r.arr<32>();
    if (!hid || !sub || !enc || !mac || !pub)
      return Result<RecoveringWorld>(Errc::malformed, "snapshot host record");
    rec.hid = *hid;
    rec.subscriber_id = *sub;
    rec.keys.enc = *enc;
    rec.keys.mac = *mac;
    rec.host_pub = *pub;
    world.as->host_db.restore(std::move(rec));
  }

  auto ephid_count = r.u64();
  if (!ephid_count)
    return Result<RecoveringWorld>(Errc::malformed, "snapshot ephid count");
  for (std::uint64_t i = 0; i < *ephid_count; ++i) {
    auto e = r.arr<16>();
    auto exp = r.u32();
    if (!e || !exp)
      return Result<RecoveringWorld>(Errc::malformed, "snapshot ephid");
    EphId ephid;
    ephid.bytes = *e;
    world.as->revoked.restore_ephid(ephid, *exp);
  }

  auto rev_host_count = r.u64();
  if (!rev_host_count)
    return Result<RecoveringWorld>(Errc::malformed, "snapshot rev hosts");
  for (std::uint64_t i = 0; i < *rev_host_count; ++i) {
    auto hid = r.u32();
    auto n = r.u32();
    auto flag = r.u8();
    if (!hid || !n || !flag)
      return Result<RecoveringWorld>(Errc::malformed, "snapshot rev host");
    world.as->revoked.restore_host(*hid, *n, *flag != 0);
  }

  auto issued_count = r.u64();
  if (!issued_count)
    return Result<RecoveringWorld>(Errc::malformed, "snapshot issued count");
  for (std::uint64_t i = 0; i < *issued_count; ++i) {
    auto e = r.arr<16>();
    auto exp = r.u32();
    auto hid = r.u32();
    if (!e || !exp || !hid)
      return Result<RecoveringWorld>(Errc::malformed, "snapshot issued");
    IssuedEphIdMeta m;
    m.ephid.bytes = *e;
    m.exp_time = *exp;
    m.hid = *hid;
    world.issued.push_back(m);
  }

  auto blocked_count = r.u64();
  if (!blocked_count)
    return Result<RecoveringWorld>(Errc::malformed, "snapshot blocked count");
  for (std::uint64_t i = 0; i < *blocked_count; ++i) {
    auto d = r.str();
    if (!d)
      return Result<RecoveringWorld>(Errc::malformed, "snapshot blocked");
    world.blocked.insert(d.take());
  }

  auto dns_count = r.u64();
  if (!dns_count)
    return Result<RecoveringWorld>(Errc::malformed, "snapshot dns count");
  for (std::uint64_t i = 0; i < *dns_count; ++i) {
    auto raw = r.var();
    if (!raw)
      return Result<RecoveringWorld>(Errc::malformed, "snapshot dns record");
    auto rec = decode_msg<DnsRecord>(*raw);
    if (!rec)
      return Result<RecoveringWorld>(Errc::malformed, "snapshot dns parse");
    DnsRecord d = rec.take();
    world.dns[d.name] = std::move(d);
  }
  return Result<RecoveringWorld>(std::move(world));
}

/// Applies one CRC-valid journal record to the recovering world.
/// Returns false when the payload is malformed (skipped, counted).
bool apply_record(RecoveringWorld& world, std::uint8_t type, ByteSpan payload) {
  wire::Reader r(payload);
  switch (static_cast<PersistRecordType>(type)) {
    case PersistRecordType::host_upsert: {
      auto hid = r.u32();
      auto sub = r.u32();
      auto enc = r.arr<32>();
      auto mac = r.arr<16>();
      auto pub = r.arr<32>();
      if (!hid || !sub || !enc || !mac || !pub) return false;
      HostRecord rec;
      rec.hid = *hid;
      rec.subscriber_id = *sub;
      rec.keys.enc = *enc;
      rec.keys.mac = *mac;
      rec.host_pub = *pub;
      world.as->host_db.restore(std::move(rec));
      return true;
    }
    case PersistRecordType::host_erase: {
      auto hid = r.u32();
      if (!hid) return false;
      world.as->host_db.restore_erase(*hid);
      return true;
    }
    case PersistRecordType::revoke_ephid: {
      auto e = r.arr<16>();
      auto exp = r.u32();
      auto hid = r.u32();
      if (!e || !exp || !hid) return false;
      EphId ephid;
      ephid.bytes = *e;
      // The normal path: replay IS a re-application of the original
      // mutation, escalation counters included. The epoch bumps it does
      // are invisible — no worker observes the state until recovery
      // finishes with the single advance_to below.
      world.as->revoked.revoke_ephid(ephid, *exp, *hid);
      return true;
    }
    case PersistRecordType::revoke_hid: {
      auto hid = r.u32();
      if (!hid) return false;
      world.as->revoked.revoke_hid(*hid);
      return true;
    }
    case PersistRecordType::ephid_issued: {
      auto e = r.arr<16>();
      auto exp = r.u32();
      auto hid = r.u32();
      if (!e || !exp || !hid) return false;
      IssuedEphIdMeta m;
      m.ephid.bytes = *e;
      m.exp_time = *exp;
      m.hid = *hid;
      world.issued.push_back(m);
      return true;
    }
    case PersistRecordType::domain_block: {
      auto d = r.str();
      if (!d) return false;
      world.blocked.insert(d.take());
      return true;
    }
    case PersistRecordType::dns_put: {
      auto rec = DnsRecord::decode(r);
      if (!rec) return false;
      DnsRecord d = rec.take();
      world.dns[d.name] = std::move(d);
      return true;
    }
    case PersistRecordType::dns_erase: {
      auto n = r.str();
      if (!n) return false;
      world.dns.erase(*n);
      return true;
    }
  }
  return false;  // unknown record type: skip, count
}

/// Parses "<stem>-<gen>.<ext>" names; returns generations ascending.
std::vector<std::uint64_t> generations(const std::vector<std::string>& names,
                                       std::string_view stem,
                                       std::string_view ext) {
  std::vector<std::uint64_t> gens;
  for (const std::string& n : names) {
    if (n.size() <= stem.size() + 1 + ext.size()) continue;
    if (n.compare(0, stem.size(), stem) != 0 || n[stem.size()] != '-')
      continue;
    if (n.compare(n.size() - ext.size(), ext.size(), ext) != 0) continue;
    const std::string digits =
        n.substr(stem.size() + 1, n.size() - stem.size() - 1 - ext.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
      continue;
    gens.push_back(std::stoull(digits));
  }
  std::sort(gens.begin(), gens.end());
  gens.erase(std::unique(gens.begin(), gens.end()), gens.end());
  return gens;
}

}  // namespace

Result<AsStateRecovery> AsState::recover(persist::Vfs& vfs,
                                         const std::string& dir,
                                         std::uint32_t max_revocations_per_host,
                                         std::size_t shard_count) {
  const std::vector<std::string> names = vfs.list(dir);
  const std::vector<std::uint64_t> snap_gens =
      generations(names, "snapshot", ".snap");
  const std::vector<std::uint64_t> journal_gens =
      generations(names, "journal", ".log");

  AsStateRecovery out;
  RecoveringWorld world;
  bool loaded = false;
  for (auto it = snap_gens.rbegin(); it != snap_gens.rend(); ++it) {
    auto snap = persist::read_snapshot_file(vfs, snapshot_path(dir, *it));
    if (!snap) {
      ++out.snapshots_skipped;
      continue;
    }
    auto image = load_image(ByteSpan(snap->payload.data(),
                                     snap->payload.size()),
                            max_revocations_per_host, shard_count);
    if (!image) {
      ++out.snapshots_skipped;
      continue;
    }
    world = image.take();
    out.snapshot_generation = *it;
    loaded = true;
    break;
  }
  if (!loaded)
    return Result<AsStateRecovery>(Errc::not_found,
                                   "no loadable snapshot generation");

  // Replay every journal from the chosen generation on, oldest first.
  // Journals older than the snapshot are already folded into it; the
  // chosen generation's journal holds the suffix written after it; later
  // generations exist when a newer snapshot was corrupt — their journals
  // continue the record stream without overlap (rotation happens exactly
  // at snapshot publication).
  for (std::uint64_t gen : journal_gens) {
    if (gen < out.snapshot_generation) continue;
    const persist::ReplayResult rr = persist::replay_journal_file(
        vfs, journal_path(dir, gen), [&](std::uint8_t type, ByteSpan payload) {
          if (apply_record(world, type, payload))
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
  out.snapshot_epoch = world.snapshot_epoch;
  world.as->epoch.advance_to(
      std::max(world.snapshot_epoch, world.as->epoch.current()) + 1);

  out.as = std::move(world.as);
  out.issued = std::move(world.issued);
  out.blocked_domains.assign(world.blocked.begin(), world.blocked.end());
  out.dns_records.reserve(world.dns.size());
  for (auto& [name, rec] : world.dns) out.dns_records.push_back(std::move(rec));
  return Result<AsStateRecovery>(std::move(out));
}

}  // namespace apna::core
