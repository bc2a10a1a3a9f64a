// Durability layer tests: CRC32C KATs, journal framing under every
// truncation point and bit flip, AS snapshot files (round trips on MemVfs
// and the real filesystem; every flipped byte and every cut rejected),
// fault-injected degraded modes (short writes, fsync failures), and full
// AsState snapshot + journal recovery — including the property that
// recovery from ANY journal prefix equals a reference rebuild of the same
// mutation prefix, the corrupt-snapshot generation fallback, the reserved
// Fig 3 issuance records older files carry, and concurrent sink appends
// racing snapshot rotation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "core/as_persist.h"
#include "core/as_state.h"
#include "crypto/rng.h"
#include "persist/crc32c.h"
#include "persist/journal.h"
#include "persist/vfs.h"
#include "services/persist_coordinator.h"
#include "util/hex.h"

namespace apna {
namespace {

using core::AsState;
using persist::crc32c;

Bytes bytes_of(const std::string& s) { return to_bytes(s); }

ByteSpan span_of(const Bytes& b) { return ByteSpan(b.data(), b.size()); }

// ---- CRC32C ------------------------------------------------------------------

TEST(Crc32c, KnownAnswers) {
  // The canonical Castagnoli check value.
  const Bytes check = bytes_of("123456789");
  EXPECT_EQ(crc32c(span_of(check)), 0xE3069283u);
  const Bytes empty;
  EXPECT_EQ(crc32c(span_of(empty)), 0u);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  crypto::ChaChaRng rng(7);
  const Bytes data = rng.bytes(257);
  const std::uint32_t whole = crc32c(span_of(data));
  for (std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{128},
                            data.size() - 1, data.size()}) {
    const std::uint32_t head = crc32c(ByteSpan(data.data(), split));
    EXPECT_EQ(crc32c(ByteSpan(data.data() + split, data.size() - split), head),
              whole);
  }
}

// ---- journal framing ---------------------------------------------------------

struct Record {
  std::uint8_t type;
  Bytes payload;
  bool operator==(const Record&) const = default;
};

std::vector<Record> make_records(std::size_t n, std::uint64_t seed) {
  crypto::ChaChaRng rng(seed);
  std::vector<Record> out;
  for (std::size_t i = 0; i < n; ++i) {
    Record r;
    r.type = static_cast<std::uint8_t>(1 + i % 8);
    r.payload = rng.bytes(i % 3 == 0 ? 0 : rng.next_u32() % 48);
    out.push_back(std::move(r));
  }
  return out;
}

void write_records(persist::JournalWriter& w, const std::vector<Record>& recs) {
  for (const Record& r : recs)
    ASSERT_TRUE(w.append(r.type, span_of(r.payload)));
  ASSERT_TRUE(w.commit().ok());
}

std::vector<Record> replay_all(ByteSpan data, persist::ReplayResult* res) {
  std::vector<Record> seen;
  const auto r = persist::replay_journal(data, [&](std::uint8_t t, ByteSpan p) {
    seen.push_back(Record{t, Bytes(p.begin(), p.end())});
  });
  if (res) *res = r;
  return seen;
}

TEST(Journal, RoundTrip) {
  persist::MemVfs vfs;
  const auto recs = make_records(32, 11);
  {
    persist::JournalWriter w(vfs, "d/j.log", true);
    write_records(w, recs);
    EXPECT_FALSE(w.degraded());
    EXPECT_EQ(w.stats().appended, recs.size());
    EXPECT_EQ(w.stats().dropped, 0u);
  }
  persist::ReplayResult res;
  std::vector<Record> seen;
  const auto rr = persist::replay_journal_file(
      vfs, "d/j.log", [&](std::uint8_t t, ByteSpan p) {
        seen.push_back(Record{t, Bytes(p.begin(), p.end())});
      });
  EXPECT_EQ(rr.records, recs.size());
  EXPECT_EQ(rr.bytes_discarded, 0u);
  EXPECT_FALSE(rr.torn());
  EXPECT_EQ(seen, recs);
  // A missing journal is empty, not an error.
  const auto missing = persist::replay_journal_file(
      vfs, "d/absent.log", [](std::uint8_t, ByteSpan) { FAIL(); });
  EXPECT_EQ(missing.records, 0u);
}

TEST(Journal, GroupCommitFlushesOnRecordThreshold) {
  persist::MemVfs vfs;
  persist::JournalConfig jc;
  jc.group_commit_records = 4;
  persist::JournalWriter w(vfs, "j.log", true, jc);
  const auto recs = make_records(7, 3);
  for (const Record& r : recs) ASSERT_TRUE(w.append(r.type, span_of(r.payload)));
  // 7 appends = one auto-commit at 4; records 5..7 still buffered.
  EXPECT_EQ(w.stats().commits, 1u);
  std::size_t on_disk = 0;
  persist::replay_journal_file(vfs, "j.log",
                               [&](std::uint8_t, ByteSpan) { ++on_disk; });
  EXPECT_EQ(on_disk, 4u);
  ASSERT_TRUE(w.commit().ok());
  on_disk = 0;
  persist::replay_journal_file(vfs, "j.log",
                               [&](std::uint8_t, ByteSpan) { ++on_disk; });
  EXPECT_EQ(on_disk, 7u);
}

/// Satellite property: for EVERY truncation point, the journal's effective
/// content is the longest valid frame prefix — never garbage, never a
/// throw, and consumed + discarded always accounts for every byte.
TEST(Journal, EveryTruncationYieldsLongestValidPrefix) {
  persist::MemVfs vfs;
  const auto recs = make_records(16, 23);
  {
    persist::JournalWriter w(vfs, "j.log", true);
    write_records(w, recs);
  }
  const Bytes full = vfs.read_all("j.log").take();
  // Frame boundaries: prefix sums of 8 + (1 + payload).
  std::vector<std::size_t> ends;
  std::size_t pos = 0;
  for (const Record& r : recs) {
    pos += 8 + 1 + r.payload.size();
    ends.push_back(pos);
  }
  ASSERT_EQ(pos, full.size());

  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    persist::ReplayResult res;
    const auto seen = replay_all(ByteSpan(full.data(), cut), &res);
    std::size_t expect = 0;
    while (expect < ends.size() && ends[expect] <= cut) ++expect;
    ASSERT_EQ(seen.size(), expect) << "cut at " << cut;
    for (std::size_t i = 0; i < expect; ++i) ASSERT_EQ(seen[i], recs[i]);
    ASSERT_EQ(res.bytes_consumed + res.bytes_discarded, cut);
    ASSERT_EQ(res.torn(), cut != (expect == 0 ? 0 : ends[expect - 1]) ||
                              (expect == 0 && cut != 0));
  }
}

/// Flipping any single byte never crashes the reader; every record it
/// still reports is a bona fide prefix record (CRC killed the rest).
TEST(Journal, BitFlipsDropTheSuffixNeverGarbage) {
  persist::MemVfs vfs;
  const auto recs = make_records(12, 31);
  {
    persist::JournalWriter w(vfs, "j.log", true);
    write_records(w, recs);
  }
  const Bytes full = vfs.read_all("j.log").take();
  for (std::size_t off = 0; off < full.size(); ++off) {
    Bytes mut = full;
    mut[off] ^= 0x40;
    const auto seen = replay_all(span_of(mut), nullptr);
    ASSERT_LE(seen.size(), recs.size());
    for (std::size_t i = 0; i < seen.size(); ++i) {
      // A flipped length prefix can only shrink the valid prefix; records
      // reported before the damage must match the originals byte for byte.
      ASSERT_EQ(seen[i], recs[i]) << "flip at " << off;
    }
  }
}

// ---- fault injection ---------------------------------------------------------

TEST(Journal, ShortWriteEntersCountedDegradedMode) {
  persist::MemVfs mem;
  persist::FaultVfs vfs(mem);
  persist::JournalConfig jc;
  jc.group_commit_records = 1;  // flush per record so the fault lands now
  persist::JournalWriter w(vfs, "j.log", true, jc);

  const Bytes p0 = bytes_of("first-record-payload");
  ASSERT_TRUE(w.append(1, span_of(p0)));
  ASSERT_FALSE(w.degraded());

  // Budget allows 10 more bytes: the next frame tears mid-write.
  vfs.faults().append_byte_budget = 10;
  const Bytes p1 = bytes_of("doomed-record-payload");
  EXPECT_FALSE(w.append(2, span_of(p1)));
  EXPECT_TRUE(w.degraded());
  EXPECT_EQ(vfs.counters().appends_failed, 1u);

  // Sticky: later appends are counted drops, the writer never throws.
  EXPECT_FALSE(w.append(3, span_of(p0)));
  const auto st = w.stats();
  EXPECT_EQ(st.appended, 1u);
  EXPECT_EQ(st.dropped, 2u);

  // The torn tail truncates at the last valid frame on replay.
  persist::ReplayResult res;
  const auto seen =
      replay_all(span_of(mem.read_all("j.log").take()), &res);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].payload, p0);
  EXPECT_TRUE(res.torn());
  EXPECT_EQ(res.bytes_discarded, 10u);
}

TEST(Journal, FsyncFailureIsCountedNotSticky) {
  persist::MemVfs mem;
  persist::FaultVfs vfs(mem);
  persist::JournalConfig jc;
  jc.fsync = persist::FsyncPolicy::every_commit;
  persist::JournalWriter w(vfs, "j.log", true, jc);
  vfs.faults().fail_next_syncs = 1;

  const Bytes p = bytes_of("payload");
  ASSERT_TRUE(w.append(1, span_of(p)));
  EXPECT_FALSE(w.commit().ok());  // the barrier failed...
  EXPECT_FALSE(w.degraded());     // ...but the data reached the file
  EXPECT_EQ(w.stats().sync_failures, 1u);
  ASSERT_TRUE(w.append(2, span_of(p)));
  EXPECT_TRUE(w.commit().ok());

  std::size_t n = 0;
  persist::replay_journal_file(vfs, "j.log",
                               [&](std::uint8_t, ByteSpan) { ++n; });
  EXPECT_EQ(n, 2u);
}

// ---- AsState snapshot + journal recovery -------------------------------------

core::DnsRecord make_dns(const std::string& name, std::uint32_t ipv4) {
  core::DnsRecord rec;
  rec.name = name;
  rec.ipv4 = ipv4;
  rec.cert.aid = 64512;
  rec.cert.exp_time = 1'000'000;
  return rec;
}

/// The reference model a recovery must reproduce: plain maps driven by
/// the same mutation sequence.
struct Shadow {
  std::map<core::Hid, core::HostAsKeys> hosts;
  std::set<std::string> revoked_hex;  // EphId.hex() of revoked EphIDs
  std::set<core::Hid> revoked_hids;
  std::set<std::string> blocked;
  std::map<std::string, std::uint32_t> dns;  // name -> ipv4
};

/// A Fig 3 issuance record as older builds journaled and snapshotted it:
/// type 5, payload EphID ‖ ExpTime ‖ HID (the retired `ephid_issued`
/// golden vector). Recovery must accept it and drop it.
constexpr auto kIssuedType =
    static_cast<std::uint8_t>(core::PersistRecordType::ephid_issued);
constexpr std::string_view kEphIdIssued =
    "303132333435363738393a3b3c3d3e3f6555428000000007";

/// One deterministic mutation applied to (AsState, Shadow) and journaled
/// through `sink`. Returns the number of journal records emitted.
struct Mutator {
  AsState& as;
  Shadow& shadow;
  persist::Sink* sink;
  crypto::ChaChaRng rng{99};
  core::Hid next_hid = 100;
  std::vector<std::pair<core::EphId, core::Hid>> live_ephids{};

  std::size_t step(std::uint32_t op) {
    switch (op % 6) {
      case 0:
      case 1: {  // host upsert (the dominant record type)
        core::HostRecord rec;
        rec.hid = next_hid++;
        rng.fill(MutByteSpan(rec.keys.enc.data(), rec.keys.enc.size()));
        rng.fill(MutByteSpan(rec.keys.mac.data(), rec.keys.mac.size()));
        rec.subscriber_id = 1;
        as.host_db.upsert(rec);
        shadow.hosts[rec.hid] = rec.keys;
        core::emit_host_upsert(sink, rec);
        return 1;
      }
      case 2: {  // revoke a fresh EphID
        const core::Hid hid = 100 + rng.next_u32() % std::max<core::Hid>(
                                        1, next_hid - 100);
        const core::EphId e = as.codec.issue(hid, 2'000'000, rng);
        as.revoked.revoke_ephid(e, 2'000'000, hid);
        shadow.revoked_hex.insert(e.hex());
        live_ephids.emplace_back(e, hid);
        core::emit_revoke_ephid(sink, e, 2'000'000, hid);
        return 1;
      }
      case 3: {  // erase the oldest host still present
        if (shadow.hosts.empty()) return 0;
        const core::Hid hid = shadow.hosts.begin()->first;
        as.host_db.erase(hid);
        shadow.hosts.erase(hid);
        core::emit_host_erase(sink, hid);
        return 1;
      }
      case 4: {  // DNS publish (+ sometimes a block or erase)
        const std::string name =
            "svc" + std::to_string(rng.next_u32() % 64) + ".example";
        if (rng.next_u32() % 4 == 0 && !shadow.dns.empty()) {
          const std::string victim = shadow.dns.begin()->first;
          shadow.dns.erase(victim);
          core::emit_dns_erase(sink, victim);
          return 1;
        }
        const std::uint32_t ipv4 = rng.next_u32();
        shadow.dns[name] = ipv4;
        core::emit_dns_put(sink, make_dns(name, ipv4));
        return 1;
      }
      default: {  // a reserved issuance record, or an escalation or block
        const std::uint32_t sub = rng.next_u32() % 3;
        if (sub == 0 && !live_ephids.empty()) {
          const core::Hid hid = live_ephids.back().second;
          as.revoked.revoke_hid(hid);
          shadow.revoked_hids.insert(hid);
          core::emit_revoke_hid(sink, hid);
          return 1;
        }
        if (sub == 1) {
          const std::string d =
              "blocked" + std::to_string(rng.next_u32() % 16) + ".example";
          shadow.blocked.insert(d);
          core::emit_domain_block(sink, d);
          return 1;
        }
        if (sink) (void)sink->append(kIssuedType, must_hex(kEphIdIssued));
        return 1;
      }
    }
  }
};

void expect_matches_shadow(const AsState& as, const core::AsStateRecovery& rv,
                           const Shadow& shadow, core::Hid hid_limit) {
  for (core::Hid hid = 100; hid < hid_limit; ++hid) {
    const auto it = shadow.hosts.find(hid);
    const auto got = as.host_db.find(hid);
    ASSERT_EQ(got.has_value(), it != shadow.hosts.end()) << "hid " << hid;
    if (got) {
      EXPECT_EQ(got->keys.enc, it->second.enc);
      EXPECT_EQ(got->keys.mac, it->second.mac);
    }
    EXPECT_EQ(as.revoked.is_hid_revoked(hid), shadow.revoked_hids.count(hid) > 0);
  }
  EXPECT_EQ(as.host_db.size(), shadow.hosts.size());
  EXPECT_EQ(as.revoked.size(), shadow.revoked_hex.size());
  EXPECT_EQ(rv.records_malformed, 0u);
  EXPECT_EQ(rv.services.blocked_domains, shadow.blocked);
  std::map<std::string, std::uint32_t> dns;
  for (const auto& [name, r] : rv.services.dns) dns[r.name] = r.ipv4;
  ASSERT_EQ(dns.size(), shadow.dns.size());
  EXPECT_EQ(dns, shadow.dns);
}

/// Every host's §VIII-G2 revocation counter and HID flag.
std::map<core::Hid, std::pair<std::uint32_t, bool>> host_counters(
    const AsState& as) {
  std::map<core::Hid, std::pair<std::uint32_t, bool>> out;
  as.revoked.for_each(
      [](const core::EphId&, core::ExpTime) {},
      [&](core::Hid hid, std::uint32_t n, bool r) { out[hid] = {n, r}; });
  return out;
}

// ---- AS snapshot files -------------------------------------------------------

/// An AS whose state, built by journaled mutations, lives in one snapshot:
/// generation 2, with its journal empty and generation 1 deleted.
struct LoneSnapshot {
  crypto::ChaChaRng rng{5};
  AsState as{64512, core::AsSecrets::generate(rng)};
  Shadow shadow;
  Mutator mut{as, shadow, nullptr};
  std::string path;

  void write(persist::Vfs& vfs, const std::string& dir) {
    services::PersistCoordinator::Config cc;
    cc.git_sha = "deadbeef";
    services::PersistCoordinator coord(vfs, dir, as, cc);
    ASSERT_TRUE(coord.start().ok());
    mut.sink = &coord;
    for (std::uint32_t i = 0; i < 30; ++i) mut.step(i * 2654435761u);
    ASSERT_TRUE(coord.write_snapshot().ok());
    mut.sink = nullptr;
    path = core::snapshot_path(dir, 2);
    ASSERT_TRUE(vfs.remove(core::snapshot_path(dir, 1)).ok());
    ASSERT_TRUE(vfs.remove(core::journal_path(dir, 1)).ok());
  }

  /// The recovered AS matches this one: the shadow's records plus the
  /// secrets and the §VIII-G2 counters, which only a snapshot restores.
  void expect_recovered(const core::AsStateRecovery& rv) const {
    EXPECT_EQ(rv.snapshot_generation, 2u);
    EXPECT_EQ(rv.as->aid, as.aid);
    EXPECT_EQ(rv.as->secrets.ka, as.secrets.ka);
    EXPECT_EQ(rv.as->secrets.ka_infra, as.secrets.ka_infra);
    EXPECT_EQ(rv.as->secrets.sign.seed, as.secrets.sign.seed);
    EXPECT_EQ(rv.as->secrets.dh.priv, as.secrets.dh.priv);
    EXPECT_EQ(host_counters(*rv.as), host_counters(as));
    expect_matches_shadow(*rv.as, rv, shadow, mut.next_hid);
  }
};

TEST(Snapshot, RoundTripAndAtomicPublish) {
  persist::MemVfs vfs;
  LoneSnapshot lone;
  lone.write(vfs, "s");
  EXPECT_FALSE(vfs.exists(lone.path + ".tmp"));  // temp file renamed away

  // The file is journal frames: the head first, carrying the provenance,
  // every kind of record a snapshot holds, and the end last. Issuance
  // leaves no state, so no issuance record.
  using T = core::PersistRecordType;
  std::vector<T> types;
  std::string head;
  const auto rr = persist::replay_journal_file(
      vfs, lone.path, [&](std::uint8_t t, ByteSpan p) {
        if (types.empty()) head.assign(p.begin(), p.end());
        types.push_back(static_cast<T>(t));
      });
  EXPECT_FALSE(rr.torn());
  ASSERT_GE(types.size(), 2u);
  EXPECT_EQ(types.front(), T::snapshot_head);
  EXPECT_EQ(types.back(), T::snapshot_end);
  EXPECT_NE(head.find("deadbeef"), std::string::npos);
  for (T kind : {T::host_upsert, T::revoked_ephid, T::host_revocations,
                 T::domain_block, T::dns_put})
    EXPECT_NE(std::find(types.begin(), types.end(), kind), types.end())
        << "no record of type " << static_cast<int>(kind);
  EXPECT_EQ(std::find(types.begin(), types.end(), T::ephid_issued),
            types.end());

  auto rec = AsState::recover(vfs, "s");
  ASSERT_TRUE(rec.ok()) << rec.error().detail;
  EXPECT_EQ(rec->journal_records_replayed, 0u);
  lone.expect_recovered(*rec);
}

/// Rewrites the snapshot at `path` as older builds laid it out: `n`
/// reserved issuance records after the revocation counters, counted in
/// the end record.
void add_reserved_issuance_records(persist::Vfs& vfs, const std::string& path,
                                   std::size_t n) {
  using T = core::PersistRecordType;
  std::vector<std::pair<std::uint8_t, Bytes>> frames;
  persist::replay_journal_file(vfs, path, [&](std::uint8_t t, ByteSpan p) {
    frames.emplace_back(t, Bytes(p.begin(), p.end()));
  });
  persist::JournalWriter w(vfs, path, /*truncate=*/true);
  bool added = false;
  for (auto& [t, p] : frames) {
    const auto type = static_cast<T>(t);
    if (!added && (type == T::domain_block || type == T::dns_put ||
                   type == T::snapshot_end)) {
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_TRUE(w.append(kIssuedType, must_hex(kEphIdIssued)));
      added = true;
    }
    if (type == T::snapshot_end) store_be64(p.data(), load_be64(p.data()) + n);
    ASSERT_TRUE(w.append(t, p));
  }
  ASSERT_TRUE(w.commit().ok());
}

/// A snapshot an older build wrote, issuance records and all, still loads
/// whole and recovers the same state.
TEST(Snapshot, ReservedIssuanceRecordsStillLoad) {
  persist::MemVfs vfs;
  LoneSnapshot lone;
  lone.write(vfs, "s");
  const std::size_t size = vfs.file_size(lone.path);
  add_reserved_issuance_records(vfs, lone.path, 3);
  EXPECT_EQ(vfs.file_size(lone.path), size + 3 * (8 + 1 + 24));

  auto rec = AsState::recover(vfs, "s");
  ASSERT_TRUE(rec.ok()) << rec.error().detail;
  EXPECT_EQ(rec->journal_records_replayed, 0u);
  lone.expect_recovered(*rec);  // records_malformed == 0 included
}

/// With the snapshot as the only generation, flipping any single byte
/// makes recovery fail: there is no generation to fall back to.
TEST(Snapshot, AnySingleByteCorruptionIsDetected) {
  persist::MemVfs vfs;
  LoneSnapshot lone;
  lone.write(vfs, "s");
  const std::size_t sz = vfs.file_size(lone.path);
  for (std::size_t off = 0; off < sz; ++off) {
    ASSERT_TRUE(vfs.corrupt(lone.path, off, 0x01).ok());
    EXPECT_FALSE(AsState::recover(vfs, "s").ok())
        << "flip at " << off << " went undetected";
    ASSERT_TRUE(vfs.corrupt(lone.path, off, 0x01).ok());  // restore
  }
  EXPECT_TRUE(AsState::recover(vfs, "s").ok());
}

/// Every cut, at a frame boundary or inside a frame, loses the end record
/// or tears a frame; either way the snapshot does not load.
TEST(Snapshot, TruncationsAreDetected) {
  persist::MemVfs vfs;
  LoneSnapshot lone;
  lone.write(vfs, "s");
  const Bytes full = vfs.read_all(lone.path).take();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    ASSERT_TRUE(vfs.truncate(lone.path, cut).ok());
    EXPECT_FALSE(AsState::recover(vfs, "s").ok())
        << "truncation to " << cut << " went undetected";
    // Restore for the next iteration.
    auto f = vfs.open_append(lone.path, true).take();
    ASSERT_TRUE(f->append(span_of(full)).ok());
  }
  EXPECT_TRUE(AsState::recover(vfs, "s").ok());
  // Nor does one with a record cut out of its middle (the end count no
  // longer matches), or with a record or a torn byte after its end.
  const std::size_t second = 8 + load_le32(full.data());
  const std::size_t third = second + 8 + load_le32(full.data() + second);
  Bytes holed(full.begin(), full.begin() + second);
  holed.insert(holed.end(), full.begin() + third, full.end());
  Bytes extended = full;
  extended.insert(extended.end(), full.begin() + second, full.begin() + third);
  Bytes tailed = full;
  tailed.push_back(0);
  for (const Bytes* bad : {&holed, &extended, &tailed}) {
    auto f = vfs.open_append(lone.path, true).take();
    ASSERT_TRUE(f->append(span_of(*bad)).ok());
    EXPECT_FALSE(AsState::recover(vfs, "s").ok());
  }
}

TEST(Snapshot, SystemVfsRoundTrip) {
  char tmpl[] = "/tmp/apna_persist_XXXXXX";
  char* base = ::mkdtemp(tmpl);
  ASSERT_NE(base, nullptr);
  const std::string dir = std::string(base) + "/nested/deep";
  persist::SystemVfs vfs;
  ASSERT_TRUE(vfs.mkdirs(dir).ok());

  // A snapshot on the real filesystem, then a journal suffix after it.
  LoneSnapshot lone;
  lone.write(vfs, dir);
  std::size_t suffix = 0;
  {
    persist::JournalWriter w(vfs, core::journal_path(dir, 2), false);
    lone.mut.sink = &w;
    for (std::uint32_t i = 30; i < 60; ++i)
      suffix += lone.mut.step(i * 2654435761u);
    ASSERT_TRUE(w.commit().ok());
    lone.mut.sink = nullptr;
  }
  auto rec = AsState::recover(vfs, dir);
  ASSERT_TRUE(rec.ok()) << rec.error().detail;
  EXPECT_EQ(rec->journal_records_replayed, suffix);
  EXPECT_EQ(rec->journal_bytes_discarded, 0u);
  lone.expect_recovered(*rec);

  const auto names = vfs.list(dir);
  EXPECT_EQ(names.size(), 2u);  // snapshot and journal, no temp file
  for (const auto& n : names) (void)vfs.remove(dir + "/" + n);
  ::rmdir(dir.c_str());
  ::rmdir((std::string(base) + "/nested").c_str());
  ::rmdir(base);
}

TEST(AsRecovery, SnapshotPlusJournalSuffixRebuildsEverything) {
  persist::MemVfs vfs;
  crypto::ChaChaRng rng(1);
  AsState as(64512, core::AsSecrets::generate(rng));

  services::PersistCoordinator::Config cc;
  cc.git_sha = "test";
  services::PersistCoordinator coord(vfs, "as", as, cc);
  ASSERT_TRUE(coord.start().ok());

  Shadow shadow;
  Mutator mut{as, shadow, &coord};
  // Mutations straddle a mid-sequence snapshot: recovery must merge the
  // gen-2 image with the gen-2 journal suffix.
  for (std::uint32_t i = 0; i < 120; ++i) mut.step(i * 2654435761u);
  ASSERT_TRUE(coord.write_snapshot().ok());
  for (std::uint32_t i = 120; i < 240; ++i) mut.step(i * 2654435761u);
  ASSERT_TRUE(coord.commit().ok());

  auto rec = AsState::recover(vfs, "as");
  ASSERT_TRUE(rec.ok()) << rec.error().detail;
  auto rv = rec.take();
  EXPECT_EQ(rv.snapshot_generation, 2u);
  EXPECT_EQ(rv.records_malformed, 0u);
  EXPECT_EQ(rv.snapshots_skipped, 0u);
  EXPECT_EQ(rv.journal_bytes_discarded, 0u);
  expect_matches_shadow(*rv.as, rv, shadow, mut.next_hid);
  // One-bump contract: the recovered epoch moves strictly past the
  // snapshot's stored epoch exactly once, regardless of how many replayed
  // records were revocations (replay restores without bumping).
  EXPECT_GT(rv.as->epoch.current(), rv.snapshot_epoch);
}

/// The satellite property test: recovery from ANY prefix of the journal
/// equals a reference rebuild of the same mutation prefix — and from any
/// mid-frame truncation, the longest-valid-frame-prefix rule applies.
TEST(AsRecovery, EveryJournalPrefixEqualsReferenceRebuild) {
  persist::MemVfs vfs;
  crypto::ChaChaRng rng(2);
  AsState as(64512, core::AsSecrets::generate(rng));
  services::PersistCoordinator::Config cc;
  cc.git_sha = "test";
  services::PersistCoordinator coord(vfs, "as", as, cc);
  ASSERT_TRUE(coord.start().ok());

  // All mutations land in generation 1's journal; shadows[k] is the model
  // after the first k journal records.
  Shadow shadow;
  Mutator mut{as, shadow, &coord};
  std::vector<Shadow> shadows{shadow};
  std::vector<core::Hid> hid_limits{mut.next_hid};
  for (std::uint32_t i = 0; i < 96; ++i) {
    if (mut.step(i * 0x9e3779b9u) == 1) {
      shadows.push_back(shadow);
      hid_limits.push_back(mut.next_hid);
    }
  }
  ASSERT_TRUE(coord.commit().ok());

  const std::string jpath = core::journal_path("as", 1);
  const Bytes full = vfs.read_all(jpath).take();
  // Frame boundary offsets (frame i ends at ends[i]).
  std::vector<std::size_t> ends;
  {
    std::size_t pos = 0;
    persist::replay_journal(span_of(full), [&](std::uint8_t, ByteSpan p) {
      pos += 8 + 1 + p.size();
      ends.push_back(pos);
    });
  }
  ASSERT_EQ(ends.size(), shadows.size() - 1);

  for (std::size_t cut = 0; cut <= full.size(); cut += 3) {
    ASSERT_TRUE(vfs.truncate(jpath, cut).ok());
    auto rec = AsState::recover(vfs, "as");
    ASSERT_TRUE(rec.ok()) << "cut at " << cut;
    auto rv = rec.take();
    std::size_t k = 0;
    while (k < ends.size() && ends[k] <= cut) ++k;
    ASSERT_EQ(rv.journal_records_replayed, k) << "cut at " << cut;
    expect_matches_shadow(*rv.as, rv, shadows[k], hid_limits[k]);
    // Restore the full journal for the next truncation point.
    auto f = vfs.open_append(jpath, true).take();
    ASSERT_TRUE(f->append(span_of(full)).ok());
  }
}

TEST(AsRecovery, CorruptNewestSnapshotFallsBackAGeneration) {
  persist::MemVfs vfs;
  crypto::ChaChaRng rng(3);
  AsState as(64512, core::AsSecrets::generate(rng));
  services::PersistCoordinator::Config cc;
  cc.git_sha = "test";
  services::PersistCoordinator coord(vfs, "as", as, cc);
  ASSERT_TRUE(coord.start().ok());

  Shadow shadow;
  Mutator mut{as, shadow, &coord};
  for (std::uint32_t i = 0; i < 60; ++i) mut.step(i * 2654435761u);
  ASSERT_TRUE(coord.write_snapshot().ok());  // generation 2
  for (std::uint32_t i = 60; i < 120; ++i) mut.step(i * 2654435761u);
  ASSERT_TRUE(coord.commit().ok());

  // Rot the newest snapshot. Recovery falls back to generation 1 and
  // replays journals 1 AND 2 — ending at the exact same state.
  const std::string snap2 = core::snapshot_path("as", 2);
  ASSERT_TRUE(vfs.corrupt(snap2, vfs.file_size(snap2) / 2, 0xff).ok());

  auto rec = AsState::recover(vfs, "as");
  ASSERT_TRUE(rec.ok());
  auto rv = rec.take();
  EXPECT_EQ(rv.snapshot_generation, 1u);
  EXPECT_EQ(rv.snapshots_skipped, 1u);
  expect_matches_shadow(*rv.as, rv, shadow, mut.next_hid);
}

TEST(AsRecovery, MalformedPayloadInsideValidFrameIsSkippedAndCounted) {
  persist::MemVfs vfs;
  crypto::ChaChaRng rng(4);
  AsState as(64512, core::AsSecrets::generate(rng));
  ASSERT_TRUE(vfs.mkdirs("as").ok());
  ASSERT_TRUE(core::write_as_snapshot(vfs, "as", as, {}, {1, 0, ""}).ok());

  persist::JournalWriter jw(vfs, core::journal_path("as", 1), true);
  core::HostRecord hr;
  hr.hid = 100;
  rng.fill(MutByteSpan(hr.keys.enc.data(), hr.keys.enc.size()));
  core::emit_host_upsert(&jw, hr);
  // CRC-valid frame, garbage payload: a host_upsert needs ~88 bytes.
  const Bytes junk = bytes_of("zx");
  ASSERT_TRUE(jw.append(
      static_cast<std::uint8_t>(core::PersistRecordType::host_upsert),
      span_of(junk)));
  core::emit_host_erase(&jw, 999);  // valid record AFTER the bad one
  ASSERT_TRUE(jw.commit().ok());

  auto rec = AsState::recover(vfs, "as");
  ASSERT_TRUE(rec.ok());
  auto rv = rec.take();
  // Replayed counts records that APPLIED; the junk frame is tallied as
  // malformed instead, never dropped on the floor.
  EXPECT_EQ(rv.journal_records_replayed, 2u);
  EXPECT_EQ(rv.records_malformed, 1u);
  EXPECT_TRUE(rv.as->host_db.find(100).has_value());  // survivors applied
}

/// Journals an older build wrote hold reserved issuance records between
/// the others. Replay applies each as nothing, whatever its payload, and
/// never counts one malformed.
TEST(AsRecovery, ReservedIssuanceRecordsInJournalAreDropped) {
  persist::MemVfs vfs;
  crypto::ChaChaRng rng(13);
  AsState as(64512, core::AsSecrets::generate(rng));
  ASSERT_TRUE(vfs.mkdirs("as").ok());
  ASSERT_TRUE(core::write_as_snapshot(vfs, "as", as, {}, {1, 0, ""}).ok());

  persist::JournalWriter jw(vfs, core::journal_path("as", 1), true);
  core::HostRecord hr;
  hr.hid = 100;
  rng.fill(MutByteSpan(hr.keys.enc.data(), hr.keys.enc.size()));
  core::emit_host_upsert(&jw, hr);
  ASSERT_TRUE(jw.append(kIssuedType, must_hex(kEphIdIssued)));
  const core::EphId e = as.codec.issue(100, 2'000'000, rng);
  core::emit_revoke_ephid(&jw, e, 2'000'000, 100);
  ASSERT_TRUE(jw.append(kIssuedType, span_of(bytes_of("zx"))));
  ASSERT_TRUE(jw.commit().ok());

  auto rec = AsState::recover(vfs, "as");
  ASSERT_TRUE(rec.ok());
  auto rv = rec.take();
  EXPECT_EQ(rv.journal_records_replayed, 4u);
  EXPECT_EQ(rv.records_malformed, 0u);
  EXPECT_TRUE(rv.as->host_db.find(100).has_value());
  EXPECT_TRUE(rv.as->revoked.is_revoked(e));
  EXPECT_EQ(rv.as->revoked.size(), 1u);
}

/// A snapshot written between a revocation and its journal append holds
/// the revoked EphID and its count; the append then lands in the new
/// generation's journal. Replaying it must not count the EphID again.
TEST(AsRecovery, RevocationAlreadyInSnapshotCountsOnce) {
  persist::MemVfs vfs;
  crypto::ChaChaRng rng(14);
  AsState as(64512, core::AsSecrets::generate(rng));
  services::PersistCoordinator coord(vfs, "as", as);
  ASSERT_TRUE(coord.start().ok());

  const core::EphId e = as.codec.issue(100, 2'000'000, rng);
  as.revoked.revoke_ephid(e, 2'000'000, 100);
  ASSERT_TRUE(coord.write_snapshot().ok());
  core::emit_revoke_ephid(&coord, e, 2'000'000, 100);
  ASSERT_TRUE(coord.commit().ok());

  auto rec = AsState::recover(vfs, "as");
  ASSERT_TRUE(rec.ok());
  auto rv = rec.take();
  EXPECT_EQ(rv.snapshot_generation, 2u);
  EXPECT_EQ(rv.journal_records_replayed, 1u);
  EXPECT_EQ(host_counters(*rv.as), host_counters(as));
}

TEST(AsRecovery, EmptyDirectoryIsACleanError) {
  persist::MemVfs vfs;
  auto rec = AsState::recover(vfs, "nowhere");
  EXPECT_FALSE(rec.ok());
}

/// Stray names whose number overflows 64 bits or names generation 0 are
/// not generations: start() begins at 1 and recovery loads it.
TEST(AsRecovery, OutOfRangeGenerationNameIsIgnored) {
  persist::MemVfs vfs;
  ASSERT_TRUE(vfs.mkdirs("as").ok());
  for (const char* name :
       {"as/snapshot-99999999999999999999.snap",
        "as/journal-18446744073709551616.log", "as/snapshot-0.snap"})
    ASSERT_TRUE(vfs.open_append(name, true).ok());

  crypto::ChaChaRng rng(12);
  AsState as(64512, core::AsSecrets::generate(rng));
  services::PersistCoordinator coord(vfs, "as", as);
  ASSERT_TRUE(coord.start().ok());
  EXPECT_EQ(coord.stats().generation, 1u);
  Shadow shadow;
  Mutator mut{as, shadow, &coord};
  for (std::uint32_t i = 0; i < 20; ++i) mut.step(i);
  ASSERT_TRUE(coord.commit().ok());

  auto rec = AsState::recover(vfs, "as");
  ASSERT_TRUE(rec.ok());
  auto rv = rec.take();
  EXPECT_EQ(rv.snapshot_generation, 1u);
  EXPECT_EQ(rv.snapshots_skipped, 0u);
  expect_matches_shadow(*rv.as, rv, shadow, mut.next_hid);
}

// ---- coordinator lifecycle ---------------------------------------------------

TEST(Coordinator, AutoSnapshotRotatesAndPrunesGenerations) {
  persist::MemVfs vfs;
  crypto::ChaChaRng rng(6);
  AsState as(64512, core::AsSecrets::generate(rng));
  services::PersistCoordinator::Config cc;
  cc.snapshot_every_records = 10;
  cc.git_sha = "test";
  services::PersistCoordinator coord(vfs, "as", as, cc);
  ASSERT_TRUE(coord.start().ok());

  Shadow shadow;
  Mutator mut{as, shadow, &coord};
  for (std::uint32_t i = 0; i < 45; ++i) mut.step(i);
  ASSERT_TRUE(coord.commit().ok());

  const auto st = coord.stats();
  EXPECT_GE(st.generation, 4u);  // 45 records / 10 per snapshot
  EXPECT_EQ(st.snapshots_written, st.generation);
  EXPECT_FALSE(coord.degraded());

  // Pruned to the last kKeepGenerations snapshot/journal pairs.
  std::size_t snaps = 0;
  for (const auto& name : vfs.list("as"))
    if (name.find("snapshot-") == 0) ++snaps;
  EXPECT_EQ(snaps, 2u);
  // The retained tail still recovers to the reference state.
  auto rec = AsState::recover(vfs, "as");
  ASSERT_TRUE(rec.ok());
  auto rv = rec.take();
  EXPECT_EQ(rv.snapshot_generation, st.generation);
  expect_matches_shadow(*rv.as, rv, shadow, mut.next_hid);
}

/// A snapshot that fails is retried after the next batch of records, not
/// on every record: each attempt walks the whole AS state under the sink
/// lock.
TEST(Coordinator, FailedSnapshotRetriesAfterNextBatch) {
  persist::MemVfs mem;
  persist::FaultVfs vfs(mem);
  crypto::ChaChaRng rng(15);
  AsState as(64512, core::AsSecrets::generate(rng));
  services::PersistCoordinator::Config cc;
  cc.journal.fsync = persist::FsyncPolicy::never;
  cc.snapshot_every_records = 10;
  services::PersistCoordinator coord(vfs, "as", as, cc);
  ASSERT_TRUE(coord.start().ok());

  // From here on every snapshot fails at its sync; the journal, which
  // never syncs, keeps taking records.
  vfs.faults().fail_all_syncs = true;
  Shadow shadow;
  Mutator mut{as, shadow, &coord};
  std::size_t records = 0;
  for (std::uint32_t i = 0; records < 100; ++i) records += mut.step(i);
  ASSERT_TRUE(coord.commit().ok());

  const auto st = coord.stats();
  EXPECT_EQ(st.journal.appended, 100u);
  EXPECT_EQ(st.snapshot_failures, 10u);
  EXPECT_EQ(st.snapshots_written, 1u);
  EXPECT_FALSE(coord.degraded());
  auto rec = AsState::recover(mem, "as");
  ASSERT_TRUE(rec.ok());
  auto rv = rec.take();
  EXPECT_EQ(rv.snapshot_generation, 1u);
  expect_matches_shadow(*rv.as, rv, shadow, mut.next_hid);
}

TEST(Coordinator, RestartResumesAtNextGeneration) {
  persist::MemVfs vfs;
  crypto::ChaChaRng rng(8);
  AsState as(64512, core::AsSecrets::generate(rng));
  Shadow shadow;
  {
    services::PersistCoordinator coord(vfs, "as", as);
    ASSERT_TRUE(coord.start().ok());
    Mutator mut{as, shadow, &coord};
    for (std::uint32_t i = 0; i < 20; ++i) mut.step(i);
  }  // dtor commits

  auto rec = AsState::recover(vfs, "as");
  ASSERT_TRUE(rec.ok());
  auto rv = rec.take();

  // A new coordinator over the recovered state starts at generation 2 and
  // leaves generation 1 on disk as the fallback.
  services::PersistCoordinator coord2(vfs, "as", *rv.as);
  coord2.seed(std::move(rv.services));
  ASSERT_TRUE(coord2.start().ok());
  EXPECT_EQ(coord2.stats().generation, 2u);
  EXPECT_TRUE(vfs.exists(core::snapshot_path("as", 1)));
  EXPECT_TRUE(vfs.exists(core::snapshot_path("as", 2)));
}

TEST(Coordinator, ConcurrentSinkAppendsRecoverCompletely) {
  persist::MemVfs vfs;
  crypto::ChaChaRng rng(10);
  AsState as(64512, core::AsSecrets::generate(rng));
  services::PersistCoordinator coord(vfs, "as", as);
  ASSERT_TRUE(coord.start().ok());

  // The real contention shape: the AA revokes from several threads, all
  // funneling through one sink, while the main thread rotates snapshots
  // (exercised under TSan by the `persist` concurrency leg). Each thread
  // revokes some EphIDs twice, as a replayed shutoff would.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 400;
  std::atomic<int> running{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      crypto::ChaChaRng trng(1000 + t);
      const core::Hid hid = static_cast<core::Hid>(100 + t);
      core::EphId e;
      for (int i = 0; i < kPerThread; ++i) {
        if (i % 8 != 7) e = as.codec.issue(hid, 2'000'000, trng);
        as.revoked.revoke_ephid(e, 2'000'000, hid);
        core::emit_revoke_ephid(&coord, e, 2'000'000, hid);
      }
      running.fetch_sub(1);
    });
  }
  // Paced, so the threads get the sink lock between snapshots.
  do {
    EXPECT_TRUE(coord.write_snapshot().ok());
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  } while (running.load() > 0);
  for (auto& th : threads) th.join();
  ASSERT_TRUE(coord.commit().ok());
  EXPECT_EQ(coord.stats().journal.appended,
            static_cast<std::uint64_t>(kThreads * kPerThread));

  auto rec = AsState::recover(vfs, "as");
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->records_malformed, 0u);
  EXPECT_EQ(rec->as->revoked.size(), as.revoked.size());
  as.revoked.for_each(
      [&](const core::EphId& e, core::ExpTime) {
        EXPECT_TRUE(rec->as->revoked.is_revoked(e)) << e.hex();
      },
      [](core::Hid, std::uint32_t, bool) {});
  EXPECT_EQ(host_counters(*rec->as), host_counters(as));
  EXPECT_EQ(host_counters(as)[100],
            std::make_pair(std::uint32_t{kPerThread - kPerThread / 8}, false));
}

}  // namespace
}  // namespace apna
