// DNS subsystem tests (§VII-A): wire codec (boundary names, record/rcode
// agreement, per-byte truncation; the frame bytes are pinned by
// codec_golden_test), domain trie (exact/parent/sibling/override), the
// sharded TTL/negative cache (per-name generation invalidation, LRU,
// negative bounds), the resolver (cached ≡ uncached across zone updates, a
// mutation invalidating exactly its name's slot, upstream timeout/backoff),
// the zone store and the DnsService front (migrated from services_test
// when the resolver subsystem landed).
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dns/dns_cache.h"
#include "dns/dns_service.h"
#include "dns/dns_wire.h"
#include "dns/domain_trie.h"
#include "dns/resolver.h"
#include "dns/udp_upstream.h"
#include "services/accountability_agent.h"
#include "services/dns_zone.h"
#include "services/service_identity.h"

namespace apna::dns {
namespace {

// ---- name codec --------------------------------------------------------------

TEST(DnsWire, CanonicalAndValidation) {
  EXPECT_EQ(canonical_name("Shop.Example"), "shop.example");
  EXPECT_TRUE(validate_name("shop.example").ok());
  EXPECT_TRUE(validate_name("a-b_c.d9").ok());
  EXPECT_FALSE(validate_name("").ok());
  EXPECT_FALSE(validate_name("Shop.example").ok());  // reject, don't fold
  EXPECT_FALSE(validate_name(".example").ok());
  EXPECT_FALSE(validate_name("example.").ok());
  EXPECT_FALSE(validate_name("a..b").ok());
  EXPECT_FALSE(validate_name("sp ace.example").ok());
  EXPECT_FALSE(validate_name("uni\xc3\xa9.example").ok());
}

TEST(DnsWire, LabelBoundary) {
  const std::string max_label(kMaxLabelLen, 'a');  // 63 bytes: ok
  EXPECT_TRUE(validate_name(max_label).ok());
  EXPECT_TRUE(validate_name(max_label + ".example").ok());
  const std::string over_label(kMaxLabelLen + 1, 'a');  // 64: rejected
  EXPECT_FALSE(validate_name(over_label).ok());
  EXPECT_FALSE(validate_name(over_label + ".example").ok());
}

TEST(DnsWire, NameLengthBoundary) {
  // Dotted size 253 → encoded 255 (the max): three 63-byte labels plus one
  // 61-byte label.
  const std::string l63(63, 'x');
  const std::string max_name =
      l63 + "." + l63 + "." + l63 + "." + std::string(61, 'x');
  ASSERT_EQ(max_name.size(), 253u);
  ASSERT_EQ(encoded_name_size(max_name), kMaxNameLen);
  EXPECT_TRUE(validate_name(max_name).ok());

  const std::string over_name =
      l63 + "." + l63 + "." + l63 + "." + std::string(62, 'x');
  ASSERT_EQ(encoded_name_size(over_name), kMaxNameLen + 1);
  EXPECT_FALSE(validate_name(over_name).ok());
}

TEST(DnsWire, NameRoundtripAndRejects) {
  wire::MsgWriter w(64);
  ASSERT_TRUE(encode_name(w, "shop.example").ok());
  wire::MsgReader r(w.span());
  auto back = decode_name(r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "shop.example");
  EXPECT_TRUE(r.done());

  // Encoder refuses non-canonical input outright.
  wire::MsgWriter w2(64);
  EXPECT_FALSE(encode_name(w2, "Shop.example").ok());

  // Decoder refuses non-canonical bytes on the wire (uppercase label).
  Bytes evil = {4, 'S', 'h', 'o', 'p', 0};
  wire::MsgReader r2(ByteSpan(evil.data(), evil.size()));
  EXPECT_FALSE(decode_name(r2).ok());

  // Oversize label length byte.
  Bytes bad_len = {64};
  bad_len.resize(66, 'a');
  bad_len.push_back(0);
  wire::MsgReader r3(ByteSpan(bad_len.data(), bad_len.size()));
  EXPECT_FALSE(decode_name(r3).ok());
}

// ---- frames ------------------------------------------------------------------

core::DnsRecord make_record(const std::string& name, std::uint32_t ipv4) {
  core::DnsRecord rec;
  rec.name = name;
  rec.ipv4 = ipv4;
  rec.cert.aid = 64512;
  rec.cert.exp_time = 1'700'000'900;
  return rec;
}

/// A frame encoded through its one codec (the encoder must accept it).
template <class F>
Bytes frame_bytes(const F& frame) {
  wire::MsgWriter w;
  EXPECT_TRUE(frame.encode(w).ok());
  return w.take();
}

TEST(DnsWire, RecordPresentIffOk) {
  ResponseFrame nx;
  nx.id = 8;
  nx.rcode = Rcode::nxdomain;
  nx.ttl = 30;
  nx.name = "missing.example";
  auto back = core::decode_msg<ResponseFrame>(frame_bytes(nx));
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back->record.has_value());

  // rcode==ok without a record must not encode.
  wire::MsgWriter w;
  ResponseFrame broken;
  broken.rcode = Rcode::ok;
  broken.name = "x.example";
  EXPECT_FALSE(broken.encode(w).ok());
  // ... and nxdomain WITH a record must not either.
  nx.record = make_record("missing.example", 1);
  EXPECT_FALSE(nx.encode(w).ok());
}

TEST(DnsWire, PerByteTruncationRejected) {
  QueryFrame q;
  q.id = 321;
  q.name = "a.bb.ccc.dddd.example";
  const Bytes qb = frame_bytes(q);
  for (std::size_t len = 0; len < qb.size(); ++len)
    EXPECT_FALSE(core::decode_msg<QueryFrame>(ByteSpan(qb.data(), len)).ok())
        << "query prefix " << len;
  Bytes extended = qb;
  extended.push_back(0);  // trailing byte: whole-buffer strictness
  EXPECT_FALSE(core::decode_msg<QueryFrame>(extended).ok());

  ResponseFrame resp;
  resp.id = 99;
  resp.rcode = Rcode::ok;
  resp.ttl = 60;
  resp.name = "shop.example";
  resp.record = make_record("shop.example", 42);
  const Bytes rb = frame_bytes(resp);
  for (std::size_t len = 0; len < rb.size(); ++len)
    EXPECT_FALSE(core::decode_msg<ResponseFrame>(ByteSpan(rb.data(), len)).ok())
        << "response prefix " << len;
  Bytes rext = rb;
  rext.push_back(7);
  EXPECT_FALSE(core::decode_msg<ResponseFrame>(rext).ok());
}

// ---- domain trie -------------------------------------------------------------

TEST(DomainTrie, ExactParentSibling) {
  DomainTrie<int> trie;
  trie.insert("evil.com", 1);
  trie.insert("good.example", 2);

  std::string matched;
  // Exact match.
  ASSERT_NE(trie.match("evil.com", &matched), nullptr);
  EXPECT_EQ(matched, "evil.com");
  // Parent-suffix match: a rule at evil.com covers every subdomain.
  ASSERT_NE(trie.match("a.b.evil.com", &matched), nullptr);
  EXPECT_EQ(*trie.match("a.b.evil.com", nullptr), 1);
  EXPECT_EQ(matched, "evil.com");
  // Sibling must NOT match: label-boundary, not string-suffix, semantics.
  EXPECT_EQ(trie.match("notevil.com", nullptr), nullptr);
  EXPECT_EQ(trie.match("com", nullptr), nullptr);
  EXPECT_EQ(trie.match("evil.com.example", nullptr), nullptr);
  EXPECT_NE(trie.match("good.example", nullptr), nullptr);
  EXPECT_EQ(trie.size(), 2u);
}

TEST(DomainTrie, LongestMatchWinsAndSplit) {
  DomainTrie<int> trie;
  trie.insert("evil.com", 1);
  trie.insert("ok.evil.com", 2);  // splits the compressed edge
  EXPECT_EQ(*trie.match("x.evil.com", nullptr), 1);
  EXPECT_EQ(*trie.match("ok.evil.com", nullptr), 2);
  EXPECT_EQ(*trie.match("deep.ok.evil.com", nullptr), 2);

  // Sibling insert under the split point.
  trie.insert("bad.evil.com", 3);
  EXPECT_EQ(*trie.match("bad.evil.com", nullptr), 3);
  EXPECT_EQ(*trie.match("ok.evil.com", nullptr), 2);

  EXPECT_TRUE(trie.erase("ok.evil.com"));
  EXPECT_EQ(*trie.match("ok.evil.com", nullptr), 1);  // parent rule again
  EXPECT_FALSE(trie.erase("never-inserted.com"));
  EXPECT_GT(trie.memory_bytes(), 0u);
}

// ---- cache -------------------------------------------------------------------

DnsCache::Config small_cache(std::size_t capacity) {
  DnsCache::Config cfg;
  cfg.capacity = capacity;
  cfg.shard_count = 1;  // deterministic occupancy in tests
  return cfg;
}

std::size_t slot_of(std::string_view name) {
  return core::GenerationTable::slot(core::GenerationTable::hash(name));
}

/// The stamp a fill of `name` carries when nothing races it.
std::uint64_t gen_of(const core::GenerationTable& gens, std::string_view name) {
  return gens.current(core::GenerationTable::hash(name));
}

void bump(core::GenerationTable& gens, std::string_view name) {
  gens.bump(core::GenerationTable::hash(name));
}

TEST(DnsCache, HitExpiryAndEpochInvalidation) {
  core::GenerationTable gens;
  DnsCache cache(small_cache(64), gens);
  const auto rec = make_record("shop.example", 42);

  cache.insert("shop.example", rec, /*expires_at=*/1000,
               gen_of(gens, "shop.example"));
  core::DnsRecord out;
  EXPECT_EQ(cache.lookup("shop.example", 500, &out), DnsCache::Outcome::hit);
  EXPECT_EQ(out.name, "shop.example");
  EXPECT_EQ(out.ipv4, 42u);

  // TTL expiry is checked on read and the entry erased.
  EXPECT_EQ(cache.lookup("shop.example", 1000, &out), DnsCache::Outcome::miss);
  EXPECT_EQ(cache.stats().expired, 1u);
  EXPECT_EQ(cache.size(), 0u);

  // A bump of the name's generation slot kills entries stamped under the
  // old value, and the miss hands back the generation it read.
  cache.insert("shop.example", rec, 1000, gen_of(gens, "shop.example"));
  bump(gens, "shop.example");
  std::uint64_t gen = 0;
  EXPECT_EQ(cache.lookup("shop.example", 500, &out, &gen),
            DnsCache::Outcome::miss);
  EXPECT_EQ(cache.stats().stale_gen, 1u);
  EXPECT_EQ(gen, gen_of(gens, "shop.example"));
  cache.insert("shop.example", rec, 1000, gen);
  EXPECT_EQ(cache.lookup("shop.example", 500, &out), DnsCache::Outcome::hit);
}

TEST(DnsCache, InsertStampedBeforeBumpIsStillborn) {
  // The generation the CALLER observed before its zone read is what gets
  // stamped; if the name's slot moves in between, the entry must die.
  // Fills of names in other slots, read at the same moment, live on.
  core::GenerationTable gens;
  DnsCache cache(small_cache(64), gens);
  const std::string race = "race.example";
  const std::string calm = "calm.example";
  const std::string race_nx = "race-nx.example";
  const std::string calm_nx = "calm-nx.example";
  ASSERT_NE(slot_of(race), slot_of(calm));
  ASSERT_NE(slot_of(race_nx), slot_of(calm_nx));
  std::uint64_t race_gen = 0, calm_gen = 0, race_nx_gen = 0, calm_nx_gen = 0;
  ASSERT_EQ(cache.lookup(race, 1, nullptr, &race_gen), DnsCache::Outcome::miss);
  ASSERT_EQ(cache.lookup(calm, 1, nullptr, &calm_gen), DnsCache::Outcome::miss);
  ASSERT_EQ(cache.lookup(race_nx, 1, nullptr, &race_nx_gen),
            DnsCache::Outcome::miss);
  ASSERT_EQ(cache.lookup(calm_nx, 1, nullptr, &calm_nx_gen),
            DnsCache::Outcome::miss);

  // The zone mutated the racing names between the reads and the fills.
  bump(gens, race);
  bump(gens, race_nx);
  cache.insert(race, make_record(race, 1), 1000, race_gen);
  cache.insert(calm, make_record(calm, 2), 1000, calm_gen);
  cache.insert_negative(race_nx, 1, 30, race_nx_gen);
  cache.insert_negative(calm_nx, 1, 30, calm_nx_gen);

  core::DnsRecord out;
  EXPECT_EQ(cache.lookup(race, 1, &out), DnsCache::Outcome::miss);
  EXPECT_EQ(cache.lookup(race_nx, 1, nullptr), DnsCache::Outcome::miss);
  EXPECT_EQ(cache.lookup(calm, 1, &out), DnsCache::Outcome::hit);
  EXPECT_EQ(out.ipv4, 2u);
  EXPECT_EQ(cache.lookup(calm_nx, 1, nullptr), DnsCache::Outcome::negative);
  EXPECT_EQ(cache.stats().stale_gen, 2u);
}

TEST(DnsCache, LruEvictionOrder) {
  core::GenerationTable gens;
  DnsCache cache(small_cache(4), gens);  // one stripe, 4 slots
  for (int i = 0; i < 4; ++i) {
    const std::string name = "n" + std::to_string(i) + ".example";
    cache.insert(name, make_record("x", i), 1000, gen_of(gens, name));
  }
  // Touch n0 so n1 becomes LRU.
  core::DnsRecord out;
  EXPECT_EQ(cache.lookup("n0.example", 1, &out), DnsCache::Outcome::hit);
  cache.insert("n4.example", make_record("x", 4), 1000,
               gen_of(gens, "n4.example"));
  EXPECT_EQ(cache.lookup("n1.example", 1, &out), DnsCache::Outcome::miss);
  EXPECT_EQ(cache.lookup("n0.example", 1, &out), DnsCache::Outcome::hit);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(DnsCache, NegativeTtlBound) {
  core::GenerationTable gens;
  auto cfg = small_cache(64);
  cfg.max_negative_ttl = 5;
  DnsCache cache(cfg, gens);
  // Ask for a huge TTL; the clamp wins.
  cache.insert_negative("gone.example", /*now=*/100, /*ttl=*/100000,
                        gen_of(gens, "gone.example"));
  EXPECT_EQ(cache.lookup("gone.example", 104, nullptr),
            DnsCache::Outcome::negative);
  EXPECT_EQ(cache.lookup("gone.example", 105, nullptr),
            DnsCache::Outcome::miss);  // expired at now + 5
}

TEST(DnsCache, NegativeOccupancyBoundAndNoPositiveEviction) {
  core::GenerationTable gens;
  auto cfg = small_cache(64);
  cfg.negative_percent = 25;  // 16 of 64 slots
  DnsCache cache(cfg, gens);

  // A storm of random NXDOMAINs stays inside its slice.
  for (int i = 0; i < 200; ++i) {
    const std::string name = "junk" + std::to_string(i) + ".example";
    cache.insert_negative(name, 1, 30, gen_of(gens, name));
  }
  EXPECT_LE(cache.negative_size(), cache.negative_capacity());
  EXPECT_EQ(cache.negative_capacity(), 16u);

  // Fill the whole stripe with positives (displacing the negatives is
  // allowed — positives always win slots)...
  for (int i = 0; i < 64; ++i) {
    const std::string name = "site" + std::to_string(i) + ".example";
    cache.insert(name, make_record("x", i), 1000, gen_of(gens, name));
  }
  EXPECT_EQ(cache.size(), 64u);
  // ... then a negative insert against a full-of-positives stripe must NOT
  // evict a positive: it is simply not cached.
  const auto before = cache.stats();
  cache.insert_negative("flood.example", 1, 30, gen_of(gens, "flood.example"));
  EXPECT_EQ(cache.stats().negative_uncached, before.negative_uncached + 1);
  EXPECT_EQ(cache.stats().evictions, before.evictions);
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(
        cache.lookup("site" + std::to_string(i) + ".example", 1, nullptr),
        DnsCache::Outcome::hit)
        << i;
}

TEST(DnsCache, MemoryStatsSanity) {
  core::GenerationTable gens;
  DnsCache cache(small_cache(1024), gens);
  for (int i = 0; i < 512; ++i) {
    const std::string name = "host" + std::to_string(i) + ".zone.example";
    cache.insert(name, make_record("x", i), 1000, gen_of(gens, name));
  }
  const auto m = cache.memory_stats();
  EXPECT_EQ(m.entries, 512u);
  EXPECT_GT(m.name_bytes, 0u);
  EXPECT_GT(m.record_bytes, 0u);
  EXPECT_GT(m.total(), 0u);
  EXPECT_GT(m.bytes_per_name(), 0.0);
}

// ---- zone --------------------------------------------------------------------

TEST(DnsZone, StatsAndBorrowPath) {
  services::DnsZone zone;
  const core::GenerationTable& gens = zone.generations();
  ASSERT_NE(slot_of("shop.example"), slot_of("blog.example"));
  const std::uint64_t gen0 = gen_of(gens, "shop.example");
  const std::uint64_t blog0 = gen_of(gens, "blog.example");
  zone.put(make_record("shop.example", 42));
  // Inserts bump too (negatives!).
  EXPECT_GT(gen_of(gens, "shop.example"), gen0);

  std::uint32_t seen = 0;
  EXPECT_TRUE(zone.with_record(
      "shop.example", [&](const core::DnsRecord& r) { seen = r.ipv4; }));
  EXPECT_EQ(seen, 42u);
  EXPECT_FALSE(
      zone.with_record("missing.example", [&](const core::DnsRecord&) {}));

  ASSERT_TRUE(zone.get("shop.example").has_value());
  const std::uint64_t gen1 = gen_of(gens, "shop.example");
  EXPECT_TRUE(zone.erase("shop.example"));
  EXPECT_GT(gen_of(gens, "shop.example"), gen1);
  const std::uint64_t gen2 = gen_of(gens, "shop.example");
  EXPECT_FALSE(zone.erase("shop.example"));  // no bump, no count
  EXPECT_EQ(gen_of(gens, "shop.example"), gen2);
  // Only the mutated name's slot moved.
  EXPECT_EQ(gen_of(gens, "blog.example"), blog0);

  const auto s = zone.stats();
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.erases, 1u);
  EXPECT_EQ(s.hits, 2u);    // borrow hit + get hit
  EXPECT_EQ(s.misses, 1u);  // borrow miss
}

// ---- resolver ----------------------------------------------------------------

struct ResolverFixture {
  services::DnsZone zone;
  net::EventLoop loop;
  Resolver::Config cfg;
  ResolverFixture() {
    cfg.cache.capacity = 256;
    cfg.cache.shard_count = 1;
  }
};

TEST(Resolver, CachedEqualsUncachedAcrossZoneUpdates) {
  ResolverFixture f;
  Resolver resolver(f.zone, f.loop, f.cfg);
  f.zone.put(make_record("shop.example", 1));
  const core::ExpTime now = f.loop.now_seconds();

  const auto cold = resolver.resolve("shop.example", now);
  ASSERT_EQ(cold.status, Resolver::Status::ok);
  EXPECT_EQ(cold.source, Resolver::Source::zone);
  const auto warm = resolver.resolve("shop.example", now);
  ASSERT_EQ(warm.status, Resolver::Status::ok);
  EXPECT_EQ(warm.source, Resolver::Source::cache);
  // Cached answer is identical to the zone answer.
  EXPECT_EQ(warm.record.name, cold.record.name);
  EXPECT_EQ(warm.record.ipv4, cold.record.ipv4);
  EXPECT_EQ(warm.record.cert, cold.record.cert);

  // Zone UPDATE: the name's generation bump invalidates the cached answer,
  // so the next lookup serves the new truth — cached ≡ uncached across
  // updates.
  f.zone.put(make_record("shop.example", 2));
  const auto fresh = resolver.resolve("shop.example", now);
  ASSERT_EQ(fresh.status, Resolver::Status::ok);
  EXPECT_EQ(fresh.source, Resolver::Source::zone);
  EXPECT_EQ(fresh.record.ipv4, 2u);
  EXPECT_GE(resolver.stats().cache_hits, 1u);

  // Zone ERASE: cached positive dies with the generation bump, answer flips
  // to NXDOMAIN immediately.
  resolver.resolve("shop.example", now);  // warm the cache again
  f.zone.erase("shop.example");
  EXPECT_EQ(resolver.resolve("shop.example", now).status,
            Resolver::Status::nxdomain);
}

TEST(Resolver, NegativeCachingIsTtlBoundedAndInsertInvalidates) {
  ResolverFixture f;
  f.cfg.negative_ttl = 1000;         // resolver asks big...
  f.cfg.cache.max_negative_ttl = 5;  // ...cache clamps hard
  Resolver resolver(f.zone, f.loop, f.cfg);
  const core::ExpTime now = f.loop.now_seconds();

  EXPECT_EQ(resolver.resolve("new.example", now).status,
            Resolver::Status::nxdomain);
  // Second lookup hits the negative cache.
  const auto neg = resolver.resolve("new.example", now);
  EXPECT_EQ(neg.status, Resolver::Status::nxdomain);
  EXPECT_EQ(neg.source, Resolver::Source::negative_cache);

  // The TTL bound holds regardless of the configured negative_ttl.
  EXPECT_EQ(resolver.resolve("new.example", now + 5).source,
            Resolver::Source::zone);

  // A zone INSERT invalidates cached negatives (the put bumps the name's
  // generation): no stale NXDOMAIN after publication.
  resolver.resolve("new.example", now);  // re-warm negative
  f.zone.put(make_record("new.example", 7));
  const auto a = resolver.resolve("new.example", now);
  EXPECT_EQ(a.status, Resolver::Status::ok);
  EXPECT_EQ(a.record.ipv4, 7u);
}

TEST(Resolver, MutatingOneNameLeavesOtherCachedNamesHitting) {
  ResolverFixture f;
  Resolver resolver(f.zone, f.loop, f.cfg);
  const core::ExpTime now = f.loop.now_seconds();
  ASSERT_NE(slot_of("shop.example"), slot_of("blog.example"));
  ASSERT_NE(slot_of("shop.example"), slot_of("gone.example"));
  f.zone.put(make_record("shop.example", 1));
  f.zone.put(make_record("blog.example", 2));
  resolver.resolve("shop.example", now);
  resolver.resolve("blog.example", now);
  resolver.resolve("gone.example", now);  // cached NXDOMAIN

  // A publish of shop.example invalidates shop.example alone.
  f.zone.put(make_record("shop.example", 3));
  const auto blog = resolver.resolve("blog.example", now);
  EXPECT_EQ(blog.source, Resolver::Source::cache);
  EXPECT_EQ(blog.record.ipv4, 2u);
  EXPECT_EQ(resolver.resolve("gone.example", now).source,
            Resolver::Source::negative_cache);
  const auto shop = resolver.resolve("shop.example", now);
  EXPECT_EQ(shop.source, Resolver::Source::zone);
  EXPECT_EQ(shop.record.ipv4, 3u);

  // So does its erase.
  f.zone.erase("shop.example");
  EXPECT_EQ(resolver.resolve("blog.example", now).source,
            Resolver::Source::cache);
  EXPECT_EQ(resolver.resolve("gone.example", now).source,
            Resolver::Source::negative_cache);
  EXPECT_EQ(resolver.resolve("shop.example", now).status,
            Resolver::Status::nxdomain);
}

TEST(Resolver, NamesSharingASlotInvalidateEachOther) {
  // Two names forced into one generation slot: a put to either must kill
  // both cached answers (conservative), never neither.
  std::unordered_map<std::size_t, std::string> by_slot;
  std::string a, b;
  for (int i = 0; b.empty(); ++i) {
    const std::string name = "n" + std::to_string(i) + ".example";
    const auto [it, fresh] = by_slot.emplace(slot_of(name), name);
    if (!fresh) {
      a = it->second;
      b = name;
    }
  }
  ResolverFixture f;
  Resolver resolver(f.zone, f.loop, f.cfg);
  const core::ExpTime now = f.loop.now_seconds();
  f.zone.put(make_record(a, 1));
  f.zone.put(make_record(b, 2));
  std::uint32_t next_ipv4 = 3;
  for (const std::string& mutated : {a, b}) {
    for (const std::string& name : {a, b}) {
      resolver.resolve(name, now);
      ASSERT_EQ(resolver.resolve(name, now).source, Resolver::Source::cache)
          << name;
    }
    f.zone.put(make_record(mutated, next_ipv4++));
    for (const std::string& name : {a, b}) {
      const auto got = resolver.resolve(name, now);
      EXPECT_EQ(got.source, Resolver::Source::zone) << name;
      EXPECT_EQ(got.record.ipv4, f.zone.get(name)->ipv4) << name;
    }
  }
}

TEST(Resolver, PolicyBlocksSubdomainsNeverWarmsCache) {
  ResolverFixture f;
  Resolver resolver(f.zone, f.loop, f.cfg);
  f.zone.put(make_record("a.b.evil.example", 1));
  resolver.policy().block("evil.example");
  const core::ExpTime now = f.loop.now_seconds();

  const auto blocked = resolver.resolve("a.b.evil.example", now);
  EXPECT_EQ(blocked.status, Resolver::Status::blocked);
  EXPECT_EQ(blocked.source, Resolver::Source::policy);
  EXPECT_EQ(resolver.cache().size(), 0u);

  // Siblings unaffected; monitor rules observe but do not block.
  f.zone.put(make_record("notevil.example", 2));
  EXPECT_EQ(resolver.resolve("notevil.example", now).status,
            Resolver::Status::ok);
  resolver.policy().monitor("watched.example");
  f.zone.put(make_record("x.watched.example", 3));
  EXPECT_EQ(resolver.resolve("x.watched.example", now).status,
            Resolver::Status::ok);
  EXPECT_EQ(resolver.stats().monitored, 1u);
  EXPECT_EQ(resolver.stats().policy_blocked, 1u);
}

TEST(Resolver, BlockDomainKillsSweptNamesCachedAnswers) {
  ResolverFixture f;
  Resolver resolver(f.zone, f.loop, f.cfg);
  const core::ExpTime now = f.loop.now_seconds();
  ASSERT_NE(slot_of("fine.example"), slot_of("a.evil.example"));
  ASSERT_NE(slot_of("fine.example"), slot_of("b.evil.example"));
  f.zone.put(make_record("a.evil.example", 1));
  f.zone.put(make_record("b.evil.example", 2));
  f.zone.put(make_record("fine.example", 3));
  for (const char* name : {"a.evil.example", "b.evil.example", "fine.example"})
    ASSERT_EQ(resolver.resolve(name, now).status, Resolver::Status::ok);

  EXPECT_EQ(resolver.block_domain("evil.example", now), 2u);
  // The sweep's erases killed the swept names' cached answers: once the
  // rule is lifted, they read the zone (gone), not a stale cached record.
  resolver.policy().erase("evil.example");
  const auto a = resolver.resolve("a.evil.example", now);
  EXPECT_EQ(a.status, Resolver::Status::nxdomain);
  EXPECT_EQ(a.source, Resolver::Source::zone);
  EXPECT_EQ(resolver.cache().lookup("b.evil.example", now, nullptr),
            DnsCache::Outcome::miss);
  // The name the sweep left alone still hits.
  EXPECT_EQ(resolver.resolve("fine.example", now).source,
            Resolver::Source::cache);
}

TEST(Resolver, InvalidNamesRejectedAndCanonicalized) {
  ResolverFixture f;
  Resolver resolver(f.zone, f.loop, f.cfg);
  const core::ExpTime now = f.loop.now_seconds();
  EXPECT_EQ(resolver.resolve("bad..name", now).status,
            Resolver::Status::invalid);
  EXPECT_EQ(resolver.resolve("", now).status, Resolver::Status::invalid);
  // Mixed case folds at the resolver edge.
  f.zone.put(make_record("shop.example", 9));
  EXPECT_EQ(resolver.resolve("SHOP.Example", now).status,
            Resolver::Status::ok);
}

// Upstream forwarding: a client resolver (empty zone) forwarding to an
// authoritative server resolver over a lossy "wire".
struct ForwardingFixture {
  net::EventLoop loop;
  services::DnsZone client_zone;
  services::DnsZone server_zone;
  Resolver::Config cfg;
  Resolver client{client_zone, loop, cfg};
  Resolver server{server_zone, loop, cfg};
  std::size_t dropped = 0;
  bool drop_all = false;

  ForwardingFixture() {
    server_zone.put(make_record("far.example", 77));
    client.set_upstream([this](Bytes frame) {
      if (drop_all) {
        ++dropped;
        return;
      }
      Bytes resp = server.answer_query(ByteSpan(frame.data(), frame.size()));
      if (!resp.empty())
        client.on_upstream_frame(ByteSpan(resp.data(), resp.size()));
    });
  }
};

TEST(Resolver, ForwardsUpstreamAndCachesAnswer) {
  ForwardingFixture f;
  std::vector<Resolver::Answer> got;
  f.client.resolve_async("far.example",
                         [&](const Resolver::Answer& a) { got.push_back(a); });
  f.loop.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].status, Resolver::Status::ok);
  EXPECT_EQ(got[0].source, Resolver::Source::upstream);
  EXPECT_EQ(got[0].record.ipv4, 77u);
  EXPECT_EQ(f.client.stats().forwarded, 1u);

  // The answer was cached: the next lookup is local.
  got.clear();
  f.client.resolve_async("far.example",
                         [&](const Resolver::Answer& a) { got.push_back(a); });
  ASSERT_EQ(got.size(), 1u);  // answered inline
  EXPECT_EQ(got[0].source, Resolver::Source::cache);

  // Upstream NXDOMAIN lands in the negative cache.
  got.clear();
  f.client.resolve_async("nothere.example",
                         [&](const Resolver::Answer& a) { got.push_back(a); });
  f.loop.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].status, Resolver::Status::nxdomain);
  EXPECT_EQ(f.client.cache().negative_size(), 1u);
}

TEST(Resolver, UpstreamTimeoutBacksOffThenServfail) {
  ForwardingFixture f;
  f.drop_all = true;
  std::vector<Resolver::Answer> got;
  const net::TimeUs t0 = f.loop.now();
  f.client.resolve_async("far.example",
                         [&](const Resolver::Answer& a) { got.push_back(a); });
  f.loop.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].status, Resolver::Status::servfail);
  // 3 attempts total: initial + 2 retransmits, each sent on the wire.
  EXPECT_EQ(f.dropped, 3u);
  EXPECT_EQ(f.client.stats().retransmits, 2u);
  EXPECT_EQ(f.client.stats().upstream_timeouts, 1u);
  // Exponential backoff: 250ms + 500ms + 1000ms before giving up.
  EXPECT_EQ(f.loop.now() - t0, 250'000u + 500'000u + 1'000'000u);
  // servfail is NEVER cached: a later attempt goes back on the wire.
  f.drop_all = false;
  got.clear();
  f.client.resolve_async("far.example",
                         [&](const Resolver::Answer& a) { got.push_back(a); });
  f.loop.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].status, Resolver::Status::ok);
}

TEST(Resolver, MismatchedUpstreamAnswerNeverFillsCache) {
  ForwardingFixture f;
  // Capture the outgoing query so we can forge answers against its id.
  std::optional<QueryFrame> seen;
  f.client.set_upstream([&](Bytes frame) {
    auto q = core::decode_msg<QueryFrame>(frame);
    if (q && !seen) seen = *q;
  });
  std::vector<Resolver::Answer> got;
  f.client.resolve_async("far.example",
                         [&](const Resolver::Answer& a) { got.push_back(a); });
  ASSERT_TRUE(seen.has_value());

  // Right id, WRONG question name — the off-path forgery shape.
  ResponseFrame forged;
  forged.id = seen->id;
  forged.rcode = Rcode::ok;
  forged.ttl = 300;
  forged.name = "attacker.example";
  forged.record = make_record("attacker.example", 666);
  f.client.on_upstream_frame(frame_bytes(forged));
  EXPECT_TRUE(got.empty());  // pending query unaffected
  EXPECT_EQ(f.client.stats().upstream_mismatched, 1u);
  EXPECT_EQ(f.client.cache().size(), 0u);
  f.loop.run();  // drain the timeout chain
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].status, Resolver::Status::servfail);
}

TEST(Resolver, LocalPublishDuringForwardIsNotHidden) {
  // A name published locally while its forwarded query is in flight must
  // not hide behind the upstream answer: the answer is stamped with the
  // generation read before the local zone miss, so its fill is stillborn.
  ForwardingFixture f;
  std::vector<Bytes> in_flight;
  f.client.set_upstream(
      [&](Bytes frame) { in_flight.push_back(std::move(frame)); });
  std::vector<Resolver::Answer> got;
  const auto collect = [&](const Resolver::Answer& a) { got.push_back(a); };
  f.client.resolve_async("late.example", collect);  // upstream: NXDOMAIN
  f.client.resolve_async("far.example", collect);   // upstream: 77
  ASSERT_EQ(in_flight.size(), 2u);

  f.client_zone.put(make_record("late.example", 5));
  f.client_zone.put(make_record("far.example", 6));
  for (const Bytes& query : in_flight) {
    const Bytes resp =
        f.server.answer_query(ByteSpan(query.data(), query.size()));
    f.client.on_upstream_frame(ByteSpan(resp.data(), resp.size()));
  }
  // The in-flight queries still get the upstream's answers...
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].status, Resolver::Status::nxdomain);
  EXPECT_EQ(got[1].record.ipv4, 77u);

  // ...but the next lookups read the local publications, not an NXDOMAIN
  // (held up to 30 s) or the upstream record (up to 300 s) from the cache.
  const core::ExpTime now = f.loop.now_seconds();
  const auto late = f.client.resolve("late.example", now);
  EXPECT_EQ(late.status, Resolver::Status::ok);
  EXPECT_EQ(late.source, Resolver::Source::zone);
  EXPECT_EQ(late.record.ipv4, 5u);
  const auto far = f.client.resolve("far.example", now);
  EXPECT_EQ(far.source, Resolver::Source::zone);
  EXPECT_EQ(far.record.ipv4, 6u);
}

// ---- service + accountability integration ------------------------------------

struct DnsServiceFixture {
  crypto::ChaChaRng rng{2026};
  net::EventLoop loop;
  core::AsState as{64512, core::AsSecrets::generate(rng)};
  core::AsDirectory dir;
  services::ServiceIdentity aa_ident = services::make_service_identity(
      as, 2, loop.now_seconds() + 86400, 0, nullptr, rng);
  services::ServiceIdentity dns_ident = services::make_service_identity(
      as, 3, loop.now_seconds() + 86400, 0, &aa_ident.cert.ephid, rng);
  services::AccountabilityAgent aa{as, dir, loop, aa_ident};
  services::DnsZone zone;
  Resolver resolver{zone, loop, [] {
                      Resolver::Config cfg;
                      cfg.cache.capacity = 256;
                      return cfg;
                    }()};
  DnsService dns{as, dir, loop, rng, dns_ident, resolver};

  // A customer host EphID published under records (OUR AS — revocable).
  core::EphIdKeyPair host_kp = core::EphIdKeyPair::generate(rng);
  core::EphIdCertificate host_cert;

  DnsServiceFixture() {
    core::AsPublicInfo info;
    info.aid = as.aid;
    info.sign_pub = as.secrets.sign.pub;
    info.dh_pub = as.secrets.dh.pub;
    info.aa_ephid = aa_ident.cert.ephid;
    dir.register_as(info);

    resolver.set_accountability(&aa);
    aa.set_domain_policy(&resolver.policy());

    host_cert.ephid = as.codec.issue(4242, loop.now_seconds() + 900, rng);
    host_cert.exp_time = loop.now_seconds() + 900;
    host_cert.pub = host_kp.pub;
    host_cert.aid = as.aid;
    host_cert.aa_ephid = aa_ident.cert.ephid;
    host_cert.sign_with(as.secrets.sign);
  }

  core::DnsPublish make_publish(const std::string& name, std::uint32_t ipv4) {
    core::DnsPublish p;
    p.name = name;
    p.cert = host_cert;
    p.ipv4 = ipv4;
    return p;
  }
};

TEST(DnsService, PublishResolveRoundtrip) {
  DnsServiceFixture f;
  ASSERT_TRUE(f.dns.publish(f.make_publish("shop.example", 0x0a00002a)).ok());
  EXPECT_EQ(f.zone.size(), 1u);

  core::DnsQuery q;
  q.name = "shop.example";
  auto resp = f.dns.resolve(q);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 0);
  ASSERT_TRUE(resp->record.has_value());
  EXPECT_EQ(resp->record->cert, f.host_cert);
  EXPECT_EQ(resp->record->ipv4, 0x0a00002au);
  // Record carries a valid DNSSEC-style signature.
  wire::MsgWriter tbs;
  resp->record->tbs_into(tbs);
  EXPECT_TRUE(crypto::ed25519_verify(f.dns.record_key(), tbs.span(),
                                     resp->record->sig));

  // Cached answer (second resolve) is identical — ed25519 re-signing is
  // deterministic, so cached ≡ uncached at the service level too.
  auto again = f.dns.resolve(q);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->record->sig, resp->record->sig);
  EXPECT_GE(f.resolver.stats().cache_hits, 1u);
}

TEST(DnsService, NxDomain) {
  DnsServiceFixture f;
  core::DnsQuery q;
  q.name = "missing.example";
  auto resp = f.dns.resolve(q);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 1);
  EXPECT_FALSE(resp->record.has_value());
  EXPECT_EQ(f.dns.stats().nxdomain, 1u);
}

TEST(DnsService, PublishRejectsInvalidCert) {
  DnsServiceFixture f;
  core::DnsPublish pub;
  pub.name = "bogus.example";
  pub.cert.aid = 4243;  // unknown AS, unsigned cert
  EXPECT_FALSE(f.dns.publish(pub).ok());
  EXPECT_EQ(f.zone.size(), 0u);
}

TEST(DnsService, SharedZoneAcrossServices) {
  // Two DNS services over one zone: publication through one is visible via
  // the other (the "public DNS" model). Each has its own resolver cache.
  DnsServiceFixture f;
  services::ServiceIdentity other_ident = services::make_service_identity(
      f.as, 9, f.loop.now_seconds() + 86400, 0, &f.aa_ident.cert.ephid,
      f.rng);
  Resolver other_resolver(f.zone, f.loop, Resolver::Config{});
  DnsService other(f.as, f.dir, f.loop, f.rng, other_ident, other_resolver);

  ASSERT_TRUE(f.dns.publish(f.make_publish("mirror.example", 1)).ok());
  core::DnsQuery q;
  q.name = "mirror.example";
  auto resp = other.resolve(q);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 0);
}

TEST(DnsService, DomainPolicyBlocksThroughShutoffPath) {
  DnsServiceFixture f;
  // Publish first, then block the parent domain: the sweep must revoke the
  // publishing EphID through the AA's Fig-5 tail and erase the record.
  ASSERT_TRUE(f.dns.publish(f.make_publish("a.b.evil.example", 5)).ok());
  ASSERT_TRUE(f.dns.publish(f.make_publish("fine.example", 6)).ok());

  const std::size_t swept =
      f.resolver.block_domain("evil.example", f.loop.now_seconds());
  EXPECT_EQ(swept, 1u);
  // The EphID under the blocked name is revoked via the real revocation
  // path (MAC_kAS instruction → revoked_ids), and the record is gone.
  EXPECT_TRUE(f.as.revoked.is_revoked(f.host_cert.ephid));
  EXPECT_EQ(f.aa.stats().domain_blocks, 1u);
  EXPECT_GE(f.aa.stats().revocation_instructions, 1u);
  EXPECT_FALSE(f.zone.get("a.b.evil.example").has_value());
  ASSERT_TRUE(f.zone.get("fine.example").has_value());

  // Queries for ANY subdomain of the blocked parent refuse (status 2).
  core::DnsQuery q;
  q.name = "c.evil.example";
  auto resp = f.dns.resolve(q);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 2);
  EXPECT_EQ(f.dns.stats().blocked, 1u);
  // Siblings still resolve.
  q.name = "fine.example";
  EXPECT_EQ(f.dns.resolve(q)->status, 0);

  // New publications under the blocked parent are refused AND revoked.
  auto r = f.dns.publish(f.make_publish("new.evil.example", 7));
  EXPECT_EQ(r.code(), Errc::unauthorized);
  EXPECT_EQ(f.zone.get("new.evil.example").has_value(), false);
  EXPECT_EQ(f.aa.stats().domain_blocks, 2u);
  EXPECT_EQ(f.resolver.stats().publish_blocked, 1u);
}

// ---- real-socket upstream (§VII-A forwarding over net::UdpTransport) ---------

// Same forwarding contract as ForwardingFixture, but the QueryFrame /
// ResponseFrame exchange crosses two real kernel UDP sockets on loopback,
// wrapped in APNA control packets by UdpUpstream / UdpUpstreamServer.
//
// NOTE: the resolver's retransmit timers live on the VIRTUAL-time event
// loop — loop.run() would fast-forward straight to servfail before any
// real datagram arrives. Pump the transports directly instead.
TEST(UdpUpstream, LoopbackRoundTrip) {
  net::UdpTransport::Config tc;
  auto client_t = net::UdpTransport::open(tc);
  auto server_t = net::UdpTransport::open(tc);
  if (!client_t.ok() || !server_t.ok())
    GTEST_SKIP() << "no loopback UDP sockets in this sandbox";

  auto server_peer =
      (*client_t)->add_peer("127.0.0.1", (*server_t)->local_port());
  auto client_peer =
      (*server_t)->add_peer("127.0.0.1", (*client_t)->local_port());
  ASSERT_TRUE(server_peer.ok());
  ASSERT_TRUE(client_peer.ok());

  net::EventLoop loop;
  Resolver::Config cfg;
  services::DnsZone client_zone;
  services::DnsZone server_zone;
  Resolver client(client_zone, loop, cfg);
  Resolver server(server_zone, loop, cfg);
  server_zone.put(make_record("far.example", 77));

  UdpUpstreamServer srv(**server_t, /*local_aid=*/2);
  srv.attach(server);
  UdpUpstream up(**client_t, *server_peer, /*local_aid=*/1, /*server_aid=*/2);
  up.attach(client);

  std::vector<Resolver::Answer> got;
  client.resolve_async("far.example",
                       [&](const Resolver::Answer& a) { got.push_back(a); });
  for (int i = 0; i < 200 && got.empty(); ++i) {
    srv.poll(10);
    up.poll(10);
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].status, Resolver::Status::ok);
  EXPECT_EQ(got[0].source, Resolver::Source::upstream);
  EXPECT_EQ(got[0].record.ipv4, 77u);
  EXPECT_EQ(up.stats().queries_sent, 1u);
  EXPECT_EQ(up.stats().responses_delivered, 1u);
  EXPECT_EQ(up.stats().send_errors, 0u);
  EXPECT_EQ(srv.stats().queries_answered, 1u);

  // The answer landed in the client cache: the repeat never touches the
  // socket pair again.
  got.clear();
  client.resolve_async("far.example",
                       [&](const Resolver::Answer& a) { got.push_back(a); });
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].source, Resolver::Source::cache);
  EXPECT_EQ(up.stats().queries_sent, 1u);
}

}  // namespace
}  // namespace apna::dns
