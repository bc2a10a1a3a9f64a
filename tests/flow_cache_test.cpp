// Verified-flow cache semantics (core/flow_cache.h + the cached classify
// pipelines of router/border_router.cpp):
//  * FlowCache container behavior: hit/miss, same-key refresh, stale-gen
//    invalidation, bounded capacity with earliest-expiry eviction;
//  * verdict equivalence — cached (cold and warm) vs uncached
//    classification over randomized bursts, bit-identical including the
//    drop arms;
//  * expiry at the clock edge: a cached verdict flips to Errc::expired at
//    exactly the same tick as the uncached path;
//  * epoch invalidation: EphID revocation, HID revocation, host
//    de-registration and host key replacement each bump AsState::epoch and
//    instantly invalidate cached verdicts (revocation straddles produce
//    identical verdicts with and without the cache).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/flow_cache.h"
#include "core/packet_auth.h"
#include "router/border_router.h"

namespace apna::core {
namespace {

EphId random_ephid(crypto::Rng& rng) {
  EphId e;
  rng.fill(MutByteSpan(e.bytes.data(), 16));
  return e;
}

std::shared_ptr<const crypto::AesCmac> test_cmac(std::uint8_t fill) {
  std::array<std::uint8_t, 16> key{};
  key.fill(fill);
  return std::make_shared<const crypto::AesCmac>(ByteSpan(key.data(), 16));
}

TEST(FlowCache, HitMissAndRefresh) {
  FlowCache cache(64);
  crypto::ChaChaRng rng{1};
  const EphId a = random_ephid(rng);
  const EphId b = random_ephid(rng);

  EXPECT_EQ(cache.find(a, 1), nullptr);
  cache.insert(a, 7, 1000, 1, test_cmac(1));
  const FlowCache::Entry* e = cache.find(a, 1);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->hid, 7u);
  EXPECT_EQ(e->exp_time, 1000u);
  EXPECT_EQ(cache.find(b, 1), nullptr);

  // Same-key insert refreshes in place (no second slot, no eviction).
  cache.insert(a, 7, 2000, 1, test_cmac(1));
  e = cache.find(a, 1);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->exp_time, 2000u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(FlowCache, StaleGenerationIsAMiss) {
  FlowCache cache(64);
  crypto::ChaChaRng rng{2};
  const EphId a = random_ephid(rng);
  cache.insert(a, 7, 1000, 1, test_cmac(1));
  ASSERT_NE(cache.find(a, 1), nullptr);
  // The epoch moved on: the entry must not be served any more.
  EXPECT_EQ(cache.find(a, 2), nullptr);
  EXPECT_GT(cache.stats().stale_gen, 0u);
  // Re-verification under the new generation overwrites the stale slot.
  cache.insert(a, 7, 1000, 2, test_cmac(1));
  EXPECT_NE(cache.find(a, 2), nullptr);
  EXPECT_EQ(cache.stats().evictions, 0u);  // stale slots are free victims
}

TEST(FlowCache, BoundedCapacityEvictsEarliestExpiry) {
  // One bucket (kWays entries): the kWays+1-th distinct key must evict the
  // entry that would become useless soonest.
  FlowCache cache(FlowCache::kWays);
  ASSERT_EQ(cache.capacity(), FlowCache::kWays);
  crypto::ChaChaRng rng{3};
  std::vector<EphId> ids;
  for (std::size_t i = 0; i < FlowCache::kWays + 1; ++i)
    ids.push_back(random_ephid(rng));
  // exp_time ascending: ids[0] expires first.
  for (std::size_t i = 0; i < FlowCache::kWays; ++i)
    cache.insert(ids[i], static_cast<Hid>(i), 100 + static_cast<ExpTime>(i),
                 1, test_cmac(1));
  cache.insert(ids[FlowCache::kWays], 99, 500, 1, test_cmac(1));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.find(ids[0], 1), nullptr);  // earliest expiry went
  for (std::size_t i = 1; i <= FlowCache::kWays; ++i)
    EXPECT_NE(cache.find(ids[i], 1), nullptr) << "entry " << i;
}

// ---- Cached vs uncached classification equivalence ---------------------------

struct RouterFixture {
  crypto::ChaChaRng rng{515};
  AsState as{64512, AsSecrets::generate(rng)};
  ExpTime now = 1'700'000'000;
  std::vector<HostAsKeys> host_keys;
  std::unique_ptr<router::BorderRouter> br;

  static constexpr Hid kHosts = 32;

  RouterFixture() {
    for (Hid hid = 1; hid <= kHosts; ++hid) {
      crypto::SharedSecret seed{};
      rng.fill(MutByteSpan(seed.data(), 32));
      HostRecord rec;
      rec.hid = hid;
      rec.keys = HostAsKeys::derive(seed);
      as.host_db.upsert(rec);
      host_keys.push_back(rec.keys);
    }
    router::BorderRouter::Callbacks cb;
    cb.now = [this] { return now; };
    br = std::make_unique<router::BorderRouter>(as, std::move(cb));
  }

  wire::Packet egress_packet(Hid hid, const EphId& src) {
    wire::Packet pkt;
    pkt.src_aid = as.aid;
    pkt.src_ephid = src.bytes;
    pkt.dst_aid = 64513;
    rng.fill(MutByteSpan(pkt.dst_ephid.data(), 16));
    pkt.proto = wire::NextProto::data;
    pkt.payload = rng.bytes(64);
    stamp_packet_mac(
        crypto::AesCmac(ByteSpan(host_keys[hid - 1].mac.data(), 16)), pkt);
    return pkt;
  }

  wire::Packet ingress_packet(const EphId& dst, Aid dst_aid = 64512) {
    wire::Packet pkt;
    pkt.src_aid = 64513;
    rng.fill(MutByteSpan(pkt.src_ephid.data(), 16));
    pkt.dst_aid = dst_aid;
    pkt.dst_ephid = dst.bytes;
    pkt.proto = wire::NextProto::data;
    pkt.payload = rng.bytes(64);
    return pkt;
  }
};

struct SealedBurst {
  std::vector<wire::PacketBuf> bufs;
  std::vector<wire::PacketView> views;
  void push(const wire::Packet& p) {
    bufs.push_back(p.seal());
    views.push_back(bufs.back().view());
  }
};

using Verdicts = std::vector<router::BorderRouter::Verdict>;

Verdicts classify_out(RouterFixture& f, const SealedBurst& burst,
                      FlowCache* cache) {
  Verdicts v(burst.views.size());
  router::BorderRouter::Stats stats;
  f.br->classify_outgoing_burst(burst.views, f.now, v, stats, cache);
  return v;
}

Verdicts classify_in(RouterFixture& f, const SealedBurst& burst,
                     FlowCache* cache) {
  Verdicts v(burst.views.size());
  router::BorderRouter::Stats stats;
  f.br->classify_ingress_burst(burst.views, f.now, v, stats, cache);
  return v;
}

void expect_same_verdicts(const Verdicts& a, const Verdicts& b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(static_cast<int>(a[i].err), static_cast<int>(b[i].err))
        << what << " packet " << i;
    EXPECT_EQ(a[i].local, b[i].local) << what << " packet " << i;
    EXPECT_EQ(a[i].hid, b[i].hid) << what << " packet " << i;
  }
}

/// A randomized egress burst mixing every arm: valid (with repeats — the
/// cacheable flows), forged EphIDs, corrupted MACs, expired EphIDs,
/// unknown hosts.
SealedBurst random_egress_burst(RouterFixture& f, std::size_t n,
                                std::vector<EphId>* flow_ids = nullptr) {
  std::vector<EphId> flows;
  for (Hid hid = 1; hid <= RouterFixture::kHosts; ++hid)
    flows.push_back(f.as.codec.issue(hid, f.now + 900, f.rng));
  if (flow_ids) *flow_ids = flows;

  SealedBurst burst;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t pick = f.rng.next_u32() % 100;
    const Hid hid = 1 + (f.rng.next_u32() % RouterFixture::kHosts);
    if (pick < 70) {  // flow-repeating valid packet
      burst.push(f.egress_packet(hid, flows[hid - 1]));
    } else if (pick < 78) {  // forged EphID
      burst.push(f.egress_packet(hid, random_ephid(f.rng)));
    } else if (pick < 86) {  // bad MAC
      auto pkt = f.egress_packet(hid, flows[hid - 1]);
      pkt.mac[0] ^= 1;
      burst.push(pkt);
    } else if (pick < 94) {  // expired EphID
      burst.push(f.egress_packet(
          hid, f.as.codec.issue(hid, f.now - 1 - (f.rng.next_u32() % 100),
                                f.rng)));
    } else {  // unknown host
      burst.push(f.egress_packet(
          hid, f.as.codec.issue(RouterFixture::kHosts + 7, f.now + 900,
                                f.rng)));
    }
  }
  return burst;
}

TEST(FlowCacheEquivalence, RandomizedEgressBurstsMatchUncached) {
  RouterFixture f;
  FlowCache cache(1024);

  for (int round = 0; round < 8; ++round) {
    SealedBurst burst = random_egress_burst(f, 192);
    const Verdicts uncached = classify_out(f, burst, nullptr);
    // Cold AND warm rounds against the SAME cache: both first-seen and
    // memoized verdicts must agree with the uncached reference.
    const Verdicts cold = classify_out(f, burst, &cache);
    const Verdicts warm = classify_out(f, burst, &cache);
    expect_same_verdicts(uncached, cold, "cold");
    expect_same_verdicts(uncached, warm, "warm");
  }
  // The flow repeats must actually have hit.
  EXPECT_GT(cache.stats().hits, 0u);
}

TEST(FlowCacheEquivalence, RandomizedIngressBurstsMatchUncached) {
  RouterFixture f;
  FlowCache cache(1024);

  for (int round = 0; round < 8; ++round) {
    SealedBurst burst;
    for (std::size_t i = 0; i < 128; ++i) {
      const std::uint32_t pick = f.rng.next_u32() % 100;
      const Hid hid = 1 + (f.rng.next_u32() % RouterFixture::kHosts);
      if (pick < 60) {
        burst.push(f.ingress_packet(
            f.as.codec.issue(hid, f.now + 900, f.rng)));
      } else if (pick < 75) {  // transit
        burst.push(f.ingress_packet(random_ephid(f.rng), 64999));
      } else if (pick < 90) {  // forged destination
        burst.push(f.ingress_packet(random_ephid(f.rng)));
      } else {  // expired destination
        burst.push(f.ingress_packet(f.as.codec.issue(hid, f.now - 3, f.rng)));
      }
    }
    const Verdicts uncached = classify_in(f, burst, nullptr);
    const Verdicts cold = classify_in(f, burst, &cache);
    const Verdicts warm = classify_in(f, burst, &cache);
    expect_same_verdicts(uncached, cold, "ingress-cold");
    expect_same_verdicts(uncached, warm, "ingress-warm");
  }
  EXPECT_GT(cache.stats().hits, 0u);
}

TEST(FlowCacheEquivalence, ExpiryFlipsAtTheClockEdge) {
  RouterFixture f;
  FlowCache cache(64);
  const ExpTime exp = f.now + 10;
  const EphId eph = f.as.codec.issue(3, exp, f.rng);
  SealedBurst burst;
  burst.push(f.egress_packet(3, eph));

  // Warm the cache while the EphID is valid.
  EXPECT_EQ(classify_out(f, burst, &cache)[0].err, Errc::ok);
  ASSERT_GT(cache.stats().insertions, 0u);

  // now == exp: still valid (the uncached check is exp < now).
  f.now = exp;
  EXPECT_EQ(classify_out(f, burst, &cache)[0].err, Errc::ok);
  EXPECT_EQ(classify_out(f, burst, nullptr)[0].err, Errc::ok);

  // One tick later the cached verdict must flip exactly like the uncached
  // one — served from the cache (no re-verification resurrects it).
  f.now = exp + 1;
  EXPECT_EQ(classify_out(f, burst, &cache)[0].err, Errc::expired);
  EXPECT_EQ(classify_out(f, burst, nullptr)[0].err, Errc::expired);
}

TEST(FlowCacheEquivalence, RevocationInvalidatesInstantly) {
  RouterFixture f;
  FlowCache cache(256);
  const EphId eph = f.as.codec.issue(5, f.now + 900, f.rng);
  SealedBurst burst;
  burst.push(f.egress_packet(5, eph));

  EXPECT_EQ(classify_out(f, burst, &cache)[0].err, Errc::ok);
  EXPECT_EQ(classify_out(f, burst, &cache)[0].err, Errc::ok);
  const std::uint64_t hits_before = cache.stats().hits;
  EXPECT_GT(hits_before, 0u);

  // Fig 5: the AA revokes the EphID. The very next classify must drop —
  // the bumped epoch makes the cached verdict unreachable.
  f.as.revoked.revoke_ephid(eph, f.now + 900, 5);
  EXPECT_EQ(classify_out(f, burst, &cache)[0].err, Errc::revoked);
  EXPECT_EQ(classify_out(f, burst, nullptr)[0].err, Errc::revoked);
}

TEST(FlowCacheEquivalence, HidRevocationAndHostChurnInvalidate) {
  RouterFixture f;
  FlowCache cache(256);
  const EphId e9 = f.as.codec.issue(9, f.now + 900, f.rng);
  const EphId e11 = f.as.codec.issue(11, f.now + 900, f.rng);
  SealedBurst b9, b11;
  b9.push(f.egress_packet(9, e9));
  b11.push(f.egress_packet(11, e11));

  EXPECT_EQ(classify_out(f, b9, &cache)[0].err, Errc::ok);
  EXPECT_EQ(classify_out(f, b11, &cache)[0].err, Errc::ok);

  // §VIII-G2 escalation: the HID itself is revoked.
  f.as.revoked.revoke_hid(9);
  EXPECT_EQ(classify_out(f, b9, &cache)[0].err, Errc::revoked);

  // Host de-registration: the cached verdict for host 11 dies with it.
  f.as.host_db.erase(11);
  EXPECT_EQ(classify_out(f, b11, &cache)[0].err, Errc::unknown_host);

  // Re-enrollment with the same keys: verdicts recover and re-cache.
  HostRecord rec;
  rec.hid = 11;
  rec.keys = f.host_keys[10];
  f.as.host_db.upsert(rec);
  EXPECT_EQ(classify_out(f, b11, &cache)[0].err, Errc::ok);  // re-cached

  // kHA replacement: the packet was MAC'd under the old key, so the
  // refreshed verdict must reject it — a cache that kept serving the old
  // pre-scheduled CMAC would wrongly accept.
  crypto::SharedSecret seed{};
  f.rng.fill(MutByteSpan(seed.data(), 32));
  rec.keys = HostAsKeys::derive(seed);
  rec.cmac = nullptr;
  f.as.host_db.upsert(rec);  // key replacement bumps the epoch
  EXPECT_EQ(classify_out(f, b11, &cache)[0].err, Errc::bad_mac);
  EXPECT_EQ(classify_out(f, b11, nullptr)[0].err, Errc::bad_mac);
}

TEST(FlowCacheEquivalence, RevocationStraddlingRandomizedBursts) {
  // The acceptance shape: bursts classified before, across and after a
  // batch of revocations must produce verdicts bit-identical to the
  // uncached path at every step.
  RouterFixture f;
  FlowCache cache(1024);
  std::vector<EphId> flows;
  SealedBurst burst = random_egress_burst(f, 256, &flows);

  expect_same_verdicts(classify_out(f, burst, nullptr),
                       classify_out(f, burst, &cache), "pre-revoke");

  for (int wave = 0; wave < 6; ++wave) {
    // Revoke a couple of live flows (and one HID) between bursts.
    const Hid h1 = 1 + (f.rng.next_u32() % RouterFixture::kHosts);
    const Hid h2 = 1 + (f.rng.next_u32() % RouterFixture::kHosts);
    f.as.revoked.revoke_ephid(flows[h1 - 1], f.now + 900, h1);
    if (wave == 3) f.as.revoked.revoke_hid(h2);
    const Verdicts uncached = classify_out(f, burst, nullptr);
    const Verdicts cached = classify_out(f, burst, &cache);
    expect_same_verdicts(uncached, cached, "straddle");
  }
  EXPECT_GT(cache.stats().stale_gen, 0u);  // the straddles actually stale'd
}

TEST(FlowCacheEquivalence, ForgedFingerprintCollisionCannotBorrowVerdict) {
  // An attacker crafting an EphID that shares the 8-byte fingerprint (and
  // thus the bucket) with a cached flow must still be rejected: the probe
  // full-compares the EphID.
  RouterFixture f;
  FlowCache cache(64);
  const EphId real = f.as.codec.issue(2, f.now + 900, f.rng);
  SealedBurst good;
  good.push(f.egress_packet(2, real));
  EXPECT_EQ(classify_out(f, good, &cache)[0].err, Errc::ok);

  EphId forged = real;
  forged.bytes[12] ^= 0xff;  // same first 8 bytes, different MAC tail
  SealedBurst bad;
  bad.push(f.egress_packet(2, forged));
  EXPECT_EQ(classify_out(f, bad, &cache)[0].err, Errc::decrypt_failed);
}

}  // namespace
}  // namespace apna::core
