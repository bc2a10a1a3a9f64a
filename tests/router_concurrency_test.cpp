// Concurrency coverage for the sharded multi-threaded data plane, running
// entirely over the zero-copy wire images (wire::PacketView bursts):
//  * TSan-targeted stress — M threads hammering check_outgoing /
//    check_incoming against the lock-striped AS state while a writer
//    revokes EphIDs/HIDs, churns host_info and purges expired entries;
//  * the sharded replay filter's at-most-once guarantee under full-overlap
//    parallel accepts;
//  * ForwardingPool per-thread stats merged on read, validated against a
//    single-threaded reference run;
//  * bit-for-bit determinism of the batched kernels (EphID open_batch,
//    verify_packet_macs, classify_*_burst) against their scalar twins.
//
// Iteration counts are sized for the TSan leg of ci.sh (bounded runtime).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/packet_auth.h"
#include "router/border_router.h"
#include "router/forwarding_pool.h"

namespace apna::router {
namespace {

constexpr core::Hid kHosts = 64;

struct ConcurrencyFixture {
  crypto::ChaChaRng rng{4242};
  core::AsState as{64512, core::AsSecrets::generate(rng)};
  core::ExpTime now = 1'700'000'000;
  std::vector<core::HostAsKeys> host_keys;

  ConcurrencyFixture() {
    host_keys.reserve(kHosts);
    for (core::Hid hid = 1; hid <= kHosts; ++hid) {
      crypto::SharedSecret seed{};
      rng.fill(MutByteSpan(seed.data(), 32));
      core::HostRecord rec;
      rec.hid = hid;
      rec.keys = core::HostAsKeys::derive(seed);
      as.host_db.upsert(rec);
      host_keys.push_back(rec.keys);
    }
  }

  std::unique_ptr<BorderRouter> make_router(BorderRouter::Config cfg = {}) {
    BorderRouter::Callbacks cb;
    cb.send_external = [](wire::PacketBuf) { return Result<void>::success(); };
    cb.deliver_internal = [](core::Hid, wire::PacketBuf) {
      return Result<void>::success();
    };
    cb.now = [this] { return now; };
    return std::make_unique<BorderRouter>(as, std::move(cb), cfg);
  }

  wire::Packet outgoing_packet(core::Hid hid, const core::EphId& src) {
    wire::Packet pkt;
    pkt.src_aid = as.aid;
    pkt.src_ephid = src.bytes;
    pkt.dst_aid = 64513;
    rng.fill(MutByteSpan(pkt.dst_ephid.data(), 16));
    pkt.proto = wire::NextProto::data;
    pkt.payload = rng.bytes(64);
    core::stamp_packet_mac(
        crypto::AesCmac(ByteSpan(host_keys[hid - 1].mac.data(), 16)), pkt);
    return pkt;
  }

  wire::Packet incoming_packet(const core::EphId& dst) {
    wire::Packet pkt;
    pkt.src_aid = 64513;
    rng.fill(MutByteSpan(pkt.src_ephid.data(), 16));
    pkt.dst_aid = as.aid;
    pkt.dst_ephid = dst.bytes;
    pkt.proto = wire::NextProto::data;
    pkt.payload = rng.bytes(64);
    return pkt;
  }
};

/// Seals a builder burst into pooled buffers + the view span the fast path
/// consumes. Views stay valid across bufs growth (vector moves the
/// PacketBuf, which keeps its heap storage — and thus the view — stable).
struct SealedBurst {
  std::vector<wire::PacketBuf> bufs;
  std::vector<wire::PacketView> views;

  SealedBurst() = default;
  explicit SealedBurst(const std::vector<wire::Packet>& pkts) {
    for (const auto& p : pkts) push(p);
  }
  void push(const wire::Packet& p) {
    bufs.push_back(p.seal());
    views.push_back(bufs.back().view());
  }
};

// ---- Sharded state under concurrent readers + writers ------------------------

TEST(ShardedState, ConcurrentChecksWithRevocations) {
  ConcurrencyFixture f;
  auto br = f.make_router();

  // Hosts [1, kStable] are never touched by the writer: their packets must
  // pass on every iteration. Hosts (kStable, kHosts] get their EphIDs
  // revoked / HIDs erased mid-flight: every legal outcome is accepted.
  constexpr core::Hid kStable = kHosts / 2;
  SealedBurst out_pkts;
  SealedBurst in_pkts;
  std::vector<core::EphId> ephids;
  for (core::Hid hid = 1; hid <= kHosts; ++hid) {
    const auto eph = f.as.codec.issue(hid, f.now + 900, f.rng);
    ephids.push_back(eph);
    out_pkts.push(f.outgoing_packet(hid, eph));
    in_pkts.push(f.incoming_packet(eph));
  }

  constexpr int kIters = 4000;
  constexpr int kReaders = 3;
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int i = 0; i < kIters && !failed.load(); ++i) {
        const std::size_t idx = (i + static_cast<std::size_t>(r) * 17) % kHosts;
        const Errc out = br->check_outgoing(out_pkts.views[idx], f.now).code();
        const Errc in = br->check_incoming(in_pkts.views[idx], f.now).code();
        if (idx < kStable) {
          if (out != Errc::ok || in != Errc::ok) failed.store(true);
        } else {
          const bool out_legal = out == Errc::ok || out == Errc::revoked ||
                                 out == Errc::unknown_host;
          const bool in_legal = in == Errc::ok || in == Errc::revoked ||
                                in == Errc::unknown_host;
          if (!out_legal || !in_legal) failed.store(true);
        }
      }
    });
  }

  std::thread writer([&] {
    crypto::ChaChaRng wrng{777};
    for (int i = 0; i < kIters / 4; ++i) {
      const core::Hid hid = kStable + 1 +
                            static_cast<core::Hid>(i % (kHosts - kStable));
      f.as.revoked.revoke_ephid(ephids[hid - 1], f.now + 900, hid);
      f.as.revoked.is_hid_revoked(hid);
      if (i % 7 == 0) {
        // Host churn: erase and re-enroll with the same keys.
        f.as.host_db.erase(hid);
        core::HostRecord rec;
        rec.hid = hid;
        rec.keys = f.host_keys[hid - 1];
        f.as.host_db.upsert(rec);
      }
      if (i % 97 == 0) f.as.revoked.purge_expired(f.now - 1);
    }
  });

  for (auto& t : readers) t.join();
  writer.join();
  EXPECT_FALSE(failed.load());
  // The writer's revocations are visible once the threads joined.
  EXPECT_TRUE(f.as.revoked.is_revoked(ephids[kHosts - 1]));
  EXPECT_FALSE(f.as.revoked.is_revoked(ephids[0]));
}

// ---- Sharded replay filter ---------------------------------------------------

TEST(ShardedReplayFilterTest, AtMostOnceUnderFullContention) {
  core::ShardedReplayFilter filter(core::ShardedReplayFilter::Config{
      8, 128, core::ReplayWindow::StartPolicy::grace});

  constexpr std::size_t kSources = 16;
  constexpr std::uint64_t kNonces = 200;
  crypto::ChaChaRng rng{99};
  std::vector<core::EphId> sources(kSources);
  for (auto& s : sources) rng.fill(MutByteSpan(s.bytes.data(), 16));

  // Every thread races to accept EVERY (source, nonce) pair; each pair must
  // be accepted exactly once across all threads.
  std::vector<std::atomic<int>> accepted(kSources * kNonces);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::size_t s = 0; s < kSources; ++s)
        for (std::uint64_t n = 1; n <= kNonces; ++n)
          if (filter.accept(sources[s], n).ok())
            accepted[s * kNonces + (n - 1)].fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();

  for (std::size_t i = 0; i < accepted.size(); ++i)
    EXPECT_EQ(accepted[i].load(), 1) << "pair " << i;
  EXPECT_EQ(filter.size(), kSources);
}

// ---- ForwardingPool ----------------------------------------------------------

// Builds the mixed egress burst every drop arm appears in.
std::vector<wire::Packet> mixed_egress_burst(ConcurrencyFixture& f,
                                             std::uint64_t nonce_base) {
  std::vector<wire::Packet> burst;
  for (core::Hid hid = 1; hid <= 40; ++hid) {
    const auto eph = f.as.codec.issue(hid, f.now + 900, f.rng);
    auto pkt = f.outgoing_packet(hid, eph);
    pkt.set_nonce(nonce_base + hid);
    core::stamp_packet_mac(
        crypto::AesCmac(ByteSpan(f.host_keys[hid - 1].mac.data(), 16)), pkt);
    burst.push_back(pkt);
  }
  {  // bad MAC
    const auto eph = f.as.codec.issue(3, f.now + 900, f.rng);
    auto pkt = f.outgoing_packet(3, eph);
    pkt.mac[0] ^= 1;
    burst.push_back(pkt);
  }
  {  // forged EphID
    core::EphId forged;
    f.rng.fill(MutByteSpan(forged.bytes.data(), 16));
    burst.push_back(f.outgoing_packet(5, forged));
  }
  {  // expired
    const auto eph = f.as.codec.issue(7, f.now - 5, f.rng);
    burst.push_back(f.outgoing_packet(7, eph));
  }
  {  // unknown host
    const auto eph = f.as.codec.issue(kHosts + 100, f.now + 900, f.rng);
    auto pkt = f.outgoing_packet(9, eph);  // MAC'd under host 9's key
    burst.push_back(pkt);
  }
  {  // duplicate nonce (caught by the replay filter when enabled)
    const auto eph = f.as.codec.issue(11, f.now + 900, f.rng);
    auto pkt = f.outgoing_packet(11, eph);
    pkt.set_nonce(nonce_base + 1);  // same nonce twice from one source
    core::stamp_packet_mac(
        crypto::AesCmac(ByteSpan(f.host_keys[10].mac.data(), 16)), pkt);
    burst.push_back(pkt);
    burst.push_back(pkt);
  }
  return burst;
}

TEST(ShardedState, ConcurrentClassifyOverSharedViewBurst) {
  // M threads run classify_outgoing_burst over the SAME PacketView span
  // (read-only aliases of one set of wire images) while a writer churns
  // revocations — the TSan leg proves the zero-copy burst shape is as
  // race-free as the per-packet checks.
  ConcurrencyFixture f;
  BorderRouter::Config cfg;
  cfg.replay_filter = true;
  auto br = f.make_router(cfg);

  const SealedBurst burst(mixed_egress_burst(f, 1));
  const std::span<const wire::PacketView> views(burst.views);

  constexpr int kIters = 300;
  constexpr int kThreads = 3;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<BorderRouter::Verdict> verdicts(views.size());
      BorderRouter::Stats stats;
      for (int i = 0; i < kIters && !failed.load(); ++i) {
        br->classify_outgoing_burst(views, f.now, verdicts, stats,
                                    /*batched=*/(t % 2) == 0);
        // The structurally-bad packets must fail under every interleaving.
        if (verdicts[40].err != Errc::bad_mac) failed.store(true);
        if (verdicts[41].err != Errc::decrypt_failed) failed.store(true);
        if (verdicts[42].err != Errc::expired) failed.store(true);
      }
    });
  }
  std::thread writer([&] {
    for (int i = 0; i < kIters; ++i) {
      const core::Hid hid = 20 + static_cast<core::Hid>(i % 8);
      const auto eph = f.as.codec.issue(hid, f.now + 900, f.rng);
      f.as.revoked.revoke_ephid(eph, f.now + 900, hid);
      if (i % 31 == 0) f.as.revoked.purge_expired(f.now - 1);
    }
  });
  for (auto& t : threads) t.join();
  writer.join();
  EXPECT_FALSE(failed.load());
}

TEST(FlowCacheConcurrency, PerThreadCachesWithConcurrentRevocations) {
  // M classify threads, each with its OWN core::FlowCache (the
  // ForwardingPool arrangement), race a writer that revokes EphIDs/HIDs
  // and churns host_info. TSan-visible state: the striped tables and the
  // AsState epoch (atomic); the caches themselves are never shared.
  // Verdict legality is asserted per iteration, and once the writer is
  // done every warm cache must agree with the uncached reference exactly
  // (epoch invalidation has flushed all stale verdicts).
  ConcurrencyFixture f;
  auto br = f.make_router();

  constexpr core::Hid kStable = 8;     // never touched
  constexpr core::Hid kRevoked = 16;   // (kStable, kRevoked]: EphIDs revoked
  constexpr core::Hid kChurned = 20;   // (kRevoked, kChurned]: host churn
  SealedBurst burst;
  std::vector<core::EphId> ephids;
  for (core::Hid hid = 1; hid <= kChurned; ++hid) {
    const auto eph = f.as.codec.issue(hid, f.now + 900, f.rng);
    ephids.push_back(eph);
    burst.push(f.outgoing_packet(hid, eph));
  }
  {  // canaries: structurally bad whatever the writer does
    auto bad_mac = f.outgoing_packet(2, ephids[1]);
    bad_mac.mac[0] ^= 1;
    burst.push(bad_mac);
    core::EphId forged;
    f.rng.fill(MutByteSpan(forged.bytes.data(), 16));
    burst.push(f.outgoing_packet(3, forged));
  }
  const std::size_t kBadMacAt = kChurned;
  const std::size_t kForgedAt = kChurned + 1;

  constexpr int kIters = 400;
  constexpr int kThreads = 3;
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  std::vector<std::unique_ptr<core::FlowCache>> caches;
  for (int t = 0; t < kThreads; ++t)
    caches.push_back(std::make_unique<core::FlowCache>(256));
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      std::vector<BorderRouter::Verdict> verdicts(burst.views.size());
      BorderRouter::Stats stats;
      for (int i = 0; i < kIters && !failed.load(); ++i) {
        br->classify_outgoing_burst(burst.views, f.now, verdicts, stats,
                                    /*batched=*/(t % 2) == 0,
                                    caches[t].get());
        for (core::Hid hid = 1; hid <= kStable; ++hid)
          if (verdicts[hid - 1].err != Errc::ok) failed.store(true);
        for (core::Hid hid = kStable + 1; hid <= kRevoked; ++hid) {
          const Errc e = verdicts[hid - 1].err;
          if (e != Errc::ok && e != Errc::revoked) failed.store(true);
        }
        for (core::Hid hid = kRevoked + 1; hid <= kChurned; ++hid) {
          const Errc e = verdicts[hid - 1].err;
          if (e != Errc::ok && e != Errc::unknown_host) failed.store(true);
        }
        if (verdicts[kBadMacAt].err != Errc::bad_mac) failed.store(true);
        if (verdicts[kForgedAt].err != Errc::decrypt_failed)
          failed.store(true);
      }
    });
  }
  std::thread writer([&] {
    for (int i = 0; i < kIters / 2; ++i) {
      const core::Hid rev =
          kStable + 1 + static_cast<core::Hid>(i % (kRevoked - kStable));
      f.as.revoked.revoke_ephid(ephids[rev - 1], f.now + 900, rev);
      const core::Hid churn =
          kRevoked + 1 + static_cast<core::Hid>(i % (kChurned - kRevoked));
      f.as.host_db.erase(churn);
      core::HostRecord rec;
      rec.hid = churn;
      rec.keys = f.host_keys[churn - 1];
      f.as.host_db.upsert(rec);
      if (i % 13 == 0) f.as.revoked.purge_expired(f.now - 1);
    }
  });
  for (auto& t : readers) t.join();
  writer.join();
  EXPECT_FALSE(failed.load());

  // Quiescent equivalence: every warm per-thread cache now produces the
  // uncached verdicts bit-for-bit (all revocations visible).
  std::vector<BorderRouter::Verdict> ref(burst.views.size());
  BorderRouter::Stats ref_stats;
  br->classify_outgoing_burst(burst.views, f.now, ref, ref_stats,
                              /*batched=*/true, nullptr);
  for (core::Hid hid = kStable + 1; hid <= kRevoked; ++hid)
    EXPECT_EQ(static_cast<int>(ref[hid - 1].err),
              static_cast<int>(Errc::revoked));
  for (int t = 0; t < kThreads; ++t) {
    std::vector<BorderRouter::Verdict> got(burst.views.size());
    BorderRouter::Stats stats;
    br->classify_outgoing_burst(burst.views, f.now, got, stats,
                                /*batched=*/(t % 2) == 0, caches[t].get());
    for (std::size_t i = 0; i < burst.views.size(); ++i)
      EXPECT_EQ(static_cast<int>(got[i].err), static_cast<int>(ref[i].err))
          << "cache " << t << " packet " << i;
    EXPECT_GT(caches[t]->stats().hits, 0u);
  }
}

TEST(ForwardingPool, MergedStatsMatchSingleThreadedReference) {
  ConcurrencyFixture f;
  BorderRouter::Config cfg;
  cfg.replay_filter = true;
  auto pooled_br = f.make_router(cfg);
  auto reference_br = f.make_router(cfg);

  const SealedBurst burst(mixed_egress_burst(f, 1));

  ForwardingPool::Config pool_cfg;
  pool_cfg.threads = 4;  // flow-hash steering across 4 rings
  pool_cfg.kernel = ForwardingPool::Kernel::batched;
  ForwardingPool pool(*pooled_br, pool_cfg);

  constexpr int kRounds = 50;
  BorderRouter::Stats ref_stats;
  for (int round = 0; round < kRounds; ++round) {
    pool.process_outgoing(burst.views, f.now);
    std::vector<BorderRouter::Verdict> verdicts(burst.views.size());
    reference_br->classify_outgoing_burst(burst.views, f.now, verdicts,
                                          ref_stats, /*batched=*/false);
    reference_br->apply_outgoing_verdicts(burst.views, verdicts, ref_stats);
  }

  const auto merged = pool.stats();
  EXPECT_EQ(merged.forwarded_out, ref_stats.forwarded_out);
  EXPECT_EQ(merged.drop_bad_mac, ref_stats.drop_bad_mac);
  EXPECT_EQ(merged.drop_bad_ephid, ref_stats.drop_bad_ephid);
  EXPECT_EQ(merged.drop_expired, ref_stats.drop_expired);
  EXPECT_EQ(merged.drop_unknown_host, ref_stats.drop_unknown_host);
  EXPECT_EQ(merged.drop_replayed, ref_stats.drop_replayed);
  EXPECT_EQ(merged.total_drops(), ref_stats.total_drops());
  // The duplicated-nonce packet is accepted once and replayed once per
  // round after the first window sighting.
  EXPECT_GT(merged.drop_replayed, 0u);
}

/// An egress burst of `reps` repetitions of `flows.size()` valid flows,
/// interleaved so neighbouring packets belong to distinct flows — the shape
/// that scatters one flow across workers unless steering keeps it whole.
SealedBurst repeated_flow_burst(ConcurrencyFixture& f,
                                const std::vector<core::EphId>& flows,
                                int reps) {
  SealedBurst burst;
  for (int r = 0; r < reps; ++r)
    for (std::size_t i = 0; i < flows.size(); ++i)
      burst.push(f.outgoing_packet(static_cast<core::Hid>(i + 1), flows[i]));
  return burst;
}

TEST(ForwardingPool, FlowHashSteeringMatchesReferenceWithDisjointCaches) {
  ConcurrencyFixture f;
  auto pooled_br = f.make_router();
  auto reference_br = f.make_router();

  std::vector<core::EphId> flows;
  for (core::Hid hid = 1; hid <= 16; ++hid)
    flows.push_back(f.as.codec.issue(hid, f.now + 900, f.rng));
  const SealedBurst burst = repeated_flow_burst(f, flows, 16);

  ForwardingPool::Config pool_cfg;
  pool_cfg.threads = 4;
  ForwardingPool pool(*pooled_br, pool_cfg);

  BorderRouter::Stats ref_stats;
  for (int round = 0; round < 10; ++round) {
    pool.process_outgoing(burst.views, f.now);
    std::vector<BorderRouter::Verdict> verdicts(burst.views.size());
    reference_br->classify_outgoing_burst(burst.views, f.now, verdicts,
                                          ref_stats, /*batched=*/false);
    reference_br->apply_outgoing_verdicts(burst.views, verdicts, ref_stats);
  }
  const auto merged = pool.stats();
  EXPECT_EQ(merged.forwarded_out, ref_stats.forwarded_out);
  EXPECT_EQ(merged.total_drops(), ref_stats.total_drops());

  // The steering invariant: one flow → one worker, so no EphID is ever
  // cached by two processing contexts. This holds DETERMINISTICALLY —
  // steer_worker is a pure hash.
  const auto cache = pool.flow_cache_stats();
  EXPECT_GT(cache.hits, 0u);
  EXPECT_EQ(cache.cross_worker_duplicates, 0u);
}

TEST(ForwardingPool, IngressDeliversAndTransits) {
  ConcurrencyFixture f;
  auto br = f.make_router();

  SealedBurst burst;
  for (core::Hid hid = 1; hid <= 16; ++hid) {
    const auto eph = f.as.codec.issue(hid, f.now + 900, f.rng);
    burst.push(f.incoming_packet(eph));
  }
  for (int i = 0; i < 8; ++i) {  // transit packets for a third AS
    wire::Packet pkt;
    pkt.src_aid = 64513;
    pkt.dst_aid = 64999;
    f.rng.fill(MutByteSpan(pkt.src_ephid.data(), 16));
    f.rng.fill(MutByteSpan(pkt.dst_ephid.data(), 16));
    burst.push(pkt);
  }
  {  // garbage destination EphID
    core::EphId forged;
    f.rng.fill(MutByteSpan(forged.bytes.data(), 16));
    burst.push(f.incoming_packet(forged));
  }

  ForwardingPool::Config pool_cfg;
  pool_cfg.threads = 4;
  ForwardingPool pool(*br, pool_cfg);
  pool.process_ingress(burst.views, f.now);

  const auto stats = pool.stats();
  EXPECT_EQ(stats.delivered_in, 16u);
  EXPECT_EQ(stats.transited, 8u);
  EXPECT_EQ(stats.drop_bad_ephid, 1u);
}

// ---- Batched kernels agree with their scalar twins ---------------------------

TEST(BatchDeterminism, EphIdOpenBatchEqualsScalar) {
  ConcurrencyFixture f;
  // 77 exercises the chunk remainder (32 + 32 + 13).
  constexpr std::size_t kN = 77;
  std::vector<core::EphId> ids(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    if (i % 3 == 0) {
      f.rng.fill(MutByteSpan(ids[i].bytes.data(), 16));  // forged
    } else {
      ids[i] = f.as.codec.issue(static_cast<core::Hid>(i + 1),
                                f.now + static_cast<core::ExpTime>(i), f.rng);
      if (i % 5 == 0) ids[i].bytes[2] ^= 1;  // corrupted ciphertext
    }
  }
  std::vector<core::EphIdPlain> plain(kN);
  std::vector<std::uint8_t> ok(kN);
  f.as.codec.open_batch(ids.data(), kN, plain.data(), ok.data());
  for (std::size_t i = 0; i < kN; ++i) {
    const auto scalar = f.as.codec.open(ids[i]);
    ASSERT_EQ(ok[i] != 0, scalar.ok()) << "element " << i;
    if (scalar.ok()) {
      EXPECT_EQ(plain[i].hid, scalar->hid);
      EXPECT_EQ(plain[i].exp_time, scalar->exp_time);
    }
  }
}

TEST(BatchDeterminism, MacVerifyBatchedEqualsScalar) {
  ConcurrencyFixture f;
  std::vector<wire::Packet> pkts;
  std::vector<crypto::AesCmac> keys;
  keys.reserve(kHosts);
  for (core::Hid hid = 1; hid <= kHosts; ++hid)
    keys.emplace_back(ByteSpan(f.host_keys[hid - 1].mac.data(), 16));
  for (core::Hid hid = 1; hid <= kHosts; ++hid) {
    const auto eph = f.as.codec.issue(hid, f.now + 900, f.rng);
    auto pkt = f.outgoing_packet(hid, eph);
    if (hid % 4 == 0) pkt.mac[hid % 8] ^= 1;      // tampered tag
    if (hid % 5 == 0) pkt.payload.back() ^= 1;    // tampered payload
    pkts.push_back(std::move(pkt));
  }
  const SealedBurst sealed(pkts);

  std::vector<core::PacketMacJob> jobs;
  for (std::size_t i = 0; i < sealed.views.size(); ++i)
    jobs.push_back(core::PacketMacJob{&sealed.views[i], &keys[i]});
  jobs.push_back(core::PacketMacJob{&sealed.views[0], nullptr});  // no key

  std::vector<std::uint8_t> verdicts(jobs.size());
  core::verify_packet_macs(jobs, verdicts);
  for (std::size_t i = 0; i < sealed.views.size(); ++i) {
    // Batched (views) == scalar-over-view == scalar-over-builder.
    EXPECT_EQ(verdicts[i] != 0,
              core::verify_packet_mac(keys[i], sealed.views[i]))
        << "packet " << i;
    EXPECT_EQ(verdicts[i] != 0, core::verify_packet_mac(keys[i], pkts[i]))
        << "packet " << i;
  }
  EXPECT_EQ(verdicts.back(), 0u);
}

TEST(BatchDeterminism, ClassifyBatchedEqualsScalar) {
  ConcurrencyFixture f;
  BorderRouter::Config cfg;
  cfg.replay_filter = true;
  cfg.mtu = 256;  // small MTU so the too_big arm fires for some payloads
  auto batched_br = f.make_router(cfg);
  auto scalar_br = f.make_router(cfg);

  auto pkts = mixed_egress_burst(f, 1);
  pkts[0].payload = f.rng.bytes(400);  // oversize after the MTU change
  core::stamp_packet_mac(
      crypto::AesCmac(ByteSpan(f.host_keys[0].mac.data(), 16)), pkts[0]);
  const SealedBurst sealed(pkts);
  const auto& burst = sealed.views;

  std::vector<BorderRouter::Verdict> vb(burst.size());
  std::vector<BorderRouter::Verdict> vs(burst.size());
  BorderRouter::Stats sb, ss;
  batched_br->classify_outgoing_burst(burst, f.now, vb, sb, /*batched=*/true);
  scalar_br->classify_outgoing_burst(burst, f.now, vs, ss, /*batched=*/false);

  for (std::size_t i = 0; i < burst.size(); ++i)
    EXPECT_EQ(static_cast<int>(vb[i].err), static_cast<int>(vs[i].err))
        << "egress packet " << i;
  EXPECT_EQ(sb.total_drops(), ss.total_drops());
  EXPECT_GT(sb.total_drops(), 0u);

  // Ingress twin.
  SealedBurst in_burst;
  for (core::Hid hid = 1; hid <= 20; ++hid) {
    const auto eph = f.as.codec.issue(
        hid, hid % 4 == 0 ? f.now - 1 : f.now + 900, f.rng);
    in_burst.push(f.incoming_packet(eph));
  }
  {
    wire::Packet transit;
    transit.src_aid = 64513;
    transit.dst_aid = 64999;
    in_burst.push(transit);
  }
  std::vector<BorderRouter::Verdict> ivb(in_burst.views.size());
  std::vector<BorderRouter::Verdict> ivs(in_burst.views.size());
  BorderRouter::Stats isb, iss;
  batched_br->classify_ingress_burst(in_burst.views, f.now, ivb, isb, true);
  scalar_br->classify_ingress_burst(in_burst.views, f.now, ivs, iss, false);
  for (std::size_t i = 0; i < in_burst.views.size(); ++i) {
    EXPECT_EQ(static_cast<int>(ivb[i].err), static_cast<int>(ivs[i].err))
        << "ingress packet " << i;
    EXPECT_EQ(ivb[i].local, ivs[i].local);
    EXPECT_EQ(ivb[i].hid, ivs[i].hid);
  }
}

}  // namespace
}  // namespace apna::router
