// Concurrency coverage for the sharded multi-threaded data plane, running
// entirely over the zero-copy wire images (wire::PacketView bursts):
//  * TSan-targeted stress — M threads hammering check_outgoing /
//    check_incoming against the lock-striped AS state while a writer
//    revokes EphIDs/HIDs, churns host_info and purges expired entries;
//  * the sharded replay filter's at-most-once guarantee under full-overlap
//    parallel accepts;
//  * ForwardingPool per-thread stats merged on read, validated against the
//    per-packet Fig 4 reference, and its ICMP feedback held byte-for-byte
//    to the simulator path's (on_outgoing / on_ingress);
//  * bit-for-bit agreement of the batched primitives (EphID
//    open_batch_gather, verify_packet_macs) with their scalar twins, and of
//    the one classify kernel with the per-packet Fig 4 reference (MTU, then
//    check_outgoing / check_incoming, then the replay filter) at every
//    burst size from 1 to 65, cached and uncached.
//
// Iteration counts are sized for the TSan leg of ci.sh (bounded runtime).
#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <memory>
#include <set>
#include <string>
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

// ---- The per-packet Fig 4 reference ------------------------------------------

/// What the classify kernel must reproduce for every egress packet: the
/// MTU check, then check_outgoing, then the §VIII-D replay filter. The
/// reference keeps its own replay filter, configured like the router's and
/// fed the same packet sequence.
class EgressReference {
 public:
  explicit EgressReference(const BorderRouter& br)
      : br_(br),
        replay_(core::ShardedReplayFilter::Config{
            core::kDefaultShardCount, 1024,
            core::ReplayWindow::StartPolicy::grace}) {}

  Errc operator()(const wire::PacketView& pkt, core::ExpTime now) {
    if (pkt.wire_size() > br_.config().mtu) return Errc::too_big;
    if (const Errc e = br_.check_outgoing(pkt, now).code(); e != Errc::ok)
      return e;
    if (br_.config().replay_filter && pkt.has_nonce()) {
      core::EphId src;
      src.bytes = pkt.src_ephid();
      if (!replay_.accept(src, pkt.nonce())) return Errc::replayed;
    }
    return Errc::ok;
  }

 private:
  const BorderRouter& br_;
  core::ShardedReplayFilter replay_;
};

/// The ingress twin: transit for other ASes, else check_incoming.
BorderRouter::Verdict ingress_reference(const BorderRouter& br,
                                        const wire::PacketView& pkt,
                                        core::ExpTime now) {
  BorderRouter::Verdict v;
  if (pkt.dst_aid() != br.aid()) return v;
  v.local = true;
  if (auto hid = br.check_incoming(pkt, now)) {
    v.hid = *hid;
  } else {
    v.err = hid.error().code;
  }
  return v;
}

/// Counts one reference verdict the way the router's Stats counts it.
void tally(BorderRouter::Stats& s, Errc e) {
  switch (e) {
    case Errc::ok: ++s.forwarded_out; break;
    case Errc::expired: ++s.drop_expired; break;
    case Errc::revoked: ++s.drop_revoked; break;
    case Errc::unknown_host: ++s.drop_unknown_host; break;
    case Errc::bad_mac: ++s.drop_bad_mac; break;
    case Errc::too_big: ++s.drop_too_big; break;
    case Errc::replayed: ++s.drop_replayed; break;
    default: ++s.drop_bad_ephid; break;
  }
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
        br->classify_outgoing_burst(views, f.now, verdicts, stats);
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
  br->classify_outgoing_burst(burst.views, f.now, ref, ref_stats);
  for (core::Hid hid = kStable + 1; hid <= kRevoked; ++hid)
    EXPECT_EQ(static_cast<int>(ref[hid - 1].err),
              static_cast<int>(Errc::revoked));
  for (int t = 0; t < kThreads; ++t) {
    std::vector<BorderRouter::Verdict> got(burst.views.size());
    BorderRouter::Stats stats;
    br->classify_outgoing_burst(burst.views, f.now, got, stats,
                                caches[t].get());
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
  EgressReference reference(*pooled_br);

  const SealedBurst burst(mixed_egress_burst(f, 1));

  ForwardingPool::Config pool_cfg;
  pool_cfg.threads = 4;  // flow-hash steering across 4 rings
  ForwardingPool pool(*pooled_br, pool_cfg);

  constexpr int kRounds = 50;
  BorderRouter::Stats ref_stats;
  for (int round = 0; round < kRounds; ++round) {
    pool.process_outgoing(burst.views, f.now);
    for (const wire::PacketView& v : burst.views)
      tally(ref_stats, reference(v, f.now));
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
  EgressReference reference(*pooled_br);

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
    for (const wire::PacketView& v : burst.views)
      tally(ref_stats, reference(v, f.now));
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

TEST(ForwardingPool, StatsReadableDuringBursts) {
  // stats() and flow_cache_stats() may be read while bursts run: a reader
  // thread loops both against a 4-thread pool. Every read must be
  // monotone with no duplicated flow, and the final merge must equal the
  // per-packet reference.
  ConcurrencyFixture f;
  BorderRouter::Config cfg;
  cfg.replay_filter = true;
  auto pooled_br = f.make_router(cfg);
  EgressReference reference(*pooled_br);

  const SealedBurst burst(mixed_egress_burst(f, 1));

  ForwardingPool::Config pool_cfg;
  pool_cfg.threads = 4;
  ForwardingPool pool(*pooled_br, pool_cfg);

  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::uint64_t reads = 0;
  std::thread reader([&] {
    std::uint64_t last_forwarded = 0, last_hits = 0;
    do {
      const auto s = pool.stats();
      const auto c = pool.flow_cache_stats();
      if (s.forwarded_out < last_forwarded || c.hits < last_hits ||
          c.cross_worker_duplicates != 0)
        failed.store(true);
      last_forwarded = s.forwarded_out;
      last_hits = c.hits;
      ++reads;
    } while (!done.load());
  });

  constexpr int kRounds = 200;
  BorderRouter::Stats ref_stats;
  for (int round = 0; round < kRounds; ++round) {
    pool.process_outgoing(burst.views, f.now);
    for (const wire::PacketView& v : burst.views)
      tally(ref_stats, reference(v, f.now));
  }
  done.store(true);
  reader.join();

  EXPECT_FALSE(failed.load());
  EXPECT_GT(reads, 0u);
  const auto merged = pool.stats();
  EXPECT_EQ(merged.forwarded_out, ref_stats.forwarded_out);
  EXPECT_EQ(merged.drop_bad_mac, ref_stats.drop_bad_mac);
  EXPECT_EQ(merged.drop_bad_ephid, ref_stats.drop_bad_ephid);
  EXPECT_EQ(merged.drop_expired, ref_stats.drop_expired);
  EXPECT_EQ(merged.drop_unknown_host, ref_stats.drop_unknown_host);
  EXPECT_EQ(merged.drop_replayed, ref_stats.drop_replayed);
  EXPECT_EQ(merged.total_drops(), ref_stats.total_drops());
}

/// A router with its own identity over the fixture's AS whose callbacks
/// record every ICMP packet it emits, in emission order: the wire bytes and
/// where they went (0 for send_external, else the HID delivered to). Sends
/// towards kUnroutable and deliveries to kUndeliverable fail, so every
/// feedback arm fires.
struct IcmpRecorder {
  static constexpr core::Aid kUnroutable = 64998;
  static constexpr core::Hid kUndeliverable = 5;
  std::vector<std::pair<core::Hid, Bytes>> icmp;
  std::unique_ptr<BorderRouter> br;

  IcmpRecorder(ConcurrencyFixture& f, const RouterIdentity& rid) {
    BorderRouter::Callbacks cb;
    cb.send_external = [this](wire::PacketBuf p) -> Result<void> {
      if (p.view().dst_aid() == kUnroutable)
        return Result<void>(Errc::no_route, "unroutable");
      record(0, p);
      return Result<void>::success();
    };
    cb.deliver_internal = [this](core::Hid hid,
                                 wire::PacketBuf p) -> Result<void> {
      if (hid == kUndeliverable)
        return Result<void>(Errc::unknown_host, "undeliverable");
      record(hid, p);
      return Result<void>::success();
    };
    cb.now = [&f] { return f.now; };
    BorderRouter::Config cfg;
    cfg.mtu = 512;
    br = std::make_unique<BorderRouter>(f.as, std::move(cb), cfg);
    br->set_identity(rid);
  }

  void record(core::Hid to, const wire::PacketBuf& p) {
    if (p.view().proto() != wire::NextProto::icmp) return;
    const ByteSpan b = p.view().bytes();
    icmp.emplace_back(to, Bytes(b.begin(), b.end()));
  }
};

TEST(ForwardingPool, IcmpFeedbackMatchesSimulatorPath) {
  // Every §VIII-B arm, plus the packets that must NOT be answered (ICMP
  // offenders, plain check failures at egress, failed transit), through
  // the simulator path and through pools of 1 and 4 threads: the pools
  // must emit the same ICMP packets, byte for byte, in burst order.
  ConcurrencyFixture f;
  RouterIdentity rid;
  rid.aid = f.as.aid;
  rid.ephid = f.as.codec.issue(kHosts + 1, f.now + 900, f.rng);
  f.rng.fill(MutByteSpan(rid.mac_key.data(), rid.mac_key.size()));

  std::vector<core::EphId> flows;
  for (core::Hid hid = 1; hid <= 12; ++hid)
    flows.push_back(f.as.codec.issue(hid, f.now + 900, f.rng));

  SealedBurst egress;
  for (std::size_t i = 0; i < 48; ++i) {
    const core::Hid hid = static_cast<core::Hid>(1 + i % flows.size());
    wire::Packet pkt = f.outgoing_packet(hid, flows[hid - 1]);
    switch (i % 8) {
      case 1: pkt.dst_aid = IcmpRecorder::kUnroutable; break;  // unreachable 0
      case 2: pkt.payload = f.rng.bytes(600); break;            // too big
      case 3:  // too big, but ICMP
        pkt.payload = f.rng.bytes(600);
        pkt.proto = wire::NextProto::icmp;
        break;
      case 4:  // too big from an expired source: its feedback is dropped
        pkt.src_ephid = f.as.codec.issue(hid, f.now - 1, f.rng).bytes;
        pkt.payload = f.rng.bytes(600);
        break;
      case 6:  // failed send of an ICMP packet
        pkt.dst_aid = IcmpRecorder::kUnroutable;
        pkt.proto = wire::NextProto::icmp;
        break;
      default: break;
    }
    core::stamp_packet_mac(
        crypto::AesCmac(ByteSpan(f.host_keys[hid - 1].mac.data(), 16)), pkt);
    if (i % 8 == 5) pkt.mac[0] ^= 1;  // a plain egress drop: no feedback
    egress.push(pkt);
  }

  SealedBurst ingress;
  for (std::size_t i = 0; i < 48; ++i) {
    const core::Hid hid = static_cast<core::Hid>(1 + i % flows.size());
    wire::Packet pkt = f.incoming_packet(flows[hid - 1]);
    switch (i % 8) {
      case 0:  // unreachable 1 towards an AS the feedback cannot reach
        pkt.src_aid = IcmpRecorder::kUnroutable;
        pkt.dst_ephid = f.as.codec.issue(hid, f.now - 1, f.rng).bytes;
        break;
      case 1:  // unreachable 1: expired destination
        pkt.dst_ephid = f.as.codec.issue(hid, f.now - 1, f.rng).bytes;
        break;
      case 2: f.rng.fill(MutByteSpan(pkt.dst_ephid.data(), 16)); break;
      case 3: pkt.dst_ephid = flows[IcmpRecorder::kUndeliverable - 1].bytes;
        break;  // unreachable 2: the delivery fails
      case 4: pkt.dst_aid = 64999; break;  // transit
      case 5: pkt.dst_aid = IcmpRecorder::kUnroutable; break;  // failed transit
      case 6:  // expired destination, but ICMP
        pkt.dst_ephid = f.as.codec.issue(hid, f.now - 1, f.rng).bytes;
        pkt.proto = wire::NextProto::icmp;
        break;
      default: break;
    }
    ingress.push(pkt);
  }

  IcmpRecorder sim(f, rid);
  for (const wire::PacketView& v : egress.views)
    sim.br->on_outgoing(wire::PacketBuf::copy_of(v));
  for (const wire::PacketView& v : ingress.views)
    sim.br->on_ingress(wire::PacketBuf::copy_of(v));
  const BorderRouter::Stats want = sim.br->stats();

  // The simulator path answered every arm.
  std::set<std::pair<core::IcmpType, std::uint32_t>> arms;
  for (const auto& [to, bytes] : sim.icmp) {
    auto pkt = wire::PacketBuf::adopt(bytes);
    ASSERT_TRUE(pkt.ok());
    auto msg = core::decode_msg<core::IcmpMessage>(pkt->view().payload());
    ASSERT_TRUE(msg.ok());
    arms.emplace(msg->type, msg->code);
  }
  EXPECT_EQ(arms, (std::set<std::pair<core::IcmpType, std::uint32_t>>{
                      {core::IcmpType::dest_unreachable, 0},
                      {core::IcmpType::dest_unreachable, 1},
                      {core::IcmpType::dest_unreachable, 2},
                      {core::IcmpType::packet_too_big, 512}}));

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    IcmpRecorder pooled(f, rid);
    ForwardingPool::Config pool_cfg;
    pool_cfg.threads = threads;
    ForwardingPool pool(*pooled.br, pool_cfg);
    pool.process_outgoing(egress.views, f.now);
    pool.process_ingress(ingress.views, f.now);

    ASSERT_EQ(pooled.icmp.size(), sim.icmp.size()) << threads << " threads";
    for (std::size_t k = 0; k < sim.icmp.size(); ++k) {
      EXPECT_EQ(pooled.icmp[k].first, sim.icmp[k].first)
          << threads << " threads, ICMP " << k;
      EXPECT_TRUE(pooled.icmp[k].second == sim.icmp[k].second)
          << threads << " threads, ICMP " << k;
    }
    const BorderRouter::Stats got = pool.stats();
    EXPECT_EQ(got.icmp_sent, want.icmp_sent) << threads << " threads";
    EXPECT_EQ(got.forwarded_out, want.forwarded_out) << threads << " threads";
    EXPECT_EQ(got.delivered_in, want.delivered_in) << threads << " threads";
    EXPECT_EQ(got.transited, want.transited) << threads << " threads";
    EXPECT_EQ(got.total_drops(), want.total_drops()) << threads << " threads";
    // The pool counts into its own slots, never the router's.
    EXPECT_EQ(pooled.br->stats().icmp_sent, 0u) << threads << " threads";
    EXPECT_EQ(pooled.br->stats().total_drops(), 0u) << threads << " threads";
  }
}

// ---- Batched primitives agree with their scalar twins ------------------------

TEST(BatchDeterminism, EphIdOpenBatchGatherEqualsScalar) {
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
  // The gather form reads each EphID in place through its byte pointer,
  // as the classify kernel does over the wire images.
  std::vector<const std::uint8_t*> ptrs(kN);
  for (std::size_t i = 0; i < kN; ++i) ptrs[i] = ids[i].bytes.data();
  std::vector<core::EphIdPlain> plain(kN);
  std::vector<std::uint8_t> ok(kN);
  f.as.codec.open_batch_gather(ptrs.data(), kN, plain.data(), ok.data());
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

// ---- The one classify kernel against the per-packet reference ----------------

/// A pool of egress packets covering every drop arm — bad MAC, forged,
/// expired, revoked EphID, revoked HID, unknown host, too big, replayed —
/// between valid packets of repeating flows (the cacheable case), with
/// payloads from 40 B to 900 B so MAC lanes of a burst retire unevenly.
SealedBurst oracle_egress_pool(ConcurrencyFixture& f, std::size_t mtu) {
  std::vector<core::EphId> flows;
  for (core::Hid hid = 1; hid <= 12; ++hid)
    flows.push_back(f.as.codec.issue(hid, f.now + 900, f.rng));
  const core::EphId revoked = f.as.codec.issue(13, f.now + 900, f.rng);
  f.as.revoked.revoke_ephid(revoked, f.now + 900, 13);
  const core::EphId hid_revoked = f.as.codec.issue(14, f.now + 900, f.rng);
  f.as.revoked.revoke_hid(14);
  const std::size_t payloads[] = {40, 200, 520, 900, 40, 120};

  SealedBurst pool;
  for (std::size_t i = 0; i < 97; ++i) {
    const core::Hid hid = static_cast<core::Hid>(1 + i % flows.size());
    wire::Packet pkt = f.outgoing_packet(hid, flows[hid - 1]);
    pkt.payload = f.rng.bytes(payloads[i % std::size(payloads)]);
    switch (i % 11) {
      case 1: pkt.src_ephid = f.as.codec.issue(hid, f.now - 1, f.rng).bytes;
        break;  // expired
      case 3: f.rng.fill(MutByteSpan(pkt.src_ephid.data(), 16)); break;
      case 5: pkt.src_ephid = revoked.bytes; break;
      case 6: pkt.src_ephid = hid_revoked.bytes; break;
      case 7:  // unknown host, MAC'd under a known host's key
        pkt.src_ephid =
            f.as.codec.issue(kHosts + 100, f.now + 900, f.rng).bytes;
        break;
      case 8: pkt.payload = f.rng.bytes(mtu); break;  // too big
      case 9: pkt.set_nonce(7); break;  // same nonce, same source: replayed
      default: break;
    }
    core::stamp_packet_mac(
        crypto::AesCmac(ByteSpan(f.host_keys[hid - 1].mac.data(), 16)), pkt);
    if (i % 11 == 4) pkt.mac[0] ^= 1;  // bad MAC
    pool.push(pkt);
  }
  return pool;
}

/// The ingress pool: local destinations (repeating, so the cache hits),
/// transit, forged, expired, revoked and unknown-host destinations.
SealedBurst oracle_ingress_pool(ConcurrencyFixture& f) {
  std::vector<core::EphId> flows;
  for (core::Hid hid = 1; hid <= 12; ++hid)
    flows.push_back(f.as.codec.issue(hid, f.now + 900, f.rng));
  const core::EphId revoked = f.as.codec.issue(13, f.now + 900, f.rng);
  f.as.revoked.revoke_ephid(revoked, f.now + 900, 13);

  SealedBurst pool;
  for (std::size_t i = 0; i < 97; ++i) {
    wire::Packet pkt = f.incoming_packet(flows[i % flows.size()]);
    switch (i % 7) {
      case 1: pkt.dst_aid = 64999; break;  // transit
      case 2: f.rng.fill(MutByteSpan(pkt.dst_ephid.data(), 16)); break;
      case 3: pkt.dst_ephid = f.as.codec.issue(3, f.now - 1, f.rng).bytes;
        break;  // expired
      case 4: pkt.dst_ephid = revoked.bytes; break;
      case 5:
        pkt.dst_ephid =
            f.as.codec.issue(kHosts + 100, f.now + 900, f.rng).bytes;
        break;  // unknown host
      default: break;
    }
    pool.push(pkt);
  }
  return pool;
}

/// Burst `size` of the pool, rotated by size so every arm lands at every
/// chunk position across the sweep.
std::vector<wire::PacketView> oracle_burst(const SealedBurst& pool,
                                           std::size_t size) {
  std::vector<wire::PacketView> burst;
  for (std::size_t i = 0; i < size; ++i)
    burst.push_back(pool.views[(size * 13 + i) % pool.views.size()]);
  return burst;
}

class KernelOracle : public ::testing::TestWithParam<BorderRouter::Mode> {};

TEST_P(KernelOracle, EgressEqualsPerPacketReferenceAtEveryBurstSize) {
  // Bursts of 1 to 65 cover every tail-chunk length and the 32 and 64
  // chunk boundaries. Each size runs uncached, then cached cold, then
  // cached warm against one cache, on a fresh router whose replay filter
  // evolves in step with the reference's.
  ConcurrencyFixture f;
  BorderRouter::Config cfg;
  cfg.mode = GetParam();
  cfg.replay_filter = true;
  cfg.mtu = 1024;
  const SealedBurst pool = oracle_egress_pool(f, cfg.mtu);
  std::uint64_t drops = 0;
  for (std::size_t size = 1; size <= 65; ++size) {
    const std::vector<wire::PacketView> burst = oracle_burst(pool, size);
    auto br = f.make_router(cfg);
    EgressReference reference(*br);
    core::FlowCache cache(256);
    for (const char* leg : {"uncached", "cold", "warm"}) {
      core::FlowCache* c = leg[0] == 'u' ? nullptr : &cache;
      std::vector<BorderRouter::Verdict> got(size);
      BorderRouter::Stats stats;
      br->classify_outgoing_burst(burst, f.now, got, stats, c);
      std::uint64_t want_drops = 0;
      for (std::size_t i = 0; i < size; ++i) {
        const Errc want = reference(burst[i], f.now);
        if (want != Errc::ok) ++want_drops;
        EXPECT_EQ(static_cast<int>(got[i].err), static_cast<int>(want))
            << leg << " burst " << size << " packet " << i;
      }
      EXPECT_EQ(stats.total_drops(), want_drops)
          << leg << " burst " << size;
      drops += want_drops;
    }
  }
  EXPECT_GT(drops, 0u);
}

TEST_P(KernelOracle, IngressEqualsPerPacketReferenceAtEveryBurstSize) {
  ConcurrencyFixture f;
  BorderRouter::Config cfg;
  cfg.mode = GetParam();
  const SealedBurst pool = oracle_ingress_pool(f);
  auto br = f.make_router(cfg);
  for (std::size_t size = 1; size <= 65; ++size) {
    const std::vector<wire::PacketView> burst = oracle_burst(pool, size);
    core::FlowCache cache(256);
    for (const char* leg : {"uncached", "cold", "warm"}) {
      core::FlowCache* c = leg[0] == 'u' ? nullptr : &cache;
      std::vector<BorderRouter::Verdict> got(size);
      BorderRouter::Stats stats;
      br->classify_ingress_burst(burst, f.now, got, stats, c);
      std::uint64_t want_drops = 0;
      for (std::size_t i = 0; i < size; ++i) {
        const BorderRouter::Verdict want =
            ingress_reference(*br, burst[i], f.now);
        if (want.err != Errc::ok) ++want_drops;
        EXPECT_EQ(static_cast<int>(got[i].err), static_cast<int>(want.err))
            << leg << " burst " << size << " packet " << i;
        EXPECT_EQ(got[i].local, want.local)
            << leg << " burst " << size << " packet " << i;
        EXPECT_EQ(got[i].hid, want.hid)
            << leg << " burst " << size << " packet " << i;
      }
      EXPECT_EQ(stats.total_drops(), want_drops)
          << leg << " burst " << size;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, KernelOracle,
                         ::testing::Values(BorderRouter::Mode::apna,
                                           BorderRouter::Mode::baseline),
                         [](const auto& info) {
                           return info.param == BorderRouter::Mode::apna
                                      ? std::string("apna")
                                      : std::string("baseline");
                         });

}  // namespace
}  // namespace apna::router
