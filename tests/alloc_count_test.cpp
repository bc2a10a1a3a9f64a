// Steady-state zero-allocation check for the router fast path.
//
// The zero-copy packet API exists so the Fig 4 forwarding pipeline can run
// without touching the heap: buffers are recycled through wire::BufferPool,
// checks run in place over PacketViews, and handoffs move (or pool-copy)
// the wire image. This suite replaces global operator new/delete with a
// counting hook and asserts that, after a warm-up pass, forwarding a burst
// performs ZERO heap allocations per packet — and zero PacketView::
// to_owned() deep copies (the audited control-plane-only copy point).
// Dropping a packet on any Fig 4 abort arm is held to the same zero.
//
// Two off-router paths are held to a count as well: a host's session seal
// and open make exactly one allocation per frame (the frame, the
// plaintext), and a ResolverPool burst over cached names makes none.
//
// Runs in the Release leg of ci.sh so a copy/allocation regression fails
// CI, not just the benchmark.
#include <gtest/gtest.h>

#include <string>

#include "core/packet_auth.h"
#include "core/session.h"
#include "dns/resolver.h"
#include "router/border_router.h"
#include "router/forwarding_pool.h"
#include "services/dns_zone.h"
#include "util/alloc_count_hook.h"

namespace apna::router {
namespace {

struct AllocFixture {
  crypto::ChaChaRng rng{12021};
  core::AsState as{64512, core::AsSecrets::generate(rng)};
  core::ExpTime now = 1'700'000'000;
  std::vector<core::HostAsKeys> host_keys;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;

  AllocFixture() {
    for (core::Hid hid = 1; hid <= 64; ++hid) {
      crypto::SharedSecret seed{};
      rng.fill(MutByteSpan(seed.data(), 32));
      core::HostRecord rec;
      rec.hid = hid;
      rec.keys = core::HostAsKeys::derive(seed);
      as.host_db.upsert(rec);
      host_keys.push_back(rec.keys);
    }
  }

  std::unique_ptr<BorderRouter> make_router() {
    BorderRouter::Callbacks cb;
    // Consuming callbacks: the handed-off buffer dies here and its storage
    // returns to the pool, exactly like a transmit queue draining.
    cb.send_external = [this](wire::PacketBuf) -> Result<void> {
      ++sent;
      return Result<void>::success();
    };
    cb.deliver_internal = [this](core::Hid, wire::PacketBuf) -> Result<void> {
      ++delivered;
      return Result<void>::success();
    };
    cb.now = [this] { return now; };
    return std::make_unique<BorderRouter>(as, std::move(cb));
  }

  wire::PacketBuf egress_packet(core::Hid hid) {
    return egress_packet(hid, as.codec.issue(hid, now + 900, rng));
  }

  wire::PacketBuf egress_packet(core::Hid hid, const core::EphId& src) {
    wire::Packet pkt;
    pkt.src_aid = as.aid;
    pkt.src_ephid = src.bytes;
    pkt.dst_aid = 64513;
    rng.fill(MutByteSpan(pkt.dst_ephid.data(), 16));
    pkt.proto = wire::NextProto::data;
    pkt.payload = rng.bytes(400);
    core::stamp_packet_mac(
        crypto::AesCmac(ByteSpan(host_keys[hid - 1].mac.data(), 16)), pkt);
    return pkt.seal();
  }
};

TEST(ZeroAlloc, BurstClassifyAndApplySteadyState) {
  AllocFixture f;
  auto br = f.make_router();

  constexpr std::size_t kBurst = 128;
  std::vector<wire::PacketBuf> bufs;
  std::vector<wire::PacketView> views;
  for (std::size_t i = 0; i < kBurst; ++i)
    bufs.push_back(f.egress_packet(static_cast<core::Hid>(1 + i % 64)));
  for (const auto& b : bufs) views.push_back(b.view());
  std::vector<BorderRouter::Verdict> verdicts(views.size());
  BorderRouter::Stats stats;

  auto run_round = [&] {
    br->classify_outgoing_burst(views, f.now, verdicts, stats);
    br->apply_outgoing_verdicts(views, verdicts, stats);
  };

  // Warm-up: populates the thread's BufferPool free list.
  for (int i = 0; i < 4; ++i) run_round();

  constexpr int kRounds = 100;
  const wire::CopyAudit audit0 = wire::copy_audit();
  const std::uint64_t allocs0 = util::heap_alloc_count();
  for (int i = 0; i < kRounds; ++i) run_round();
  const std::uint64_t allocs = util::heap_alloc_count() -
                               allocs0;
  const wire::CopyAudit audit1 = wire::copy_audit();

  EXPECT_EQ(allocs, 0u)
      << "forwarding " << (kRounds * kBurst)
      << " packets allocated " << allocs << " times";
  // Every forwarded packet is exactly one pooled handoff copy...
  EXPECT_EQ(audit1.copies - audit0.copies, kBurst * kRounds);
  // ... and never a deep to_owned() parse or a re-serialization.
  EXPECT_EQ(audit1.to_owned, audit0.to_owned);
  EXPECT_EQ(audit1.seals, audit0.seals);
  EXPECT_EQ(stats.total_drops(), 0u);
  EXPECT_EQ(f.sent, (4u + kRounds) * kBurst);
}

TEST(ZeroAlloc, SingleBufferMovePathSteadyState) {
  // The simulator shape: on_outgoing() takes ownership and its action
  // phase moves the SAME buffer to send_external — zero allocations AND
  // zero copies once the pool is warm.
  AllocFixture f;
  auto br = f.make_router();

  const wire::PacketBuf proto_pkt = f.egress_packet(5);

  // Warm-up.
  for (int i = 0; i < 4; ++i)
    br->on_outgoing(wire::PacketBuf::copy_of(proto_pkt.view()));

  constexpr int kIters = 500;
  const wire::CopyAudit audit0 = wire::copy_audit();
  const std::uint64_t allocs0 = util::heap_alloc_count();
  for (int i = 0; i < kIters; ++i) {
    // One pooled copy to mint the packet (stands in for the host's seal);
    // the router itself must add nothing.
    br->on_outgoing(wire::PacketBuf::copy_of(proto_pkt.view()));
  }
  const std::uint64_t allocs = util::heap_alloc_count() -
                               allocs0;
  const wire::CopyAudit audit1 = wire::copy_audit();

  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(audit1.copies - audit0.copies, kIters);  // only the mint copies
  EXPECT_EQ(audit1.to_owned, audit0.to_owned);
  EXPECT_EQ(br->stats().forwarded_out, 4u + kIters);
}

TEST(ZeroAlloc, ForwardingPoolSteadyState) {
  // The M-worker pool: classification on workers, actions on the caller —
  // still allocation-free per packet once warm.
  AllocFixture f;
  auto br = f.make_router();

  constexpr std::size_t kBurst = 96;
  std::vector<wire::PacketBuf> bufs;
  std::vector<wire::PacketView> views;
  for (std::size_t i = 0; i < kBurst; ++i)
    bufs.push_back(f.egress_packet(static_cast<core::Hid>(1 + i % 64)));
  for (const auto& b : bufs) views.push_back(b.view());

  ForwardingPool::Config cfg;
  cfg.threads = 2;
  ForwardingPool pool(*br, cfg);

  for (int i = 0; i < 4; ++i) pool.process_outgoing(views, f.now);

  constexpr int kRounds = 50;
  const std::uint64_t allocs0 = util::heap_alloc_count();
  for (int i = 0; i < kRounds; ++i) pool.process_outgoing(views, f.now);
  const std::uint64_t allocs = util::heap_alloc_count() -
                               allocs0;

  EXPECT_EQ(allocs, 0u)
      << "pool forwarded " << (kRounds * kBurst) << " packets with "
      << allocs << " heap allocations";
  EXPECT_EQ(pool.stats().total_drops(), 0u);
}

TEST(ZeroAlloc, PacedBurstsThroughOneThreadPool) {
  // The paced shape: a 1-thread pool fed bursts of 1 to 4 packets runs the
  // same classify kernel as a full burst — nothing allocated per packet,
  // with and without the flow cache.
  AllocFixture f;
  auto br = f.make_router();

  std::vector<wire::PacketBuf> bufs;
  std::vector<wire::PacketView> views;
  for (core::Hid hid = 1; hid <= 64; ++hid)
    bufs.push_back(f.egress_packet(hid));
  for (const auto& b : bufs) views.push_back(b.view());
  const std::span<const wire::PacketView> all(views);

  for (const std::size_t cache_entries : {std::size_t{0}, std::size_t{4096}}) {
    ForwardingPool::Config cfg;
    cfg.threads = 1;
    cfg.flow_cache_entries = cache_entries;
    ForwardingPool pool(*br, cfg);
    auto run_paced = [&] {
      for (std::size_t at = 0, size = 1; at < all.size();
           at += size, size = size % 4 + 1)
        pool.process_outgoing(all.subspan(at, std::min(size, all.size() - at)),
                              f.now);
    };
    for (int i = 0; i < 4; ++i) run_paced();

    constexpr int kRounds = 50;
    const std::uint64_t allocs0 = util::heap_alloc_count();
    for (int i = 0; i < kRounds; ++i) run_paced();
    EXPECT_EQ(util::heap_alloc_count() - allocs0, 0u)
        << "1-thread pool, bursts of 1-4, flow cache entries "
        << cache_entries;
    EXPECT_EQ(pool.stats().total_drops(), 0u);
    EXPECT_EQ(pool.stats().forwarded_out, (4u + kRounds) * views.size());
  }
}

TEST(ZeroAlloc, DropArmsSteadyState) {
  // Fig 4's abort arms — forged EphID, bad MAC, expired, revoked — must be
  // as allocation-free as the pass arm on both data paths: a drop reports
  // a static error detail, never a heap string.
  AllocFixture f;
  auto br = f.make_router();

  std::vector<wire::PacketBuf> bufs;
  for (core::Hid hid = 1; hid <= 8; ++hid) {
    core::EphId forged;
    f.rng.fill(MutByteSpan(forged.bytes.data(), 16));
    bufs.push_back(f.egress_packet(hid, forged));

    wire::PacketBuf bad_mac = f.egress_packet(hid);
    bad_mac.mutable_bytes().back() ^= 1;  // payload is MAC-covered
    bufs.push_back(std::move(bad_mac));

    bufs.push_back(
        f.egress_packet(hid, f.as.codec.issue(hid, f.now - 1, f.rng)));

    const core::EphId revoked = f.as.codec.issue(hid, f.now + 900, f.rng);
    f.as.revoked.revoke_ephid(revoked, f.now + 900, hid);
    bufs.push_back(f.egress_packet(hid, revoked));
  }
  std::vector<wire::PacketView> views;
  for (const auto& b : bufs) views.push_back(b.view());

  auto expect_every_arm = [](const BorderRouter::Stats& s) {
    EXPECT_GT(s.drop_bad_ephid, 0u);
    EXPECT_GT(s.drop_bad_mac, 0u);
    EXPECT_GT(s.drop_expired, 0u);
    EXPECT_GT(s.drop_revoked, 0u);
    EXPECT_EQ(s.forwarded_out, 0u);
  };

  constexpr int kRounds = 50;
  for (const std::size_t cache_entries : {std::size_t{0}, std::size_t{4096}}) {
    ForwardingPool::Config cfg;
    cfg.threads = 1;
    cfg.flow_cache_entries = cache_entries;
    ForwardingPool pool(*br, cfg);
    for (int i = 0; i < 4; ++i) pool.process_outgoing(views, f.now);

    const std::uint64_t allocs0 = util::heap_alloc_count();
    for (int i = 0; i < kRounds; ++i) pool.process_outgoing(views, f.now);
    EXPECT_EQ(util::heap_alloc_count() - allocs0, 0u)
        << "1-thread pool, flow cache entries " << cache_entries;
    expect_every_arm(pool.stats());
  }

  // The simulator path: on_outgoing() runs each packet through the same
  // kernel as a burst of one, then the action phase with its owned buffer.
  auto run_simulator = [&] {
    for (const auto& v : views) br->on_outgoing(wire::PacketBuf::copy_of(v));
  };
  for (int i = 0; i < 4; ++i) run_simulator();
  const std::uint64_t allocs0 = util::heap_alloc_count();
  for (int i = 0; i < kRounds; ++i) run_simulator();
  EXPECT_EQ(util::heap_alloc_count() - allocs0, 0u) << "on_outgoing";
  expect_every_arm(br->stats());
}

TEST(HostAlloc, SessionSealAndOpenOneAllocationPerFrame) {
  // §IV-D's per-packet session AEAD: after warm-up, seal() builds counter ‖
  // ciphertext ‖ tag in one buffer and open() returns the one plaintext
  // buffer the AEAD filled, on both suites and at the plaintext sizes of
  // 128 / 512 / 1518 B frames.
  crypto::ChaChaRng rng(4242);
  const auto a_kp = core::EphIdKeyPair::generate(rng);
  const auto b_kp = core::EphIdKeyPair::generate(rng);
  core::EphId a_eph, b_eph;
  rng.fill(MutByteSpan(a_eph.bytes.data(), 16));
  rng.fill(MutByteSpan(b_eph.bytes.data(), 16));
  for (const auto suite : {crypto::AeadSuite::chacha20_poly1305,
                           crypto::AeadSuite::aes128_ctr_cmac}) {
    auto tx = core::Session::derive(a_kp, a_eph, b_kp.pub.dh, b_eph, suite,
                                    /*initiator=*/true);
    auto rx = core::Session::derive(b_kp, b_eph, a_kp.pub.dh, a_eph, suite,
                                    /*initiator=*/false);
    for (const std::size_t len : {52u, 436u, 1442u}) {
      const Bytes pt = rng.bytes(len);
      for (int i = 0; i < 4; ++i) ASSERT_TRUE(rx.open(tx.seal(pt)).ok());
      for (int i = 0; i < 32; ++i) {
        std::uint64_t allocs0 = util::heap_alloc_count();
        const Bytes frame = tx.seal(pt);
        const std::uint64_t seal_allocs = util::heap_alloc_count() - allocs0;
        allocs0 = util::heap_alloc_count();
        auto opened = rx.open(frame);
        const std::uint64_t open_allocs = util::heap_alloc_count() - allocs0;
        ASSERT_TRUE(opened.ok());
        EXPECT_EQ(seal_allocs, 1u)
            << crypto::aead_suite_name(suite) << " seal " << len;
        EXPECT_EQ(open_allocs, 1u)
            << crypto::aead_suite_name(suite) << " open " << len;
      }
    }
  }
}

TEST(DnsAlloc, ResolverPoolCachedBurstAllocatesNothing) {
  // With no policy rules, a burst over cached canonical names (positive
  // and negative answers) reuses each answer's record storage: the second
  // burst makes no heap allocation at all.
  services::DnsZone zone;
  net::EventLoop loop;
  dns::Resolver::Config cfg;
  cfg.cache.capacity = 1 << 12;
  dns::Resolver resolver(zone, loop, cfg);
  std::vector<std::string> names;
  for (std::uint32_t i = 0; i < 512; ++i) {
    names.push_back("h" + std::to_string(i) + ".svc.apna.example");
    if (i % 8 == 7) continue;  // NXDOMAIN: cached negative
    core::DnsRecord rec;
    rec.name = names.back();
    rec.ipv4 = i + 1;
    zone.put(rec);
  }
  dns::ResolverPool pool(resolver, dns::ResolverPool::Config{2});
  std::vector<dns::Resolver::Answer> out(names.size());
  pool.process_lookups(names, /*now=*/1, out);

  const std::uint64_t allocs0 = util::heap_alloc_count();
  pool.process_lookups(names, /*now=*/1, out);
  EXPECT_EQ(util::heap_alloc_count() - allocs0, 0u);
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i % 8 == 7) {
      EXPECT_EQ(out[i].source, dns::Resolver::Source::negative_cache);
    } else {
      EXPECT_EQ(out[i].source, dns::Resolver::Source::cache);
      EXPECT_EQ(out[i].record.name, names[i]);
    }
  }
}

}  // namespace
}  // namespace apna::router
