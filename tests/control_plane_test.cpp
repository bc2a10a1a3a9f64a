// Control-plane fabric tests:
//  * encode/decode_msg round trips on randomized messages, with per-byte
//    truncation rejection through the strict decoder (the exact wire
//    bytes are pinned separately by codec_golden_test),
//  * PacketWriter ↔ Packet::seal wire-image equivalence,
//  * ServiceDispatcher routing by destination EphID,
//  * ServicePool issuance determinism: M workers emit bit-identical
//    responses to the single-threaded pool, plus pooled shutoff bursts,
//  * the EphID IV each pooled reply takes from its reply nonce.
#include <gtest/gtest.h>

#include "core/packet_auth.h"
#include "crypto/x25519.h"
#include "host/ephid_pool.h"
#include "msg_bytes.h"
#include "services/accountability_agent.h"
#include "dns/dns_service.h"
#include "persist/vfs.h"
#include "services/management_service.h"
#include "services/persist_coordinator.h"
#include "services/registry_service.h"
#include "services/service_identity.h"
#include "services/service_runtime.h"
#include "services/subscriber_registry.h"
#include "wire/msg_codec.h"

namespace apna {
namespace {

// ---- Randomized message corpus ----------------------------------------------

struct Gen {
  crypto::ChaChaRng rng{20260726};

  template <std::size_t N>
  std::array<std::uint8_t, N> arr() {
    std::array<std::uint8_t, N> out;
    rng.fill(MutByteSpan(out.data(), N));
    return out;
  }
  core::EphId ephid() {
    core::EphId e;
    e.bytes = arr<16>();
    return e;
  }
  std::string name(std::size_t max = 24) {
    const std::size_t n = 1 + rng.next_u64() % max;
    std::string s;
    for (std::size_t i = 0; i < n; ++i)
      s.push_back(static_cast<char>('a' + rng.next_u64() % 26));
    return s;
  }
  core::EphIdCertificate cert() {
    core::EphIdCertificate c;
    c.ephid = ephid();
    c.exp_time = static_cast<core::ExpTime>(rng.next_u64());
    c.pub.dh = arr<32>();
    c.pub.sig = arr<32>();
    c.aid = static_cast<core::Aid>(rng.next_u64());
    c.aa_ephid = ephid();
    c.flags = static_cast<std::uint8_t>(rng.next_u64() % 4);
    c.sig = arr<64>();
    return c;
  }
};

/// One round-trip + truncation pass for a message.
template <class M>
void check_codec(const M& msg) {
  wire::MsgWriter w(16);
  msg.encode(w);

  // 1. Round trip: decode(encode(m)) == m.
  auto back = core::decode_msg<M>(w.span());
  ASSERT_TRUE(back.ok()) << errc_name(back.code());
  EXPECT_TRUE(*back == msg);

  // 2. Every strict prefix is rejected (truncation at each byte boundary).
  for (std::size_t cut = 0; cut < w.size(); ++cut) {
    auto t = core::decode_msg<M>(w.span().first(cut));
    EXPECT_FALSE(t.ok()) << "prefix of " << cut << "/" << w.size()
                         << " bytes decoded";
  }
}

TEST(MsgCodec, RoundTripsRandomizedMessages) {
  Gen g;
  for (int iter = 0; iter < 25; ++iter) {
    {
      core::BootstrapRequest m;
      m.subscriber_id = static_cast<std::uint32_t>(g.rng.next_u64());
      m.credential = g.rng.bytes(1 + g.rng.next_u64() % 40);
      m.host_pub = g.arr<32>();
      check_codec(m);
    }
    {
      core::BootstrapResponse m;
      m.hid = static_cast<core::Hid>(g.rng.next_u64());
      m.ctrl_ephid = g.ephid();
      m.ctrl_exp_time = static_cast<core::ExpTime>(g.rng.next_u64());
      m.id_info_sig = g.arr<64>();
      m.ms_cert = g.cert();
      m.dns_cert = g.cert();
      m.aid = static_cast<core::Aid>(g.rng.next_u64());
      m.aa_ephid = g.ephid();
      check_codec(m);
    }
    {
      core::EphIdRequest m;
      m.ephid_pub.dh = g.arr<32>();
      m.ephid_pub.sig = g.arr<32>();
      m.flags = g.rng.next_u64() % 2 ? core::kRequestReceiveOnly : 0;
      m.lifetime = static_cast<core::EphIdLifetime>(g.rng.next_u64() % 3);
      m.pop_sig = g.arr<64>();
      check_codec(m);
    }
    {
      core::EphIdResponse m;
      m.cert = g.cert();
      check_codec(m);
    }
    {
      core::HandshakeInit m;
      m.client_cert = g.cert();
      m.client_nonce = g.rng.next_u64();
      m.suite = g.rng.next_u64() % 2 ? crypto::AeadSuite::chacha20_poly1305
                                     : crypto::AeadSuite::aes128_ctr_cmac;
      if (g.rng.next_u64() % 2) m.early_data = g.rng.bytes(g.rng.next_u64() % 64);
      check_codec(m);
    }
    {
      core::HandshakeResponse m;
      m.serving_cert = g.cert();
      m.server_nonce = g.rng.next_u64();
      m.suite = g.rng.next_u64() % 2 ? crypto::AeadSuite::chacha20_poly1305
                                     : crypto::AeadSuite::aes128_ctr_cmac;
      check_codec(m);
    }
    {
      core::DnsQuery m;
      m.name = g.name();
      check_codec(m);
    }
    {
      core::DnsResponse m;
      m.status = g.rng.next_u64() % 2;
      if (m.status == 0) {
        core::DnsRecord rec;
        rec.name = g.name();
        rec.cert = g.cert();
        rec.ipv4 = static_cast<std::uint32_t>(g.rng.next_u64());
        rec.sig = g.arr<64>();
        m.record = rec;
      }
      check_codec(m);
    }
    {
      core::DnsPublish m;
      m.name = g.name();
      m.cert = g.cert();
      m.ipv4 = static_cast<std::uint32_t>(g.rng.next_u64());
      check_codec(m);
    }
    {
      core::ShutoffRequest m;
      m.offending_packet = g.rng.bytes(1 + g.rng.next_u64() % 128);
      m.sig = g.arr<64>();
      m.dst_cert = g.cert();
      check_codec(m);
    }
    {
      core::EphIdRevokeRequest m;
      m.ephid = g.ephid();
      m.sig = g.arr<64>();
      m.cert = g.cert();
      check_codec(m);
    }
    {
      core::ShutoffResponse m;
      m.status = static_cast<std::uint8_t>(g.rng.next_u64());
      check_codec(m);
    }
    {
      core::IcmpMessage m;
      m.type = static_cast<core::IcmpType>(g.rng.next_u64() % 5);
      m.code = static_cast<std::uint32_t>(g.rng.next_u64());
      m.data = g.rng.bytes(g.rng.next_u64() % 64);
      check_codec(m);
    }
  }
}

TEST(MsgCodec, PacketWriterMatchesPacketSeal) {
  Gen g;
  for (int i = 0; i < 16; ++i) {
    wire::Packet p;
    p.src_aid = static_cast<core::Aid>(g.rng.next_u64());
    p.src_ephid = g.arr<16>();
    p.dst_ephid = g.arr<16>();
    p.dst_aid = static_cast<core::Aid>(g.rng.next_u64());
    p.proto = static_cast<wire::NextProto>(g.rng.next_u64() % 5);
    const Bytes payload = g.rng.bytes(g.rng.next_u64() % 200);
    p.payload = payload;
    std::optional<std::uint64_t> nonce;
    if (i % 2 == 0) {
      nonce = g.rng.next_u64();
      p.set_nonce(*nonce);
    }

    wire::PacketBuf legacy = p.seal();
    wire::PacketWriter pw(p.src_aid, p.src_ephid, p.dst_aid, p.dst_ephid,
                          p.proto, nonce);
    pw.raw(payload);
    wire::PacketBuf direct = pw.finish();

    ASSERT_EQ(legacy.wire_size(), direct.wire_size());
    EXPECT_TRUE(std::equal(legacy.view().bytes().begin(),
                           legacy.view().bytes().end(),
                           direct.view().bytes().begin()));
    EXPECT_EQ(legacy.view().payload().size(), direct.view().payload().size());
  }
}

// ---- Service fixture (mirrors services_test's AsFixture) --------------------

struct Fixture {
  crypto::ChaChaRng rng;
  net::EventLoop loop;
  core::AsState as{64512, core::AsSecrets::generate(rng)};
  core::AsDirectory dir;
  services::SubscriberRegistry subs;
  services::RegistryService rs{as, subs, loop, rng};
  services::ServiceIdentity aa_ident = services::make_service_identity(
      as, rs.allocate_hid(), loop.now_seconds() + 86400, 0, nullptr, rng);
  services::ServiceIdentity ms_ident = services::make_service_identity(
      as, rs.allocate_hid(), loop.now_seconds() + 86400, 0,
      &aa_ident.cert.ephid, rng);
  services::ServiceIdentity dns_ident = services::make_service_identity(
      as, rs.allocate_hid(), loop.now_seconds() + 86400, 0,
      &aa_ident.cert.ephid, rng);
  services::ManagementService ms{as, loop, rng, ms_ident};
  services::AccountabilityAgent aa{as, dir, loop, aa_ident};
  services::DnsZone zone;
  dns::Resolver resolver{zone, loop, dns::Resolver::Config{}};
  dns::DnsService dns{as, dir, loop, rng, dns_ident, resolver};

  core::Hid hid = 0;
  core::EphId ctrl;
  core::HostAsKeys keys;

  explicit Fixture(std::uint64_t seed = 7001) : rng(seed) {
    core::AsPublicInfo info;
    info.aid = as.aid;
    info.sign_pub = as.secrets.sign.pub;
    info.dh_pub = as.secrets.dh.pub;
    info.aa_ephid = aa_ident.cert.ephid;
    dir.register_as(info);
    subs.add_subscriber(1, to_bytes("pw"));

    auto lt = crypto::X25519KeyPair::generate(rng);
    core::BootstrapRequest req;
    req.subscriber_id = 1;
    req.credential = to_bytes("pw");
    req.host_pub = lt.pub;
    auto resp = rs.bootstrap(req);
    hid = resp->hid;
    ctrl = resp->ctrl_ephid;
    keys = core::HostAsKeys::derive(
        crypto::x25519_shared(lt.priv, as.secrets.dh.pub));
  }

  /// Pre-seals `n` EphID requests under kHA (client side of Fig 3).
  std::vector<Bytes> make_requests(std::size_t n, std::uint64_t nonce0) {
    std::vector<Bytes> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto kp = core::EphIdKeyPair::generate(rng);
      core::EphIdRequest req;
      req.ephid_pub = kp.pub;
      req.flags = 0;
      req.lifetime =
          static_cast<core::EphIdLifetime>(i % host::kLifetimeClasses);
      req.pop_sig = kp.sign(req.pop_tbs());
      out.push_back(
          core::seal_control(keys, nonce0 + i, true, test::encoded(req)));
    }
    return out;
  }

  /// A control packet addressed to `dst` carrying `payload`.
  wire::PacketBuf make_control_packet(const core::EphId& dst,
                                      wire::NextProto proto, ByteSpan payload) {
    wire::PacketWriter pw(as.aid, ctrl.bytes, as.aid, dst.bytes, proto);
    pw.raw(payload);
    return pw.finish();
  }
};

// ---- Dispatcher routing ------------------------------------------------------

TEST(ServiceDispatcher, RoutesByDestinationEphId) {
  Fixture f;
  std::vector<wire::PacketBuf> replies;
  services::ServiceDispatcher disp(
      [&](wire::PacketBuf reply) { replies.push_back(std::move(reply)); });
  disp.add(f.ms);
  disp.add(f.aa);
  disp.add(f.dns);
  EXPECT_EQ(disp.service_count(), 3u);

  EXPECT_EQ(disp.route(f.ms.service_ephid()), &f.ms);
  EXPECT_EQ(disp.route(f.aa.service_ephid()), &f.aa);
  EXPECT_EQ(disp.route(f.dns.service_ephid()), &f.dns);
  EXPECT_EQ(disp.route(f.ctrl), nullptr);

  // A real issuance RPC through the dispatcher: reply comes from the MS
  // EphID, addressed back to the control EphID, and decrypts to a valid
  // certificate.
  const auto reqs = f.make_requests(1, 1);
  disp.dispatch(f.make_control_packet(f.ms.service_ephid(),
                                      wire::NextProto::control, reqs[0]));
  ASSERT_EQ(replies.size(), 1u);
  const wire::PacketView& v = replies[0].view();
  EXPECT_EQ(v.src_ephid(), f.ms.service_ephid().bytes);
  EXPECT_EQ(v.dst_ephid(), f.ctrl.bytes);
  auto opened = core::open_control(f.keys, false, v.payload());
  ASSERT_TRUE(opened.ok());
  auto resp = core::decode_msg<core::EphIdResponse>(*opened);
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp->cert.verify(f.as.secrets.sign.pub,
                                f.loop.now_seconds()).ok());
  EXPECT_EQ(disp.stats().dispatched, 1u);
  EXPECT_EQ(disp.stats().replies, 1u);

  // Unknown destination EphID: counted, no reply, no crash.
  core::EphId stranger;
  f.rng.fill(MutByteSpan(stranger.bytes.data(), 16));
  disp.dispatch(f.make_control_packet(stranger, wire::NextProto::control,
                                      reqs[0]));
  EXPECT_EQ(disp.stats().unrouted, 1u);
  EXPECT_EQ(replies.size(), 1u);

  // Wrong proto for the routed service: the service rejects, the
  // dispatcher counts it as a service error and forwards nothing.
  disp.dispatch(f.make_control_packet(f.ms.service_ephid(),
                                      wire::NextProto::data, reqs[0]));
  EXPECT_EQ(disp.stats().service_errors, 1u);
  EXPECT_EQ(replies.size(), 1u);
}

// ---- Pooled issuance ---------------------------------------------------------

TEST(ServicePool, PooledIssuanceIsDeterministicVsSingleThreaded) {
  constexpr std::size_t kN = 96;

  // Two identical worlds (same seeds end to end), different thread counts.
  auto run = [&](std::size_t threads) {
    Fixture f;
    services::ServicePool::Config cfg;
    cfg.threads = threads;
    services::ServicePool pool(f.ms, &f.aa, cfg);

    const auto requests = f.make_requests(kN, 1);
    std::vector<services::ServicePool::IssueJob> jobs(kN);
    for (std::size_t i = 0; i < kN; ++i)
      jobs[i] = {f.ctrl, requests[i]};
    std::vector<Result<Bytes>> results(kN, Result<Bytes>(Errc::internal));
    pool.process_issuance(jobs, f.loop.now_seconds(), results);

    EXPECT_EQ(pool.stats().issuance_jobs, kN);
    EXPECT_EQ(pool.stats().failed_jobs, 0u);
    EXPECT_EQ(f.ms.stats().issued, kN);

    std::vector<Bytes> out;
    out.reserve(kN);
    for (auto& r : results) {
      EXPECT_TRUE(r.ok());
      // Every response decrypts to a certificate bound to our HID.
      auto opened = core::open_control(f.keys, false, *r);
      EXPECT_TRUE(opened.ok());
      auto resp = core::decode_msg<core::EphIdResponse>(*opened);
      EXPECT_TRUE(resp.ok());
      auto plain = f.as.codec.open(resp->cert.ephid);
      EXPECT_TRUE(plain.ok());
      EXPECT_EQ(plain->hid, f.hid);
      out.push_back(r.take());
    }
    return out;
  };

  const auto single = run(1);
  const auto quad = run(4);
  ASSERT_EQ(single.size(), quad.size());
  for (std::size_t i = 0; i < single.size(); ++i)
    EXPECT_EQ(single[i], quad[i]) << "response " << i
                                  << " differs across thread counts";
}

/// A pooled reply as its host reads it: the clear nonce and the certificate.
struct PooledReply {
  std::uint64_t nonce = 0;  // sent in clear, first 8 bytes
  core::EphIdCertificate cert;
};

PooledReply open_reply(const Fixture& f, ByteSpan sealed) {
  PooledReply out;
  out.nonce = load_be64(sealed.data());
  auto opened = core::open_control(f.keys, false, sealed);
  EXPECT_TRUE(opened.ok());
  auto resp = core::decode_msg<core::EphIdResponse>(*opened);
  EXPECT_TRUE(resp.ok());
  out.cert = resp->cert;
  return out;
}

std::uint32_t iv_of(const core::EphId& e) {
  return load_be32(e.bytes.data() + core::EphIdCodec::kIvOffset);
}

/// Issues `n` requests of `f`'s host through a pool of `threads`.
std::vector<Result<Bytes>> issue_burst(Fixture& f, std::size_t n,
                                       std::size_t threads) {
  services::ServicePool::Config cfg;
  cfg.threads = threads;
  services::ServicePool pool(f.ms, nullptr, cfg);
  const auto requests = f.make_requests(n, 1);
  std::vector<services::ServicePool::IssueJob> jobs(n);
  for (std::size_t i = 0; i < n; ++i) jobs[i] = {f.ctrl, requests[i]};
  std::vector<Result<Bytes>> results(n, Result<Bytes>(Errc::internal));
  pool.process_issuance(jobs, f.loop.now_seconds(), results);
  return results;
}

TEST(ServicePool, IvsAreKeyedNotReadableFromTheClearNonce) {
  // §IV-C seals the reply so no observer can relate the fresh EphID to the
  // request. Two ASes under different kA issue the same burst: reply i
  // carries the same clear nonce in both, and the IVs must still differ —
  // an IV anyone can compute from the nonce would be that link.
  constexpr std::size_t kN = 2 * services::ServicePool::kChunkJobs;
  Fixture a(7001), b(7002);
  ASSERT_NE(a.as.secrets.ka, b.as.secrets.ka);
  const auto ra = issue_burst(a, kN, 2);
  const auto rb = issue_burst(b, kN, 2);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(ra[i].ok() && rb[i].ok()) << i;
    const PooledReply pa = open_reply(a, *ra[i]);
    const PooledReply pb = open_reply(b, *rb[i]);
    EXPECT_EQ(pa.nonce, pb.nonce) << i;
    EXPECT_NE(iv_of(pa.cert.ephid), iv_of(pb.cert.ephid)) << i;
  }
}

TEST(ServicePool, PooledIvsArePermutedReplyNonces) {
  // Every pooled reply's IV is the codec's permutation of that reply's
  // nonce, and the scalar path, given the same nonces, emits the same
  // bytes.
  constexpr std::size_t kN = 40;
  Fixture f;
  const auto results = issue_burst(f, kN, 4);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(results[i].ok()) << i;
    const PooledReply r = open_reply(f, *results[i]);
    EXPECT_EQ(r.nonce, 1 + i);
    EXPECT_EQ(r.cert.ephid,
              f.as.codec.issue_counted(f.hid, r.cert.exp_time,
                                       static_cast<std::uint32_t>(r.nonce)))
        << i;
  }

  Fixture g;  // same seed, so the same keys and requests
  const auto requests = g.make_requests(kN, 1);
  for (std::size_t i = 0; i < kN; ++i) {
    wire::MsgWriter out(320);
    ASSERT_TRUE(g.ms.issue_into(g.ctrl, requests[i], g.loop.now_seconds(),
                                g.ms.reserve_reply_nonces(1), out)
                    .ok());
    EXPECT_EQ(out.take(), *results[i]) << i;
  }
}

/// Fig 3 issuance leaves no state behind (Fig 6: the EphID carries its own
/// HID and ExpTime), so with a coordinator attached neither the scalar MS
/// path nor the pool journals a record.
TEST(ManagementService, IssuanceAppendsNothing) {
  constexpr std::size_t kN = 2 * services::ServicePool::kChunkJobs;
  Fixture f;
  persist::MemVfs vfs;
  services::PersistCoordinator coord(vfs, "as", f.as);
  ASSERT_TRUE(coord.start().ok());
  f.ms.set_persist_sink(&coord);

  const auto requests = f.make_requests(kN + 1, 1);
  ASSERT_TRUE(
      f.ms.issue_sealed(f.ctrl, requests[kN], f.loop.now_seconds()).ok());
  services::ServicePool::Config cfg;
  cfg.threads = 2;
  services::ServicePool pool(f.ms, nullptr, cfg);
  std::vector<services::ServicePool::IssueJob> jobs(kN);
  for (std::size_t i = 0; i < kN; ++i) jobs[i] = {f.ctrl, requests[i]};
  std::vector<Result<Bytes>> results(kN, Result<Bytes>(Errc::internal));
  pool.process_issuance(jobs, f.loop.now_seconds(), results);

  EXPECT_EQ(f.ms.stats().issued, kN + 1);
  ASSERT_TRUE(coord.commit().ok());
  EXPECT_EQ(coord.stats().journal.appended, 0u);
}

TEST(ServicePool, MixedValidAndInvalidRequests) {
  Fixture f;
  services::ServicePool::Config cfg;
  cfg.threads = 4;
  services::ServicePool pool(f.ms, nullptr, cfg);

  constexpr std::size_t kN = 3 * services::ServicePool::kChunkJobs;
  auto requests = f.make_requests(kN, 1);
  std::vector<services::ServicePool::IssueJob> jobs(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    if (i % 4 == 3) requests[i][requests[i].size() / 2] ^= 1;  // garble
    jobs[i] = {f.ctrl, requests[i]};
  }
  std::vector<Result<Bytes>> results(kN, Result<Bytes>(Errc::internal));
  pool.process_issuance(jobs, f.loop.now_seconds(), results);

  for (std::size_t i = 0; i < kN; ++i) {
    if (i % 4 == 3)
      EXPECT_EQ(results[i].code(), Errc::decrypt_failed) << i;
    else
      EXPECT_TRUE(results[i].ok()) << i;
  }
  EXPECT_EQ(pool.stats().failed_jobs, kN / 4);
  EXPECT_EQ(f.ms.stats().issued, kN - kN / 4);
  EXPECT_EQ(f.ms.stats().rejected_bad_payload, kN / 4);
}

TEST(ServicePool, PooledIssuanceIsBurstSplitInvariant) {
  // The same 48 requests issued as bursts of 1, 17 and 48 batch-verify
  // their PoP signatures 1, 16+1 and 16×3 at a time; not one output byte
  // may differ (the batch-vs-scalar equivalence contract, observed end to
  // end through the pool). Consecutive bursts reserve consecutive reply
  // nonces, so request i gets the same nonce under every split.
  constexpr std::size_t kN = 48;
  static_assert(services::ServicePool::kChunkJobs == 16);
  auto run = [&](std::size_t burst) {
    Fixture f;
    services::ServicePool::Config cfg;
    cfg.threads = 2;
    services::ServicePool pool(f.ms, nullptr, cfg);
    const auto requests = f.make_requests(kN, 1);
    std::vector<services::ServicePool::IssueJob> jobs(kN);
    for (std::size_t i = 0; i < kN; ++i) jobs[i] = {f.ctrl, requests[i]};
    std::vector<Result<Bytes>> results(kN, Result<Bytes>(Errc::internal));
    for (std::size_t i = 0; i < kN; i += burst) {
      const std::size_t n = std::min(burst, kN - i);
      pool.process_issuance(std::span(jobs).subspan(i, n), f.loop.now_seconds(),
                            std::span(results).subspan(i, n));
    }
    std::vector<Bytes> out;
    for (auto& r : results) {
      EXPECT_TRUE(r.ok());
      out.push_back(r.take());
    }
    return out;
  };
  const auto single = run(1);  // every batch degenerates to one signature
  const auto split = run(17);  // bursts of 17: a 16-wide and a 1-wide batch
  const auto whole = run(kN);  // one burst of three full chunks
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(single[i], split[i]) << i;
    EXPECT_EQ(split[i], whole[i]) << i;
  }
}

TEST(ServicePool, BadPopInChunkRejectsOnlyThatRequest) {
  // One forged proof-of-possession inside an otherwise-valid chunk: the
  // batch RLC check fails, bisection isolates the forgery, and every other
  // request in the same chunk still issues — outcomes identical to scalar
  // verification.
  Fixture f;
  services::ServicePool::Config cfg;
  cfg.threads = 2;
  services::ServicePool pool(f.ms, nullptr, cfg);

  constexpr std::size_t kN = 3 * services::ServicePool::kChunkJobs;
  std::vector<Bytes> requests;
  for (std::size_t i = 0; i < kN; ++i) {
    auto kp = core::EphIdKeyPair::generate(f.rng);
    core::EphIdRequest req;
    req.ephid_pub = kp.pub;
    req.flags = 0;
    req.lifetime = core::EphIdLifetime::short_term;
    req.pop_sig = kp.sign(req.pop_tbs());
    if (i == 9) req.pop_sig[11] ^= 0x08;  // forge exactly one
    requests.push_back(
        core::seal_control(f.keys, 1 + i, true, test::encoded(req)));
  }
  std::vector<services::ServicePool::IssueJob> jobs(kN);
  for (std::size_t i = 0; i < kN; ++i) jobs[i] = {f.ctrl, requests[i]};
  std::vector<Result<Bytes>> results(kN, Result<Bytes>(Errc::internal));
  pool.process_issuance(jobs, f.loop.now_seconds(), results);

  for (std::size_t i = 0; i < kN; ++i) {
    if (i == 9)
      EXPECT_EQ(results[i].code(), Errc::bad_signature) << i;
    else
      EXPECT_TRUE(results[i].ok()) << i;
  }
  EXPECT_EQ(f.ms.stats().issued, kN - 1);
  EXPECT_EQ(f.ms.stats().rejected_bad_pop, 1u);
  EXPECT_EQ(pool.stats().failed_jobs, 1u);
}

TEST(ServicePool, PooledShutoffVerification) {
  Fixture f;

  // A victim in a second AS, with a certificate this AS can verify.
  crypto::ChaChaRng rng_b{7002};
  core::AsState as_b{64513, core::AsSecrets::generate(rng_b)};
  core::AsPublicInfo info_b;
  info_b.aid = as_b.aid;
  info_b.sign_pub = as_b.secrets.sign.pub;
  info_b.dh_pub = as_b.secrets.dh.pub;
  f.dir.register_as(info_b);
  core::EphIdKeyPair victim_kp = core::EphIdKeyPair::generate(rng_b);
  core::EphIdCertificate victim_cert;
  victim_cert.ephid = as_b.codec.issue(77, f.loop.now_seconds() + 900, rng_b);
  victim_cert.exp_time = f.loop.now_seconds() + 900;
  victim_cert.pub = victim_kp.pub;
  victim_cert.aid = as_b.aid;
  victim_cert.aa_ephid = as_b.codec.issue(1, f.loop.now_seconds() + 900, rng_b);
  victim_cert.sign_with(as_b.secrets.sign);

  // Attacker hosts: the fixture's host plus three more bootstrapped ones.
  constexpr std::size_t kHosts = 4;
  std::vector<core::Hid> hids{f.hid};
  for (std::uint64_t sub = 2; hids.size() < kHosts; ++sub) {
    f.subs.add_subscriber(sub, to_bytes("pw"));
    core::BootstrapRequest breq;
    breq.subscriber_id = sub;
    breq.credential = to_bytes("pw");
    breq.host_pub = crypto::X25519KeyPair::generate(f.rng).pub;
    auto resp = f.rs.bootstrap(breq);
    ASSERT_TRUE(resp.ok());
    hids.push_back(resp->hid);
  }

  // One offending packet per attacker EphID (per-flow granularity), three
  // chunks' worth, spread over the hosts so each stays below the §VIII-G2
  // escalation limit (16 revocations erase the HID).
  constexpr std::size_t kN = 3 * services::ServicePool::kChunkJobs;
  static_assert(kN / kHosts < 16);
  std::vector<core::ShutoffRequest> reqs(kN);
  std::vector<core::EphId> attacker_ephids(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    const core::Hid hid = hids[i % kHosts];
    const auto host_rec = f.as.host_db.find(hid);
    ASSERT_TRUE(host_rec.has_value());
    attacker_ephids[i] =
        f.as.codec.issue(hid, f.loop.now_seconds() + 900, f.rng);
    wire::Packet pkt;
    pkt.src_aid = f.as.aid;
    pkt.src_ephid = attacker_ephids[i].bytes;
    pkt.dst_aid = as_b.aid;
    pkt.dst_ephid = victim_cert.ephid.bytes;
    pkt.proto = wire::NextProto::data;
    pkt.payload = to_bytes("flood");
    core::stamp_packet_mac(*host_rec->cmac, pkt);
    reqs[i].offending_packet = pkt.serialize();
    reqs[i].sig = victim_kp.sign(reqs[i].offending_packet);
    reqs[i].dst_cert = victim_cert;
  }
  // Garble one signature: exactly one job must fail.
  reqs[kN - 1].sig[0] ^= 1;

  services::ServicePool::Config cfg;
  cfg.threads = 4;
  services::ServicePool pool(f.ms, &f.aa, cfg);
  std::vector<Result<void>> results(kN);
  pool.process_shutoffs(reqs, f.loop.now_seconds(), results);

  for (std::size_t i = 0; i + 1 < kN; ++i) {
    EXPECT_TRUE(results[i].ok()) << i;
    EXPECT_TRUE(f.as.revoked.is_revoked(attacker_ephids[i])) << i;
  }
  EXPECT_EQ(results[kN - 1].code(), Errc::bad_signature);
  EXPECT_FALSE(f.as.revoked.is_revoked(attacker_ephids[kN - 1]));
  EXPECT_EQ(pool.stats().shutoff_jobs, kN);
  EXPECT_EQ(pool.stats().failed_jobs, 1u);
  EXPECT_EQ(f.aa.stats().accepted, kN - 1);
  EXPECT_EQ(f.aa.stats().rejected_bad_sig, 1u);
  EXPECT_EQ(f.aa.stats().hid_escalations, 0u);
}

// ---- Lifecycle-manager planning (host/ephid_pool.h) -------------------------

TEST(EphIdLifecycleManager, PlansDeficitsPerClassAndBacksOff) {
  host::EphIdPool pool;
  const core::ExpTime now = 1'700'000'000;

  // One short-term EphID about to expire, one healthy medium-term.
  auto add = [&](core::EphIdLifetime lt, core::ExpTime exp) {
    core::EphIdCertificate c;
    c.exp_time = exp;
    crypto::ChaChaRng r{exp};
    r.fill(MutByteSpan(c.ephid.bytes.data(), 16));
    pool.add(core::EphIdKeyPair{}, std::move(c), lt);
  };
  add(core::EphIdLifetime::short_term, now + 60);     // inside the lead
  add(core::EphIdLifetime::medium_term, now + 7200);  // healthy

  host::EphIdLifecycleManager::Config cfg;
  cfg.classes[0] = host::RenewalPolicy{.min_ready = 2, .lead_s = 120};
  cfg.classes[1] = host::RenewalPolicy{.min_ready = 1, .lead_s = 120};
  // class 2 (long_term) disabled.
  host::EphIdLifecycleManager mgr(cfg);

  net::TimeUs now_us = 1000;
  auto plan = mgr.plan(pool, now, now_us);
  // Short-term: the near-expiry EphID does not count toward readiness.
  EXPECT_EQ(plan[0], 2u);
  EXPECT_EQ(plan[1], 0u);
  EXPECT_EQ(plan[2], 0u);

  // In-flight requests suppress re-planning of the same deficit.
  mgr.on_requested(core::EphIdLifetime::short_term, now_us);
  mgr.on_requested(core::EphIdLifetime::short_term, now_us);
  plan = mgr.plan(pool, now, now_us);
  EXPECT_EQ(plan[0], 0u);

  // A request whose reply never arrives (lost packet / MS-side error with
  // no response) times out: the deficit reopens and backoff engages
  // instead of the planner wedging on a phantom in-flight entry.
  now_us += cfg.request_timeout_us + 1;
  plan = mgr.plan(pool, now, now_us);
  EXPECT_EQ(plan[0], 2u);
  EXPECT_EQ(mgr.in_flight(core::EphIdLifetime::short_term), 0u);
  EXPECT_EQ(mgr.stats().timed_out, 2u);
  EXPECT_EQ(mgr.consecutive_failures(), 2u);
  mgr.on_requested(core::EphIdLifetime::short_term, now_us);
  mgr.on_issued(core::EphIdLifetime::short_term);
  EXPECT_EQ(mgr.consecutive_failures(), 0u);

  // Failure: backoff stretches the next delay exponentially, success
  // resets it.
  crypto::ChaChaRng rng{99};
  const net::TimeUs base = mgr.next_delay(rng);
  EXPECT_GE(base, cfg.check_interval_us);
  EXPECT_LT(base, cfg.check_interval_us + cfg.jitter_us);
  mgr.on_failed(core::EphIdLifetime::short_term);
  mgr.on_failed(core::EphIdLifetime::short_term);
  EXPECT_EQ(mgr.consecutive_failures(), 2u);
  const net::TimeUs backed_off = mgr.next_delay(rng);
  EXPECT_GE(backed_off, cfg.check_interval_us << 2);
  mgr.on_requested(core::EphIdLifetime::short_term, now_us);
  mgr.on_issued(core::EphIdLifetime::short_term);
  EXPECT_EQ(mgr.consecutive_failures(), 0u);
  EXPECT_EQ(mgr.stats().renewed, 2u);
  EXPECT_EQ(mgr.stats().failed, 4u);  // 2 timeouts + 2 explicit failures
}

}  // namespace
}  // namespace apna
