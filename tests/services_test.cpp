// Service tests: Registry Service (Fig 2), Management Service (Fig 3) and
// the Accountability Agent (Fig 5), at the unit level (no simulated
// network; the integration tests cover wiring; the DNS service lives in
// dns_test.cpp since the resolver rewrite).
#include <gtest/gtest.h>

#include "core/as_persist.h"
#include "core/packet_auth.h"
#include "crypto/x25519.h"
#include "ed25519_small_order.h"
#include "msg_bytes.h"
#include "services/accountability_agent.h"
#include "services/management_service.h"
#include "services/registry_service.h"
#include "services/service_runtime.h"
#include "services/service_identity.h"
#include "services/subscriber_registry.h"
#include "util/hex.h"

namespace apna::services {
namespace {

struct AsFixture {
  crypto::ChaChaRng rng{2024};
  net::EventLoop loop;
  core::AsState as{64512, core::AsSecrets::generate(rng)};
  core::AsDirectory dir;
  SubscriberRegistry subs;
  RegistryService rs{as, subs, loop, rng};
  ServiceIdentity aa_ident = make_service_identity(
      as, rs.allocate_hid(), loop.now_seconds() + 86400, 0, nullptr, rng);
  ServiceIdentity ms_ident = make_service_identity(
      as, rs.allocate_hid(), loop.now_seconds() + 86400, 0,
      &aa_ident.cert.ephid, rng);
  ServiceIdentity dns_ident = make_service_identity(
      as, rs.allocate_hid(), loop.now_seconds() + 86400, 0,
      &aa_ident.cert.ephid, rng);
  ManagementService ms{as, loop, rng, ms_ident};
  AccountabilityAgent aa{as, dir, loop, aa_ident};

  AsFixture() {
    rs.set_service_info(ms_ident.cert, dns_ident.cert, aa_ident.cert.ephid);
    core::AsPublicInfo info;
    info.aid = as.aid;
    info.sign_pub = as.secrets.sign.pub;
    info.dh_pub = as.secrets.dh.pub;
    info.aa_ephid = aa_ident.cert.ephid;
    dir.register_as(info);
    subs.add_subscriber(1, to_bytes("password-1"));
    subs.add_subscriber(2, to_bytes("password-2"));
  }

  /// A bootstrapped "host" driven manually (the Host class has its own
  /// tests; here we poke the services directly).
  struct ManualHost {
    core::Hid hid;
    core::EphId ctrl;
    core::HostAsKeys keys;
    crypto::X25519KeyPair lt;
  };

  Result<ManualHost> bootstrap(std::uint32_t subscriber,
                               const std::string& password) {
    ManualHost h;
    h.lt = crypto::X25519KeyPair::generate(rng);
    core::BootstrapRequest req;
    req.subscriber_id = subscriber;
    req.credential = to_bytes(password);
    req.host_pub = h.lt.pub;
    auto resp = rs.bootstrap(req);
    if (!resp) return resp.error();
    h.hid = resp->hid;
    h.ctrl = resp->ctrl_ephid;
    h.keys = core::HostAsKeys::derive(
        crypto::x25519_shared(h.lt.priv, as.secrets.dh.pub));
    return h;
  }
};

// ---- Registry Service (Fig 2) ---------------------------------------------------

TEST(RegistryService, BootstrapHappyPath) {
  AsFixture f;
  auto h = f.bootstrap(1, "password-1");
  ASSERT_TRUE(h.ok());
  // host_info updated with the host's record.
  EXPECT_TRUE(f.as.host_db.contains(h->hid));
  // Control EphID decodes to the HID with a long lifetime (§IV-B).
  auto plain = f.as.codec.open(h->ctrl);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->hid, h->hid);
  EXPECT_GE(plain->exp_time, f.loop.now_seconds() + 3600);
  // Both sides derive the same kHA.
  const auto host_record = f.as.host_db.find(h->hid);
  EXPECT_EQ(hex_encode(host_record->keys.mac), hex_encode(h->keys.mac));
  EXPECT_EQ(hex_encode(host_record->keys.enc), hex_encode(h->keys.enc));
}

TEST(RegistryService, BadCredentialRejected) {
  AsFixture f;
  EXPECT_EQ(f.bootstrap(1, "wrong").code(), Errc::unauthorized);
  EXPECT_EQ(f.bootstrap(999, "password-1").code(), Errc::unauthorized);
  EXPECT_EQ(f.rs.stats().rejected_auth, 2u);
}

TEST(RegistryService, SignedIdInfoVerifies) {
  AsFixture f;
  core::BootstrapRequest req;
  req.subscriber_id = 1;
  req.credential = to_bytes("password-1");
  req.host_pub = crypto::X25519KeyPair::generate(f.rng).pub;
  auto resp = f.rs.bootstrap(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(crypto::ed25519_verify(f.as.secrets.sign.pub,
                                     resp->id_info_tbs(), resp->id_info_sig));
  EXPECT_TRUE(resp->ms_cert.verify(f.as.secrets.sign.pub,
                                   f.loop.now_seconds()).ok());
  EXPECT_TRUE(resp->dns_cert.verify(f.as.secrets.sign.pub,
                                    f.loop.now_seconds()).ok());
}

TEST(RegistryService, RebootstrapRevokesOldHid) {
  // Identity-minting defence (§VI-A): "if a host requests a new HID, the
  // previous HID and all associated EphIDs are revoked".
  AsFixture f;
  auto h1 = f.bootstrap(1, "password-1");
  ASSERT_TRUE(h1.ok());
  auto h2 = f.bootstrap(1, "password-1");
  ASSERT_TRUE(h2.ok());
  EXPECT_NE(h1->hid, h2->hid);
  EXPECT_FALSE(f.as.host_db.contains(h1->hid));
  EXPECT_TRUE(f.as.revoked.is_hid_revoked(h1->hid));
  EXPECT_TRUE(f.as.host_db.contains(h2->hid));
  EXPECT_EQ(f.rs.stats().hid_rotations, 1u);
}

// ---- Management Service (Fig 3) ----------------------------------------------------

Bytes make_request(AsFixture::ManualHost& h, crypto::Rng& rng,
                   std::uint64_t nonce,
                   core::EphIdLifetime lt = core::EphIdLifetime::short_term,
                   std::uint8_t flags = 0,
                   core::EphIdKeyPair* kp_out = nullptr) {
  auto kp = core::EphIdKeyPair::generate(rng);
  if (kp_out) *kp_out = kp;
  core::EphIdRequest req;
  req.ephid_pub = kp.pub;
  req.flags = flags;
  req.lifetime = lt;
  req.pop_sig = kp.sign(req.pop_tbs());
  return core::seal_control(h.keys, nonce, true, test::encoded(req));
}

TEST(ManagementService, IssuesValidCertificate) {
  AsFixture f;
  auto h = f.bootstrap(1, "password-1");
  ASSERT_TRUE(h.ok());
  core::EphIdKeyPair kp;
  const Bytes sealed = make_request(*h, f.rng, 1,
                                    core::EphIdLifetime::short_term, 0, &kp);
  auto resp = f.ms.issue_sealed(h->ctrl, sealed, f.loop.now_seconds());
  ASSERT_TRUE(resp.ok());

  auto opened = core::open_control(h->keys, false, *resp);
  ASSERT_TRUE(opened.ok());
  auto parsed = core::decode_msg<core::EphIdResponse>(*opened);
  ASSERT_TRUE(parsed.ok());
  const auto& cert = parsed->cert;
  EXPECT_TRUE(cert.verify(f.as.secrets.sign.pub, f.loop.now_seconds()).ok());
  EXPECT_EQ(cert.pub, kp.pub);
  EXPECT_EQ(cert.aid, f.as.aid);
  EXPECT_EQ(cert.aa_ephid, f.aa_ident.cert.ephid);
  // The EphID inside decodes to the host's HID (accountability binding).
  auto plain = f.as.codec.open(cert.ephid);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->hid, h->hid);
  EXPECT_EQ(plain->exp_time, cert.exp_time);
  EXPECT_EQ(f.ms.stats().issued, 1u);
}

TEST(ManagementService, LifetimeClassesHonored) {
  AsFixture f;
  auto h = f.bootstrap(1, "password-1");
  ASSERT_TRUE(h.ok());
  const core::ExpTime now = f.loop.now_seconds();
  std::uint64_t nonce = 1;
  for (auto [lt, expect_s] :
       std::vector<std::pair<core::EphIdLifetime, core::ExpTime>>{
           {core::EphIdLifetime::short_term, 900},
           {core::EphIdLifetime::medium_term, 7200},
           {core::EphIdLifetime::long_term, 86400}}) {
    const Bytes sealed = make_request(*h, f.rng, nonce++, lt);
    auto resp = f.ms.issue_sealed(h->ctrl, sealed, now);
    ASSERT_TRUE(resp.ok());
    auto opened = core::open_control(h->keys, false, *resp);
    auto parsed = core::decode_msg<core::EphIdResponse>(*opened);
    EXPECT_EQ(parsed->cert.exp_time, now + expect_s);
  }
}

TEST(ManagementService, ReceiveOnlyFlagPropagates) {
  AsFixture f;
  auto h = f.bootstrap(1, "password-1");
  const Bytes sealed = make_request(*h, f.rng, 1,
                                    core::EphIdLifetime::long_term,
                                    core::kRequestReceiveOnly);
  auto resp = f.ms.issue_sealed(h->ctrl, sealed, f.loop.now_seconds());
  ASSERT_TRUE(resp.ok());
  auto opened = core::open_control(h->keys, false, *resp);
  auto parsed = core::decode_msg<core::EphIdResponse>(*opened);
  EXPECT_TRUE(parsed->cert.receive_only());
}

TEST(ManagementService, BadProofOfPossessionRejected) {
  // A request whose PoP signature does not verify under the key being
  // certified must be refused: the MS would otherwise certify a public key
  // its sender cannot use (or one copied from someone else's request).
  AsFixture f;
  auto h = f.bootstrap(1, "password-1");
  ASSERT_TRUE(h.ok());
  auto kp = core::EphIdKeyPair::generate(f.rng);
  core::EphIdRequest req;
  req.ephid_pub = kp.pub;
  req.flags = 0;
  req.lifetime = core::EphIdLifetime::short_term;
  req.pop_sig = kp.sign(req.pop_tbs());
  req.pop_sig[3] ^= 0x10;  // corrupt the otherwise-valid signature
  const Bytes sealed =
      core::seal_control(h->keys, 1, true, test::encoded(req));
  EXPECT_EQ(
      f.ms.issue_sealed(h->ctrl, sealed, f.loop.now_seconds()).code(),
      Errc::bad_signature);
  EXPECT_EQ(f.ms.stats().rejected_bad_pop, 1u);
  EXPECT_EQ(f.ms.stats().issued, 0u);
}

TEST(ManagementService, PopSignatureOverWrongKeyRejected) {
  // Signing with a DIFFERENT key than the one being certified (a stolen
  // public key with the thief's own signature) must also fail.
  AsFixture f;
  auto h = f.bootstrap(1, "password-1");
  ASSERT_TRUE(h.ok());
  auto victim = core::EphIdKeyPair::generate(f.rng);
  auto thief = core::EphIdKeyPair::generate(f.rng);
  core::EphIdRequest req;
  req.ephid_pub = victim.pub;  // certifying the victim's key...
  req.flags = 0;
  req.lifetime = core::EphIdLifetime::short_term;
  req.pop_sig = thief.sign(req.pop_tbs());  // ...with the thief's signature
  const Bytes sealed =
      core::seal_control(h->keys, 1, true, test::encoded(req));
  EXPECT_EQ(
      f.ms.issue_sealed(h->ctrl, sealed, f.loop.now_seconds()).code(),
      Errc::bad_signature);
  EXPECT_EQ(f.ms.stats().rejected_bad_pop, 1u);
}

TEST(ManagementService, SmallOrderKeyPopRejected) {
  // The identity point as the EphID signing key, "proved" with
  // (R, S) = (encode(B), 1): k·A vanishes for every message, so the
  // verification equation holds with no private key behind it. Refused
  // on the scalar path (issue_into) and on the pooled batch sweep alike.
  AsFixture f;
  auto h = f.bootstrap(1, "password-1");
  ASSERT_TRUE(h.ok());
  auto make = [&](std::uint64_t nonce, bool forged) {
    auto kp = core::EphIdKeyPair::generate(f.rng);
    core::EphIdRequest req;
    req.ephid_pub = kp.pub;
    req.lifetime = core::EphIdLifetime::short_term;
    if (forged) {
      req.ephid_pub.sig = test::small_order_key(0);
      req.pop_sig = test::base_point_signature();
    } else {
      req.pop_sig = kp.sign(req.pop_tbs());
    }
    return core::seal_control(h->keys, nonce, true, test::encoded(req));
  };

  const Bytes sealed = make(1, true);
  wire::MsgWriter out(320);
  EXPECT_EQ(f.ms.issue_into(h->ctrl, sealed, f.loop.now_seconds(),
                            f.ms.reserve_reply_nonces(1), out)
                .code(),
            Errc::bad_signature);
  EXPECT_EQ(f.ms.stats().rejected_bad_pop, 1u);

  // In a pooled chunk, between honest requests: the batch screen must
  // refuse the key, not the combined equation (which it satisfies).
  ServicePool::Config cfg;
  cfg.threads = 1;
  ServicePool pool(f.ms, nullptr, cfg);
  std::vector<Bytes> requests;
  for (std::uint64_t i = 0; i < 4; ++i) requests.push_back(make(2 + i, i == 1));
  std::vector<ServicePool::IssueJob> jobs;
  for (const Bytes& r : requests) jobs.push_back({h->ctrl, r});
  std::vector<Result<Bytes>> results(jobs.size(),
                                     Result<Bytes>(Errc::internal));
  pool.process_issuance(jobs, f.loop.now_seconds(), results);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i == 1)
      EXPECT_EQ(results[i].code(), Errc::bad_signature);
    else
      EXPECT_TRUE(results[i].ok()) << i;
  }
  EXPECT_EQ(f.ms.stats().rejected_bad_pop, 2u);
  EXPECT_EQ(f.ms.stats().issued, 3u);
}

TEST(ManagementService, PacketAndSealedPathsTakeTheIvFromTheReplyNonce) {
  // issue_sealed and handle_packet both reserve their reply nonce from the
  // MS counter, and the EphID each reply delivers has the codec's
  // permutation of the nonce the reply carries in clear as its IV (the
  // pool and issue_into: control_plane_test).
  AsFixture f;
  auto h = f.bootstrap(1, "password-1");
  ASSERT_TRUE(h.ok());
  const auto check = [&](ByteSpan reply, std::uint64_t expect_nonce) {
    const std::uint64_t nonce = load_be64(reply.data());
    EXPECT_EQ(nonce, expect_nonce);
    auto parsed = core::decode_msg<core::EphIdResponse>(
        *core::open_control(h->keys, false, reply));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->cert.ephid,
              f.as.codec.issue_counted(h->hid, parsed->cert.exp_time,
                                       static_cast<std::uint32_t>(nonce)));
  };

  auto sealed = f.ms.issue_sealed(h->ctrl, make_request(*h, f.rng, 1),
                                  f.loop.now_seconds());
  ASSERT_TRUE(sealed.ok());
  check(*sealed, 1);

  wire::PacketWriter pw(f.as.aid, h->ctrl.bytes, f.as.aid,
                        f.ms.service_ephid().bytes, wire::NextProto::control);
  pw.raw(make_request(*h, f.rng, 2));
  const wire::PacketBuf request = pw.finish();
  auto reply = f.ms.handle_packet(request.view());
  ASSERT_TRUE(reply.ok());
  check(reply->view().payload(), 2);
}

TEST(ManagementService, IvCounterExhaustionIsRefusedAndCounted) {
  // The reply counter is also the IV counter: its last value, 2^32 - 1,
  // still issues; from 2^32 on, the scalar path and the pool refuse
  // instead of reusing an IV.
  AsFixture f;
  auto h = f.bootstrap(1, "password-1");
  ASSERT_TRUE(h.ok());
  constexpr std::uint64_t kLast = (std::uint64_t{1} << 32) - 1;
  f.ms.reserve_reply_nonces(kLast - 1);  // the counter starts at 1
  auto last = f.ms.issue_sealed(h->ctrl, make_request(*h, f.rng, 1),
                                f.loop.now_seconds());
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(load_be64(last->data()), kLast);

  EXPECT_EQ(f.ms.issue_sealed(h->ctrl, make_request(*h, f.rng, 2),
                              f.loop.now_seconds())
                .code(),
            Errc::exhausted);
  wire::MsgWriter out(320);
  EXPECT_EQ(f.ms.issue_into(h->ctrl, make_request(*h, f.rng, 3),
                            f.loop.now_seconds(), f.ms.reserve_reply_nonces(1),
                            out)
                .code(),
            Errc::exhausted);

  ServicePool::Config cfg;
  cfg.threads = 2;
  ServicePool pool(f.ms, nullptr, cfg);
  std::vector<Bytes> requests;
  for (std::uint64_t i = 0; i < 20; ++i)
    requests.push_back(make_request(*h, f.rng, 4 + i));
  std::vector<ServicePool::IssueJob> jobs;
  for (const Bytes& r : requests) jobs.push_back({h->ctrl, r});
  std::vector<Result<Bytes>> results(jobs.size(),
                                     Result<Bytes>(Errc::internal));
  pool.process_issuance(jobs, f.loop.now_seconds(), results);
  for (std::size_t i = 0; i < results.size(); ++i)
    EXPECT_EQ(results[i].code(), Errc::exhausted) << i;
  EXPECT_EQ(pool.stats().failed_jobs, jobs.size());
  EXPECT_EQ(f.ms.stats().rejected_iv_exhausted, 2 + jobs.size());
  EXPECT_EQ(f.ms.stats().issued, 1u);
}

TEST(ManagementService, ExpiredControlEphIdRejected) {
  AsFixture f;
  auto h = f.bootstrap(1, "password-1");
  const Bytes sealed = make_request(*h, f.rng, 1);
  // Jump past the control EphID lifetime (24 h default).
  const core::ExpTime later = f.loop.now_seconds() + 25 * 3600;
  EXPECT_EQ(f.ms.issue_sealed(h->ctrl, sealed, later).code(),
            Errc::expired);
  EXPECT_EQ(f.ms.stats().rejected_expired, 1u);
}

TEST(ManagementService, UnknownHostRejected) {
  AsFixture f;
  auto h = f.bootstrap(1, "password-1");
  const Bytes sealed = make_request(*h, f.rng, 1);
  f.as.host_db.erase(h->hid);
  EXPECT_EQ(f.ms.issue_sealed(h->ctrl, sealed, f.loop.now_seconds()).code(),
            Errc::unknown_host);
}

TEST(ManagementService, RevokedHidRejected) {
  AsFixture f;
  auto h = f.bootstrap(1, "password-1");
  f.as.revoked.revoke_hid(h->hid);
  const Bytes sealed = make_request(*h, f.rng, 1);
  EXPECT_EQ(f.ms.issue_sealed(h->ctrl, sealed, f.loop.now_seconds()).code(),
            Errc::revoked);
}

TEST(ManagementService, GarbledRequestRejected) {
  AsFixture f;
  auto h = f.bootstrap(1, "password-1");
  Bytes sealed = make_request(*h, f.rng, 1);
  sealed[sealed.size() / 2] ^= 1;
  EXPECT_EQ(f.ms.issue_sealed(h->ctrl, sealed, f.loop.now_seconds()).code(),
            Errc::decrypt_failed);
  // A request sealed under another host's key also fails.
  auto h2 = f.bootstrap(2, "password-2");
  const Bytes sealed2 = make_request(*h2, f.rng, 1);
  EXPECT_FALSE(
      f.ms.issue_sealed(h->ctrl, sealed2, f.loop.now_seconds()).ok());
}

TEST(ManagementService, ForeignEphIdAsControlRejected) {
  AsFixture f;
  auto h = f.bootstrap(1, "password-1");
  const Bytes sealed = make_request(*h, f.rng, 1);
  core::EphId forged;
  f.rng.fill(MutByteSpan(forged.bytes.data(), 16));
  EXPECT_EQ(f.ms.issue_sealed(forged, sealed, f.loop.now_seconds()).code(),
            Errc::decrypt_failed);
}

// ---- Accountability Agent (Fig 5) -----------------------------------------------------

struct ShutoffFixture : AsFixture {
  // A second AS hosting the victim (requester).
  crypto::ChaChaRng rng_b{2025};
  core::AsState as_b{64513, core::AsSecrets::generate(rng_b)};

  ManualHost attacker;          // customer of as (the AA's AS)
  core::EphIdKeyPair victim_kp; // victim in as_b
  core::EphIdCertificate victim_cert;
  core::EphIdKeyPair attacker_kp;
  core::EphIdCertificate attacker_cert;

  ShutoffFixture() {
    core::AsPublicInfo info_b;
    info_b.aid = as_b.aid;
    info_b.sign_pub = as_b.secrets.sign.pub;
    info_b.dh_pub = as_b.secrets.dh.pub;
    dir.register_as(info_b);

    auto a = bootstrap(1, "password-1");
    attacker = *a;

    victim_kp = core::EphIdKeyPair::generate(rng_b);
    victim_cert.ephid = as_b.codec.issue(77, loop.now_seconds() + 900, rng_b);
    victim_cert.exp_time = loop.now_seconds() + 900;
    victim_cert.pub = victim_kp.pub;
    victim_cert.aid = as_b.aid;
    victim_cert.aa_ephid = as_b.codec.issue(1, loop.now_seconds() + 900, rng_b);
    victim_cert.sign_with(as_b.secrets.sign);

    attacker_kp = core::EphIdKeyPair::generate(rng);
    attacker_cert.ephid =
        as.codec.issue(attacker.hid, loop.now_seconds() + 900, rng);
    attacker_cert.exp_time = loop.now_seconds() + 900;
    attacker_cert.pub = attacker_kp.pub;
    attacker_cert.aid = as.aid;
    attacker_cert.aa_ephid = aa_ident.cert.ephid;
    attacker_cert.sign_with(as.secrets.sign);
  }

  /// A packet the attacker host genuinely sent to the victim.
  wire::Packet offending_packet() {
    wire::Packet pkt;
    pkt.src_aid = as.aid;
    pkt.src_ephid = attacker_cert.ephid.bytes;
    pkt.dst_aid = as_b.aid;
    pkt.dst_ephid = victim_cert.ephid.bytes;
    pkt.proto = wire::NextProto::data;
    pkt.payload = to_bytes("flood");
    core::stamp_packet_mac(crypto::AesCmac(ByteSpan(attacker.keys.mac.data(),
                                                    16)),
                           pkt);
    return pkt;
  }

  core::ShutoffRequest valid_request() {
    core::ShutoffRequest req;
    req.offending_packet = offending_packet().serialize();
    req.sig = victim_kp.sign(req.offending_packet);
    req.dst_cert = victim_cert;
    return req;
  }
};

TEST(AccountabilityAgent, ValidShutoffRevokesEphId) {
  ShutoffFixture f;
  const auto req = f.valid_request();
  ASSERT_TRUE(f.aa.process(req, f.loop.now_seconds()).ok());
  EXPECT_TRUE(f.as.revoked.is_revoked(f.attacker_cert.ephid));
  EXPECT_EQ(f.aa.stats().accepted, 1u);
  EXPECT_EQ(f.aa.stats().revocation_instructions, 1u);
  // Other EphIDs of the host survive (fate-sharing is per EphID, §III-B).
  const auto other =
      f.as.codec.issue(f.attacker.hid, f.loop.now_seconds() + 900, f.rng);
  EXPECT_FALSE(f.as.revoked.is_revoked(other));
}

TEST(AccountabilityAgent, RoguePacketRejected) {
  // "the destination cannot make a shutoff request with a rogue packet" —
  // a packet the attacker never sent fails the kHA MAC check.
  ShutoffFixture f;
  auto req = f.valid_request();
  auto pkt = wire::Packet::parse(req.offending_packet).take();
  pkt.payload = to_bytes("forged content");  // MAC now wrong
  req.offending_packet = pkt.serialize();
  req.sig = f.victim_kp.sign(req.offending_packet);
  EXPECT_EQ(f.aa.process(req, f.loop.now_seconds()).code(), Errc::bad_mac);
  EXPECT_FALSE(f.as.revoked.is_revoked(f.attacker_cert.ephid));
  EXPECT_EQ(f.aa.stats().rejected_bad_mac, 1u);
}

TEST(AccountabilityAgent, NonRecipientUnauthorized) {
  // Only the packet's recipient may request a shutoff (§VI-C).
  ShutoffFixture f;
  // A bystander in AS B with their own valid cert tries to shut off.
  core::EphIdKeyPair bystander_kp = core::EphIdKeyPair::generate(f.rng_b);
  core::EphIdCertificate bystander_cert = f.victim_cert;
  bystander_cert.ephid =
      f.as_b.codec.issue(78, f.loop.now_seconds() + 900, f.rng_b);
  bystander_cert.pub = bystander_kp.pub;
  bystander_cert.sign_with(f.as_b.secrets.sign);

  core::ShutoffRequest req;
  req.offending_packet = f.offending_packet().serialize();
  req.sig = bystander_kp.sign(req.offending_packet);
  req.dst_cert = bystander_cert;
  EXPECT_EQ(f.aa.process(req, f.loop.now_seconds()).code(),
            Errc::unauthorized);
  EXPECT_FALSE(f.as.revoked.is_revoked(f.attacker_cert.ephid));
}

TEST(AccountabilityAgent, StolenCertWithoutKeyRejected) {
  // Requester presents the victim's cert but cannot sign with its key.
  ShutoffFixture f;
  auto req = f.valid_request();
  core::EphIdKeyPair wrong = core::EphIdKeyPair::generate(f.rng);
  req.sig = wrong.sign(req.offending_packet);
  EXPECT_EQ(f.aa.process(req, f.loop.now_seconds()).code(),
            Errc::bad_signature);
}

TEST(AccountabilityAgent, UnknownRequesterAsRejected) {
  ShutoffFixture f;
  auto req = f.valid_request();
  req.dst_cert.aid = 59999;  // not in the directory
  req.dst_cert.sign_with(f.as_b.secrets.sign);
  // (Signature over the modified cert is fine; the AS is simply unknown.)
  auto pkt = wire::Packet::parse(req.offending_packet).take();
  pkt.dst_aid = 59999;
  core::stamp_packet_mac(
      crypto::AesCmac(ByteSpan(f.attacker.keys.mac.data(), 16)), pkt);
  req.offending_packet = pkt.serialize();
  req.sig = f.victim_kp.sign(req.offending_packet);
  EXPECT_EQ(f.aa.process(req, f.loop.now_seconds()).code(),
            Errc::bad_certificate);
}

TEST(AccountabilityAgent, ForeignSourceEphIdRejected) {
  // The offending packet's source is not a customer of this AS.
  ShutoffFixture f;
  auto pkt = f.offending_packet();
  pkt.src_ephid = f.victim_cert.ephid.bytes;  // an AS-B EphID
  core::ShutoffRequest req;
  req.offending_packet = pkt.serialize();
  req.sig = f.victim_kp.sign(req.offending_packet);
  req.dst_cert = f.victim_cert;
  EXPECT_EQ(f.aa.process(req, f.loop.now_seconds()).code(),
            Errc::decrypt_failed);
}

/// Keeps the type of every record a journal writer would get, in order.
struct RecordingSink final : persist::Sink {
  std::vector<std::uint8_t> types;
  bool append(std::uint8_t type, ByteSpan) override {
    types.push_back(type);
    return true;
  }
};

TEST(AccountabilityAgent, ReplayedShutoffCountsOnce) {
  // §VIII-G2 caps the EphIDs revoked per host. One offending packet's
  // request, replayed as often as the cap, revokes one EphID and counts
  // once: it never escalates to the host's HID, journals one revocation
  // and steps the verdict epoch (every worker's flow-cache flush) once.
  ShutoffFixture f;
  RecordingSink sink;
  f.aa.set_persist_sink(&sink);
  const auto req = f.valid_request();
  const std::uint64_t epoch0 = f.as.epoch.current();
  const std::uint32_t limit = 16;  // RevocationList default
  for (std::uint32_t i = 0; i < limit; ++i)
    ASSERT_TRUE(f.aa.process(req, f.loop.now_seconds()).ok()) << i;
  EXPECT_EQ(f.aa.stats().accepted, limit);  // Fig 5 checks ran on each copy
  EXPECT_EQ(sink.types, std::vector<std::uint8_t>{static_cast<std::uint8_t>(
                            core::PersistRecordType::revoke_ephid)});
  EXPECT_EQ(f.as.epoch.current(), epoch0 + 1);
  std::uint32_t count = 0;
  f.as.revoked.for_each([](const core::EphId&, core::ExpTime) {},
                         [&](core::Hid hid, std::uint32_t n, bool) {
                           if (hid == f.attacker.hid) count = n;
                         });
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(f.as.revoked.size(), 1u);
  EXPECT_EQ(f.aa.stats().hid_escalations, 0u);
  EXPECT_FALSE(f.as.revoked.is_hid_revoked(f.attacker.hid));
  EXPECT_TRUE(f.as.host_db.contains(f.attacker.hid));
}

TEST(AccountabilityAgent, EscalatesAfterTooManyShutoffs) {
  // §VIII-G2: repeated shutoffs against one host revoke the HID itself.
  ShutoffFixture f;
  const std::uint32_t limit = 16;  // RevocationList default
  for (std::uint32_t i = 0; i < limit; ++i) {
    // Fresh EphID per incident (per-flow granularity).
    core::EphIdCertificate cert = f.attacker_cert;
    cert.ephid =
        f.as.codec.issue(f.attacker.hid, f.loop.now_seconds() + 900, f.rng);
    cert.sign_with(f.as.secrets.sign);
    wire::Packet pkt;
    pkt.src_aid = f.as.aid;
    pkt.src_ephid = cert.ephid.bytes;
    pkt.dst_aid = f.as_b.aid;
    pkt.dst_ephid = f.victim_cert.ephid.bytes;
    pkt.proto = wire::NextProto::data;
    pkt.payload = to_bytes("flood");
    core::stamp_packet_mac(
        crypto::AesCmac(ByteSpan(f.attacker.keys.mac.data(), 16)), pkt);
    core::ShutoffRequest req;
    req.offending_packet = pkt.serialize();
    req.sig = f.victim_kp.sign(req.offending_packet);
    req.dst_cert = f.victim_cert;
    ASSERT_TRUE(f.aa.process(req, f.loop.now_seconds()).ok()) << i;
  }
  EXPECT_EQ(f.aa.stats().hid_escalations, 1u);
  EXPECT_TRUE(f.as.revoked.is_hid_revoked(f.attacker.hid));
  EXPECT_FALSE(f.as.host_db.contains(f.attacker.hid));
}

}  // namespace
}  // namespace apna::services
