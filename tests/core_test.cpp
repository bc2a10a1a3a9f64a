// Core-module tests: the Fig 6 EphID construction (including the CCA
// property §VI-A), certificates, host DB, revocation (§VIII-G2), replay
// windows (§VIII-D), sessions/PFS (§VI-B), handshakes (§IV-D1, §VII-A) and
// the control-message codecs.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/as_directory.h"
#include "core/cert.h"
#include "core/ephid.h"
#include "core/handshake.h"
#include "core/host_db.h"
#include "core/keys.h"
#include "core/messages.h"
#include "core/packet_auth.h"
#include "core/replay.h"
#include "core/revocation.h"
#include "core/session.h"
#include "crypto/ed25519.h"
#include "msg_bytes.h"
#include "util/hex.h"

namespace apna::core {
namespace {

using test::encoded;

crypto::ChaChaRng& test_rng() {
  static crypto::ChaChaRng rng(777);
  return rng;
}

EphIdCodec make_codec(std::uint64_t seed = 1) {
  crypto::ChaChaRng rng(seed);
  return EphIdCodec(rng.bytes(16));
}

// ---- EphID (Fig 6) -------------------------------------------------------------

TEST(EphId, RoundtripHidAndExpTime) {
  const EphIdCodec codec = make_codec();
  for (Hid hid : {Hid{1}, Hid{0xdeadbeef}, Hid{0}, Hid{0xffffffff}}) {
    for (ExpTime exp : {ExpTime{0}, ExpTime{1'700'000'123}, ExpTime{0xffffffff}}) {
      const EphId e = codec.issue(hid, exp, test_rng());
      auto plain = codec.open(e);
      ASSERT_TRUE(plain.ok());
      EXPECT_EQ(plain->hid, hid);
      EXPECT_EQ(plain->exp_time, exp);
    }
  }
}

TEST(EphId, SixteenBytesWithFig6Layout) {
  const EphIdCodec codec = make_codec();
  const std::uint32_t iv = 0xcafebabe;
  const EphId e = codec.issue_with_iv(7, 42, iv);
  EXPECT_EQ(e.bytes.size(), 16u);
  // IV occupies bytes 8..11 in clear (Fig 6: EphID = CT ‖ IV ‖ MAC).
  EXPECT_EQ(load_be32(e.bytes.data() + EphIdCodec::kIvOffset), iv);
}

TEST(EphId, SameHidDifferentIvsUnlinkable) {
  // "the use of the IV allows us to generate multiple EphIDs for a single
  // HID" — and the ciphertexts must differ.
  const EphIdCodec codec = make_codec();
  const EphId a = codec.issue_with_iv(7, 42, 1);
  const EphId b = codec.issue_with_iv(7, 42, 2);
  EXPECT_NE(hex_encode(ByteSpan(a.bytes.data(), 8)),
            hex_encode(ByteSpan(b.bytes.data(), 8)));
  EXPECT_TRUE(codec.open(a).ok());
  EXPECT_TRUE(codec.open(b).ok());
}

TEST(EphId, DeterministicForSameIv) {
  const EphIdCodec codec = make_codec();
  EXPECT_EQ(codec.issue_with_iv(7, 42, 9).hex(),
            codec.issue_with_iv(7, 42, 9).hex());
}

TEST(EphId, CountedIvsAreAKeyedPermutation) {
  // issue_counted's IV is a kA-keyed permutation of the counter: 2^18
  // consecutive counters give 2^18 distinct IVs, every EphID opens to what
  // it sealed, and another kA maps the same counters to other IVs.
  const EphIdCodec codec = make_codec(1);
  const EphIdCodec other = make_codec(2);
  const auto iv_of = [](const EphId& e) {
    return load_be32(e.bytes.data() + EphIdCodec::kIvOffset);
  };
  constexpr std::uint32_t kN = 1u << 18;
  std::vector<std::uint32_t> ivs;
  ivs.reserve(kN);
  for (std::uint32_t c = 1; c <= kN; ++c) {
    const EphId e = codec.issue_counted(7, 42, c);
    ivs.push_back(iv_of(e));
    if (c % 4096 != 0) continue;
    auto plain = codec.open(e);
    ASSERT_TRUE(plain.ok()) << c;
    EXPECT_EQ(plain->hid, 7u);
    EXPECT_EQ(plain->exp_time, 42u);
    EXPECT_NE(iv_of(other.issue_counted(7, 42, c)), ivs.back()) << c;
  }
  std::sort(ivs.begin(), ivs.end());
  EXPECT_EQ(std::adjacent_find(ivs.begin(), ivs.end()), ivs.end());
}

TEST(EphId, DifferentAsKeysCannotOpen) {
  const EphIdCodec codec_a = make_codec(1);
  const EphIdCodec codec_b = make_codec(2);
  const EphId e = codec_a.issue(7, 42, test_rng());
  EXPECT_EQ(codec_b.open(e).code(), Errc::decrypt_failed);
}

/// CCA property (§VI-A "Unauthorized EphID Generation"): flipping ANY bit
/// of an EphID must make it invalid. Parameterized over all 128 positions.
class EphIdBitFlip : public ::testing::TestWithParam<int> {};

TEST_P(EphIdBitFlip, AnySingleBitFlipRejected) {
  const EphIdCodec codec = make_codec();
  const EphId e = codec.issue_with_iv(0x01020304, 0x05060708, 0x090a0b0c);
  EphId bad = e;
  const int bit = GetParam();
  bad.bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  EXPECT_EQ(codec.open(bad).code(), Errc::decrypt_failed) << "bit " << bit;
}

INSTANTIATE_TEST_SUITE_P(All128Bits, EphIdBitFlip, ::testing::Range(0, 128));

TEST(EphId, ForgeryWithoutKeyFails) {
  // An adversary stitching random bytes together wins with prob ~2^-32 per
  // try (4-byte tag); 1000 tries must all fail.
  const EphIdCodec codec = make_codec();
  crypto::ChaChaRng rng(99);
  for (int i = 0; i < 1000; ++i) {
    EphId forged;
    rng.fill(MutByteSpan(forged.bytes.data(), 16));
    EXPECT_FALSE(codec.open(forged).ok());
  }
}

// ---- Certificates ---------------------------------------------------------------

struct CertFixture {
  crypto::ChaChaRng rng{55};
  crypto::Ed25519KeyPair as_key = crypto::Ed25519KeyPair::generate(rng);
  EphIdKeyPair host_kp = EphIdKeyPair::generate(rng);
  EphIdCodec codec = EphIdCodec(Bytes(16, 0x42));

  EphIdCertificate make(ExpTime exp, std::uint8_t flags = 0) {
    EphIdCertificate c;
    c.ephid = codec.issue(7, exp, rng);
    c.exp_time = exp;
    c.pub = host_kp.pub;
    c.aid = 64512;
    c.aa_ephid = codec.issue(1, exp, rng);
    c.flags = flags;
    c.sign_with(as_key);
    return c;
  }
};

TEST(Cert, SignVerifyRoundtrip) {
  CertFixture f;
  const auto cert = f.make(1000);
  EXPECT_TRUE(cert.verify(f.as_key.pub, 500).ok());
}

TEST(Cert, ExpiredRejected) {
  CertFixture f;
  const auto cert = f.make(1000);
  EXPECT_EQ(cert.verify(f.as_key.pub, 1001).code(), Errc::expired);
  EXPECT_TRUE(cert.verify(f.as_key.pub, 1000).ok());  // boundary inclusive
}

TEST(Cert, WrongSignerRejected) {
  CertFixture f;
  const auto cert = f.make(1000);
  crypto::ChaChaRng rng2(56);
  const auto other = crypto::Ed25519KeyPair::generate(rng2);
  EXPECT_EQ(cert.verify(other.pub, 500).code(), Errc::bad_signature);
}

TEST(Cert, AnyFieldTamperInvalidatesSignature) {
  CertFixture f;
  auto base = f.make(1000);
  auto tamper = [&](auto mutate) {
    auto c = base;
    mutate(c);
    EXPECT_EQ(c.verify(f.as_key.pub, 500).code(), Errc::bad_signature);
  };
  tamper([](EphIdCertificate& c) { c.ephid.bytes[0] ^= 1; });
  tamper([](EphIdCertificate& c) { c.exp_time += 1; });
  tamper([](EphIdCertificate& c) { c.pub.dh[0] ^= 1; });
  tamper([](EphIdCertificate& c) { c.pub.sig[0] ^= 1; });
  tamper([](EphIdCertificate& c) { c.aid ^= 1; });
  tamper([](EphIdCertificate& c) { c.aa_ephid.bytes[5] ^= 1; });
  tamper([](EphIdCertificate& c) { c.flags ^= kCertReceiveOnly; });
}

TEST(Cert, EncodeDecodeRoundtrip) {
  CertFixture f;
  const auto cert = f.make(123456, kCertReceiveOnly);
  auto parsed = decode_msg<EphIdCertificate>(encoded(cert));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, cert);
  EXPECT_TRUE(parsed->receive_only());
  EXPECT_TRUE(parsed->verify(f.as_key.pub, 1).ok());
}

TEST(Cert, DecodeRejectsTruncation) {
  CertFixture f;
  const Bytes wire = encoded(f.make(1));
  for (std::size_t len = 0; len < wire.size(); len += 13)
    EXPECT_FALSE(decode_msg<EphIdCertificate>(ByteSpan(wire.data(), len)).ok());
}

// ---- Host DB / revocation --------------------------------------------------------

TEST(HostDb, UpsertFindErase) {
  HostDb db;
  HostRecord rec;
  rec.hid = 42;
  rec.subscriber_id = 7;
  db.upsert(rec);
  EXPECT_TRUE(db.contains(42));
  EXPECT_EQ(db.find(42)->subscriber_id, 7u);
  EXPECT_FALSE(db.contains(43));
  EXPECT_FALSE(db.find(43).has_value());
  db.erase(42);
  EXPECT_FALSE(db.contains(42));
  EXPECT_EQ(db.size(), 0u);
}

TEST(Revocation, EphIdAndHidRevocation) {
  RevocationList rl(4);
  EphIdCodec codec = make_codec();
  crypto::ChaChaRng rng(3);
  const EphId e = codec.issue(9, 100, rng);
  EXPECT_FALSE(rl.is_revoked(e));
  rl.revoke_ephid(e, 100, 9);
  EXPECT_TRUE(rl.is_revoked(e));
  EXPECT_FALSE(rl.is_hid_revoked(9));
  rl.revoke_hid(9);
  EXPECT_TRUE(rl.is_hid_revoked(9));
}

TEST(Revocation, PurgeExpiredShrinksList) {
  // §VIII-G2: "the expired EphIDs can be removed from revoked_EphIDs".
  RevocationList rl;
  EphIdCodec codec = make_codec();
  crypto::ChaChaRng rng(4);
  for (ExpTime exp = 1; exp <= 10; ++exp)
    rl.revoke_ephid(codec.issue(exp, exp * 100, rng), exp * 100, exp);
  EXPECT_EQ(rl.size(), 10u);
  EXPECT_EQ(rl.purge_expired(550), 5u);  // exp 100..500 purged
  EXPECT_EQ(rl.size(), 5u);
}

TEST(Revocation, PerHostEscalationThreshold) {
  RevocationList rl(3);
  EphIdCodec codec = make_codec();
  crypto::ChaChaRng rng(5);
  EXPECT_FALSE(rl.over_limit(7));
  rl.revoke_ephid(codec.issue(7, 100, rng), 100, 7);
  rl.revoke_ephid(codec.issue(7, 100, rng), 100, 7);
  EXPECT_FALSE(rl.over_limit(7));
  rl.revoke_ephid(codec.issue(7, 100, rng), 100, 7);
  EXPECT_TRUE(rl.over_limit(7));
  EXPECT_FALSE(rl.over_limit(8));  // other hosts unaffected
}

// ---- Replay window (§VIII-D) --------------------------------------------------------

TEST(Replay, AcceptsFreshRejectsDuplicates) {
  ReplayWindow w(64);
  EXPECT_TRUE(w.accept(1).ok());
  EXPECT_TRUE(w.accept(2).ok());
  EXPECT_EQ(w.accept(1).code(), Errc::replayed);
  EXPECT_EQ(w.accept(2).code(), Errc::replayed);
  EXPECT_TRUE(w.accept(3).ok());
}

TEST(Replay, OutOfOrderWithinWindowAccepted) {
  ReplayWindow w(64);
  EXPECT_TRUE(w.accept(50).ok());
  EXPECT_TRUE(w.accept(10).ok());   // late but inside window
  EXPECT_TRUE(w.accept(49).ok());
  EXPECT_EQ(w.accept(10).code(), Errc::replayed);
}

TEST(Replay, TooOldRejectedConservatively) {
  ReplayWindow w(64);
  EXPECT_TRUE(w.accept(1000).ok());
  EXPECT_EQ(w.accept(1000 - 64).code(), Errc::replayed);
  EXPECT_TRUE(w.accept(1000 - 63).ok());
}

TEST(Replay, LargeJumpClearsWindow) {
  ReplayWindow w(64);
  EXPECT_TRUE(w.accept(5).ok());
  EXPECT_TRUE(w.accept(100000).ok());
  EXPECT_TRUE(w.accept(99990).ok());   // within the new window, unseen
  EXPECT_EQ(w.accept(5).code(), Errc::replayed);  // far behind
}

TEST(Replay, AnchorPolicyFirstNonceDefinesFloorDocumented) {
  // The conservative default: the FIRST observed nonce anchors the window,
  // so a huge first nonce permanently brands all earlier nonces as replays.
  // This is the documented trade-off that StartPolicy::grace exists for.
  ReplayWindow w(64);  // StartPolicy::anchor
  EXPECT_TRUE(w.accept(1'000'000).ok());
  EXPECT_EQ(w.accept(10).code(), Errc::replayed);       // legitimate, early
  EXPECT_EQ(w.accept(999'900).code(), Errc::replayed);  // even near the head
  EXPECT_TRUE(w.accept(1'000'000 - 63).ok());           // inside the window
}

TEST(Replay, GracePolicyAcceptsPreFirstNoncesOnceEach) {
  ReplayWindow w(64, ReplayWindow::StartPolicy::grace);
  EXPECT_TRUE(w.accept(1000).ok());
  // One window below the first-seen nonce: accepted exactly once each.
  EXPECT_TRUE(w.accept(950).ok());
  EXPECT_EQ(w.accept(950).code(), Errc::replayed);
  EXPECT_TRUE(w.accept(936).ok());  // 1000 - 64, the grace floor
  EXPECT_EQ(w.accept(936).code(), Errc::replayed);
  // Below the grace range: still conservatively rejected.
  EXPECT_EQ(w.accept(935).code(), Errc::replayed);
  EXPECT_EQ(w.accept(10).code(), Errc::replayed);
  // The live window is unaffected.
  EXPECT_TRUE(w.accept(1001).ok());
  EXPECT_EQ(w.accept(1001).code(), Errc::replayed);
}

TEST(Replay, GraceSlotBurnedEvenWhenAcceptedInsideLiveWindow) {
  // A pre-first-seen nonce accepted while still inside the live window must
  // not be accepted AGAIN via the grace bitmap after the window slides on.
  ReplayWindow w(64, ReplayWindow::StartPolicy::grace);
  EXPECT_TRUE(w.accept(50).ok());
  EXPECT_TRUE(w.accept(40).ok());  // pre-first, but inside the live window
  EXPECT_TRUE(w.accept(500).ok());  // window slides far past 40
  EXPECT_EQ(w.accept(40).code(), Errc::replayed);
}

TEST(Replay, GraceSweepPropertyAtMostOnce) {
  // The at-most-once property holds under grace too.
  ReplayWindow w(128, ReplayWindow::StartPolicy::grace);
  crypto::ChaChaRng rng(61);
  std::unordered_map<std::uint64_t, int> accepted;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t n = 200 + rng.uniform(512);
    if (w.accept(n).ok()) accepted[n]++;
  }
  for (const auto& [n, count] : accepted)
    EXPECT_EQ(count, 1) << "nonce " << n << " accepted twice";
}

TEST(Replay, WindowSweepProperty) {
  // Every nonce accepted at most once over a random sequence.
  ReplayWindow w(128);
  crypto::ChaChaRng rng(6);
  std::unordered_map<std::uint64_t, int> accepted;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t n = rng.uniform(512);
    if (w.accept(n).ok()) accepted[n]++;
  }
  for (const auto& [n, count] : accepted)
    EXPECT_EQ(count, 1) << "nonce " << n << " accepted twice";
}

// ---- Packet MAC (§IV-D2) ---------------------------------------------------------------

TEST(PacketAuth, StampAndVerify) {
  crypto::ChaChaRng rng(7);
  const crypto::AesCmac key(rng.bytes(16));
  wire::Packet pkt;
  pkt.src_aid = 1;
  pkt.dst_aid = 2;
  pkt.payload = rng.bytes(64);
  stamp_packet_mac(key, pkt);
  EXPECT_TRUE(verify_packet_mac(key, pkt));

  // Any header/payload change invalidates it.
  auto tampered = pkt;
  tampered.dst_aid = 3;
  EXPECT_FALSE(verify_packet_mac(key, tampered));
  tampered = pkt;
  tampered.payload[10] ^= 1;
  EXPECT_FALSE(verify_packet_mac(key, tampered));
  tampered = pkt;
  tampered.src_ephid[0] ^= 1;
  EXPECT_FALSE(verify_packet_mac(key, tampered));

  // Another host's key cannot validate it (EphID spoofing defence, §VI-A).
  const crypto::AesCmac other(rng.bytes(16));
  EXPECT_FALSE(verify_packet_mac(other, pkt));
}

// ---- Sessions and PFS (§VI-B) -----------------------------------------------------------

struct SessionFixture {
  crypto::ChaChaRng rng{88};
  EphIdKeyPair a_kp = EphIdKeyPair::generate(rng);
  EphIdKeyPair b_kp = EphIdKeyPair::generate(rng);
  EphIdCodec codec = EphIdCodec(Bytes(16, 0x24));
  EphId a_eph = codec.issue(1, 100, rng);
  EphId b_eph = codec.issue(2, 100, rng);

  std::pair<Session, Session> make_pair(
      crypto::AeadSuite suite = crypto::AeadSuite::chacha20_poly1305) {
    return {Session::derive(a_kp, a_eph, b_kp.pub.dh, b_eph, suite, true),
            Session::derive(b_kp, b_eph, a_kp.pub.dh, a_eph, suite, false)};
  }
};

TEST(Session, BidirectionalRoundtrip) {
  SessionFixture f;
  auto [a, b] = f.make_pair();
  for (int i = 0; i < 5; ++i) {
    const Bytes msg = to_bytes("ping " + std::to_string(i));
    auto opened = b.open(a.seal(msg));
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(to_string(*opened), to_string(msg));
    auto opened2 = a.open(b.seal(to_bytes("pong")));
    ASSERT_TRUE(opened2.ok());
  }
}

TEST(Session, DirectionKeysAreIndependent) {
  SessionFixture f;
  auto [a, b] = f.make_pair();
  const Bytes frame = a.seal(to_bytes("hello"));
  // a cannot open its own frame (it is keyed for b's receive side).
  EXPECT_FALSE(a.open(frame).ok());
}

TEST(Session, ReplayedFrameRejected) {
  SessionFixture f;
  auto [a, b] = f.make_pair();
  const Bytes frame = a.seal(to_bytes("once"));
  EXPECT_TRUE(b.open(frame).ok());
  EXPECT_EQ(b.open(frame).code(), Errc::replayed);
}

TEST(Session, TamperedFrameRejected) {
  SessionFixture f;
  auto [a, b] = f.make_pair();
  Bytes frame = a.seal(to_bytes("payload"));
  for (std::size_t i = 0; i < frame.size(); i += 5) {
    Bytes bad = frame;
    bad[i] ^= 0x10;
    auto r = b.open(bad);
    EXPECT_FALSE(r.ok()) << "byte " << i;
  }
  EXPECT_TRUE(b.open(frame).ok());  // original still fine afterwards
}

TEST(Session, DifferentEphIdPairsDeriveDifferentKeys) {
  SessionFixture f;
  auto [a1, b1] = f.make_pair();
  // Same key pairs, different EphIDs ⇒ different session keys.
  const EphId other = f.codec.issue(3, 100, f.rng);
  Session a2 = Session::derive(f.a_kp, f.a_eph, f.b_kp.pub.dh, other,
                               crypto::AeadSuite::chacha20_poly1305, true);
  const Bytes frame = a2.seal(to_bytes("x"));
  EXPECT_FALSE(b1.open(frame).ok());
}

TEST(Session, PerfectForwardSecrecyStructure) {
  // §VI-B: the session key derives ONLY from the EphID key pairs. Wipe
  // them, and nothing that remains (certificates, long-term AS/host keys,
  // transcript) can decrypt recorded traffic. We model the adversary who
  // has everything except the ephemeral private keys: decrypting with keys
  // derived from public material must fail.
  SessionFixture f;
  auto [a, b] = f.make_pair();
  const Bytes recorded = a.seal(to_bytes("secret meeting at noon"));

  // Adversary attempt: derive a "session" from public halves only — they
  // only have pub keys, so the best they can do is guess a DH value. Use a
  // zero-key session as the stand-in for any key not derived from the
  // true ECDH secret.
  EphIdKeyPair fake{};
  fake.pub = f.a_kp.pub;
  Session eavesdropper =
      Session::derive(fake, f.a_eph, f.b_kp.pub.dh, f.b_eph,
                      crypto::AeadSuite::chacha20_poly1305, false);
  EXPECT_FALSE(eavesdropper.open(recorded).ok());
}

// ---- Handshake (§IV-D1 / §VII-A) -------------------------------------------------------

struct HandshakeFixture {
  crypto::ChaChaRng rng{99};
  crypto::Ed25519KeyPair as_a = crypto::Ed25519KeyPair::generate(rng);
  crypto::Ed25519KeyPair as_b = crypto::Ed25519KeyPair::generate(rng);
  AsDirectory dir;
  EphIdCodec codec_a = EphIdCodec(Bytes(16, 1));
  EphIdCodec codec_b = EphIdCodec(Bytes(16, 2));

  EphIdKeyPair client_kp = EphIdKeyPair::generate(rng);
  EphIdKeyPair server_r_kp = EphIdKeyPair::generate(rng);  // receive-only
  EphIdKeyPair server_s_kp = EphIdKeyPair::generate(rng);  // serving
  EphIdCertificate client_cert, server_r_cert, server_s_cert;

  HandshakeFixture() {
    AsPublicInfo ia;
    ia.aid = 1;
    ia.sign_pub = as_a.pub;
    dir.register_as(ia);
    AsPublicInfo ib;
    ib.aid = 2;
    ib.sign_pub = as_b.pub;
    dir.register_as(ib);

    client_cert = make_cert(codec_a, as_a, 1, client_kp, 0);
    server_r_cert = make_cert(codec_b, as_b, 2, server_r_kp, kCertReceiveOnly);
    server_s_cert = make_cert(codec_b, as_b, 2, server_s_kp, 0);
  }

  EphIdCertificate make_cert(EphIdCodec& codec,
                             const crypto::Ed25519KeyPair& as_key, Aid aid,
                             const EphIdKeyPair& kp, std::uint8_t flags) {
    EphIdCertificate c;
    c.ephid = codec.issue(static_cast<Hid>(rng.next_u32()), 10'000, rng);
    c.exp_time = 10'000;
    c.pub = kp.pub;
    c.aid = aid;
    c.aa_ephid = codec.issue(1, 10'000, rng);
    c.flags = flags;
    c.sign_with(as_key);
    return c;
  }
};

TEST(Handshake, HostToHostEstablishesMatchingSessions) {
  HandshakeFixture f;
  auto start = handshake_initiate(f.server_s_cert, f.dir, 100, f.client_kp,
                                  f.client_cert,
                                  crypto::AeadSuite::chacha20_poly1305, {}, 1);
  ASSERT_TRUE(start.ok());
  auto resp = handshake_respond(start->init, f.dir, 100, f.server_s_kp,
                                f.server_s_cert, f.server_s_kp,
                                f.server_s_cert, 2);
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp->early_data.empty());
  EXPECT_FALSE(resp->early_session.has_value());

  // serving == contacted ⇒ the client keeps its early session.
  Session& client_sess = start->early_session;
  auto opened = resp->session.open(client_sess.seal(to_bytes("hi")));
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(to_string(*opened), "hi");
}

TEST(Handshake, ZeroRttEarlyDataDelivered) {
  HandshakeFixture f;
  auto start = handshake_initiate(
      f.server_s_cert, f.dir, 100, f.client_kp, f.client_cert,
      crypto::AeadSuite::chacha20_poly1305, to_bytes("GET / HTTP/1.1"), 1);
  ASSERT_TRUE(start.ok());
  ASSERT_FALSE(start->init.early_data.empty());
  auto resp = handshake_respond(start->init, f.dir, 100, f.server_s_kp,
                                f.server_s_cert, f.server_s_kp,
                                f.server_s_cert, 2);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(to_string(resp->early_data), "GET / HTTP/1.1");
}

TEST(Handshake, ReceiveOnlyContactedServesFromDifferentEphId) {
  HandshakeFixture f;
  auto start = handshake_initiate(f.server_r_cert, f.dir, 100, f.client_kp,
                                  f.client_cert,
                                  crypto::AeadSuite::chacha20_poly1305, {}, 1);
  ASSERT_TRUE(start.ok());
  auto resp = handshake_respond(start->init, f.dir, 100, f.server_r_kp,
                                f.server_r_cert, f.server_s_kp,
                                f.server_s_cert, 2);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->response.serving_cert.ephid, f.server_s_cert.ephid);
  ASSERT_TRUE(resp->early_session.has_value());

  auto client_final = handshake_finish(resp->response, f.dir, 100,
                                       f.client_kp, f.client_cert,
                                       f.server_r_cert);
  ASSERT_TRUE(client_final.ok());
  auto opened = resp->session.open(client_final->seal(to_bytes("query")));
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(to_string(*opened), "query");
}

TEST(Handshake, ServingFromReceiveOnlyRejected) {
  // The server must not serve from the receive-only EphID (§VII-A).
  HandshakeFixture f;
  auto start = handshake_initiate(f.server_r_cert, f.dir, 100, f.client_kp,
                                  f.client_cert,
                                  crypto::AeadSuite::chacha20_poly1305, {}, 1);
  ASSERT_TRUE(start.ok());
  auto resp = handshake_respond(start->init, f.dir, 100, f.server_r_kp,
                                f.server_r_cert, f.server_r_kp,
                                f.server_r_cert, 2);
  EXPECT_EQ(resp.code(), Errc::unauthorized);
}

TEST(Handshake, ReceiveOnlyClientRejected) {
  HandshakeFixture f;
  EphIdKeyPair ro_kp = EphIdKeyPair::generate(f.rng);
  auto ro_cert = f.make_cert(f.codec_a, f.as_a, 1, ro_kp, kCertReceiveOnly);
  auto start = handshake_initiate(f.server_s_cert, f.dir, 100, ro_kp, ro_cert,
                                  crypto::AeadSuite::chacha20_poly1305, {}, 1);
  EXPECT_EQ(start.code(), Errc::unauthorized);
}

TEST(Handshake, MitmCertificateSwapFails) {
  // §VI-B: a malicious AS replaces the server's certificate with its own.
  HandshakeFixture f;
  crypto::ChaChaRng mallory_rng(123);
  crypto::Ed25519KeyPair mallory_as = crypto::Ed25519KeyPair::generate(mallory_rng);
  EphIdKeyPair mallory_kp = EphIdKeyPair::generate(mallory_rng);
  // Mallory's AS (aid 3) is NOT the AS that issued the contacted cert.
  EphIdCertificate fake = f.server_s_cert;
  fake.pub = mallory_kp.pub;
  fake.sign_with(mallory_as);  // not AS B's key

  // Client validates the fake certificate against AS B's published key.
  auto start = handshake_initiate(fake, f.dir, 100, f.client_kp,
                                  f.client_cert,
                                  crypto::AeadSuite::chacha20_poly1305, {}, 1);
  EXPECT_EQ(start.code(), Errc::bad_signature);
}

TEST(Handshake, ServingCertFromDifferentAsRejected) {
  HandshakeFixture f;
  auto start = handshake_initiate(f.server_r_cert, f.dir, 100, f.client_kp,
                                  f.client_cert,
                                  crypto::AeadSuite::chacha20_poly1305, {}, 1);
  ASSERT_TRUE(start.ok());
  // A (valid) certificate from AS 1 posing as the serving cert.
  HandshakeResponse forged;
  forged.serving_cert = f.client_cert;  // issued by AS 1, not AS 2
  forged.server_nonce = 9;
  forged.suite = crypto::AeadSuite::chacha20_poly1305;
  auto finished = handshake_finish(forged, f.dir, 100, f.client_kp,
                                   f.client_cert, f.server_r_cert);
  EXPECT_EQ(finished.code(), Errc::bad_certificate);
}

TEST(Handshake, ExpiredPeerCertRejected) {
  HandshakeFixture f;
  auto start = handshake_initiate(f.server_s_cert, f.dir, 20'000, f.client_kp,
                                  f.client_cert,
                                  crypto::AeadSuite::chacha20_poly1305, {}, 1);
  EXPECT_EQ(start.code(), Errc::expired);
}

// ---- Control sealing (Fig 3 encryption) -----------------------------------------------

TEST(ControlSeal, RoundtripAndDirectionSeparation) {
  crypto::ChaChaRng rng(11);
  crypto::SharedSecret dh{};
  rng.fill(MutByteSpan(dh.data(), dh.size()));
  const HostAsKeys keys = HostAsKeys::derive(dh);

  const Bytes pt = to_bytes("ephid request");
  const Bytes sealed = seal_control(keys, 7, true, pt);
  auto opened = open_control(keys, true, sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(to_string(*opened), "ephid request");
  // Same counter, opposite direction must NOT decrypt (nonce separation).
  EXPECT_FALSE(open_control(keys, false, sealed).ok());
}

TEST(ControlSeal, WrongKeyRejected) {
  crypto::ChaChaRng rng(12);
  crypto::SharedSecret dh1{}, dh2{};
  rng.fill(MutByteSpan(dh1.data(), 32));
  rng.fill(MutByteSpan(dh2.data(), 32));
  const auto k1 = HostAsKeys::derive(dh1);
  const auto k2 = HostAsKeys::derive(dh2);
  const Bytes sealed = seal_control(k1, 1, true, to_bytes("x"));
  EXPECT_FALSE(open_control(k2, true, sealed).ok());
}

// ---- Message codecs ----------------------------------------------------------------------

TEST(Messages, EphIdRequestRoundtrip) {
  crypto::ChaChaRng rng(13);
  auto kp = EphIdKeyPair::generate(rng);
  EphIdRequest req;
  req.ephid_pub = kp.pub;
  req.flags = kRequestReceiveOnly;
  req.lifetime = EphIdLifetime::medium_term;
  req.pop_sig = kp.sign(req.pop_tbs());
  auto parsed = decode_msg<EphIdRequest>(encoded(req));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->ephid_pub, req.ephid_pub);
  EXPECT_EQ(parsed->flags, req.flags);
  EXPECT_EQ(parsed->lifetime, req.lifetime);
  EXPECT_EQ(parsed->pop_sig, req.pop_sig);
  // The proof-of-possession covers the key material and survives parsing.
  EXPECT_TRUE(crypto::ed25519_verify(parsed->ephid_pub.sig, parsed->pop_tbs(),
                                     parsed->pop_sig));
}

TEST(Messages, BootstrapRequestRoundtrip) {
  crypto::ChaChaRng rng(14);
  BootstrapRequest req;
  req.subscriber_id = 1234;
  req.credential = rng.bytes(20);
  req.host_pub = crypto::X25519KeyPair::generate(rng).pub;
  auto parsed = decode_msg<BootstrapRequest>(encoded(req));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->subscriber_id, 1234u);
  EXPECT_EQ(hex_encode(parsed->credential), hex_encode(req.credential));
}

TEST(Messages, ShutoffRequestRoundtrip) {
  CertFixture f;
  ShutoffRequest req;
  req.offending_packet = f.rng.bytes(80);
  f.rng.fill(MutByteSpan(req.sig.data(), 64));
  req.dst_cert = f.make(500);
  auto parsed = decode_msg<ShutoffRequest>(encoded(req));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(hex_encode(parsed->offending_packet),
            hex_encode(req.offending_packet));
  EXPECT_EQ(parsed->dst_cert, req.dst_cert);
}

TEST(Messages, DnsRecordSignedRoundtrip) {
  CertFixture f;
  crypto::Ed25519KeyPair dns_key = crypto::Ed25519KeyPair::generate(f.rng);
  DnsRecord rec;
  rec.name = "shop.example";
  rec.cert = f.make(500, kCertReceiveOnly);
  rec.ipv4 = 0x0a000042;
  auto tbs = [](const DnsRecord& r) {
    wire::MsgWriter w;
    r.tbs_into(w);
    return w.take();
  };
  rec.sig = dns_key.sign(tbs(rec));

  DnsResponse resp;
  resp.status = 0;
  resp.record = rec;
  auto parsed = decode_msg<DnsResponse>(encoded(resp));
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed->record.has_value());
  EXPECT_EQ(parsed->record->name, "shop.example");
  EXPECT_TRUE(crypto::ed25519_verify(dns_key.pub, tbs(*parsed->record),
                                     parsed->record->sig));
  // Tampered name invalidates the DNSSEC-style signature.
  auto bad = *parsed->record;
  bad.name = "evil.example";
  EXPECT_FALSE(crypto::ed25519_verify(dns_key.pub, tbs(bad), bad.sig));
}

TEST(Messages, IcmpRoundtripAndBadTypeRejected) {
  IcmpMessage m;
  m.type = IcmpType::packet_too_big;
  m.code = 1280;
  m.data = to_bytes("hdr");
  auto parsed = decode_msg<IcmpMessage>(encoded(m));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->type, IcmpType::packet_too_big);
  EXPECT_EQ(parsed->code, 1280u);

  Bytes bad = encoded(m);
  bad[0] = 0x66;
  EXPECT_FALSE(decode_msg<IcmpMessage>(bad).ok());
}

TEST(Messages, HandshakeInitRoundtrip) {
  CertFixture f;
  HandshakeInit init;
  init.client_cert = f.make(100);
  init.client_nonce = 0x1234;
  init.suite = crypto::AeadSuite::aes128_ctr_cmac;
  init.early_data = f.rng.bytes(32);
  Bytes wire = encoded(init);
  auto parsed = decode_msg<HandshakeInit>(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->client_cert, init.client_cert);
  EXPECT_EQ(parsed->suite, crypto::AeadSuite::aes128_ctr_cmac);
  EXPECT_EQ(hex_encode(parsed->early_data), hex_encode(init.early_data));

  // The retired suite value 2 (AES-128-GCM) is malformed in both handshake
  // messages. The suite byte follows the certificate and the 8-byte nonce.
  const std::size_t suite_at = wire.size() - 2 - init.early_data.size() - 1;
  ASSERT_EQ(wire[suite_at], 3);
  wire[suite_at] = 2;
  EXPECT_EQ(decode_msg<HandshakeInit>(wire).code(), Errc::malformed);

  HandshakeResponse resp;
  resp.serving_cert = f.make(100);
  resp.server_nonce = 0x5678;
  Bytes resp_wire = encoded(resp);
  ASSERT_TRUE(decode_msg<HandshakeResponse>(resp_wire).ok());
  resp_wire.back() = 2;  // the suite is the last byte
  EXPECT_EQ(decode_msg<HandshakeResponse>(resp_wire).code(), Errc::malformed);
}

// ---- EphID key pairs -----------------------------------------------------------------------

TEST(Keys, EphIdKeyPairDeterministicFromSeed) {
  const Bytes seed(32, 0x11);
  auto a = EphIdKeyPair::from_seed(seed);
  auto b = EphIdKeyPair::from_seed(seed);
  EXPECT_EQ(a.pub, b.pub);
  const Bytes other(32, 0x12);
  EXPECT_FALSE(EphIdKeyPair::from_seed(other).pub == a.pub);
}

TEST(Keys, SignWithEphIdKeyVerifies) {
  crypto::ChaChaRng rng(15);
  auto kp = EphIdKeyPair::generate(rng);
  const Bytes msg = to_bytes("shutoff evidence");
  EXPECT_TRUE(crypto::ed25519_verify(kp.pub.sig, msg, kp.sign(msg)));
}

TEST(Keys, HostAsKeysDeterministicAndSplit) {
  crypto::SharedSecret dh{};
  dh[3] = 7;
  auto k1 = HostAsKeys::derive(dh);
  auto k2 = HostAsKeys::derive(dh);
  EXPECT_EQ(hex_encode(k1.enc), hex_encode(k2.enc));
  EXPECT_EQ(hex_encode(k1.mac), hex_encode(k2.mac));
  EXPECT_NE(hex_encode(ByteSpan(k1.enc.data(), 16)), hex_encode(k1.mac));
}

// ---- ShardedMap stripe accounting (scenario-engine memory reports) -----------

TEST(ShardedMap, StripeStatsSumToSizeAndGrowWithEntries) {
  ShardedMap<Hid, ExpTime> map(4);
  const std::size_t empty_bytes = map.approx_memory_bytes();
  EXPECT_GT(empty_bytes, 0u);  // stripe headers are real memory

  constexpr std::size_t kN = 1000;
  for (Hid hid = 1; hid <= kN; ++hid)
    map.insert_or_assign(hid, static_cast<ExpTime>(hid));

  const auto per_stripe = map.stripe_stats();
  ASSERT_EQ(per_stripe.size(), map.shard_count());
  std::size_t entries = 0, bytes = 0;
  for (const auto& s : per_stripe) {
    // Sequential HIDs spread across every stripe — no stripe is starved.
    EXPECT_GT(s.entries, 0u);
    EXPECT_GE(s.buckets, s.entries / 2);  // load factor stayed sane
    entries += s.entries;
    bytes += s.bytes;
  }
  EXPECT_EQ(entries, map.size());
  EXPECT_EQ(entries, kN);
  // The aggregate equals the per-stripe sum (plus the container header) and
  // the per-entry model actually charges for the inserted entries.
  EXPECT_EQ(map.approx_memory_bytes(), bytes + sizeof(map));
  EXPECT_GE(map.approx_memory_bytes(),
            empty_bytes + kN * sizeof(std::pair<const Hid, ExpTime>));
}

}  // namespace
}  // namespace apna::core
