// End-to-end integration tests over the simulated Internet: the full Fig 1
// lifecycle, cross-AS encrypted communication through transit ASes, DNS
// client-server establishment with receive-only EphIDs, ICMP, the shutoff
// protocol, replay handling and the privacy/accountability properties the
// security analysis (§VI) claims.
#include <gtest/gtest.h>

#include "apna/internet.h"
#include "util/hex.h"

namespace apna {
namespace {

struct World {
  Internet net{7};
  AutonomousSystem* as_a = nullptr;
  AutonomousSystem* as_b = nullptr;
  AutonomousSystem* transit = nullptr;

  World() {
    as_a = &net.add_as(100, "AS-A");
    transit = &net.add_as(200, "AS-T");
    as_b = &net.add_as(300, "AS-B");
    net.link(100, 200, 4000);   // 4 ms one-way
    net.link(200, 300, 4000);
  }
};

TEST(Integration, BootstrapAttachesHostsAndProvisionsDb) {
  World w;
  host::Host& h = w.as_a->add_host("alice");
  EXPECT_TRUE(h.bootstrapped());
  EXPECT_EQ(h.aid(), 100u);
  EXPECT_TRUE(w.as_a->state().host_db.contains(h.hid()));
  // The control EphID decodes to the host's HID — only inside the AS.
  auto plain = w.as_a->state().codec.open(h.ctrl_ephid());
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->hid, h.hid());
  // ... and is opaque to another AS.
  EXPECT_FALSE(w.as_b->state().codec.open(h.ctrl_ephid()).ok());
}

TEST(Integration, EphIdIssuanceOverTheNetwork) {
  World w;
  host::Host& h = w.as_a->add_host("alice");
  auto owned = acquire_ephid(h, w.net.loop());
  ASSERT_TRUE(owned.ok());
  EXPECT_TRUE((*owned)->cert.verify(w.as_a->state().secrets.sign.pub,
                                    w.net.loop().now_seconds()).ok());
  // EphID decodes to alice's HID inside her AS.
  auto plain = w.as_a->state().codec.open((*owned)->cert.ephid);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->hid, h.hid());
  EXPECT_EQ(h.pool().size(), 1u);
}

TEST(Integration, CrossAsEncryptedEcho) {
  World w;
  host::Host& alice = w.as_a->add_host("alice");
  host::Host& bob = w.as_b->add_host("bob");
  ASSERT_TRUE(provision_ephids(alice, w.net.loop(), 1).ok());
  ASSERT_TRUE(provision_ephids(bob, w.net.loop(), 1).ok());

  // Bob echos everything back.
  bob.set_data_handler([&bob](std::uint64_t sid, ByteSpan data) {
    Bytes reply = to_bytes("echo: ");
    append(reply, data);
    (void)bob.send_data(sid, reply);
  });

  std::string alice_got;
  alice.set_data_handler([&](std::uint64_t, ByteSpan data) {
    alice_got = to_string(data);
  });

  const auto& bob_cert = bob.pool().entries().front()->cert;
  bool connected = false;
  auto sid = alice.connect(bob_cert, {}, [&](Result<std::uint64_t> r) {
    connected = r.ok();
  });
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(alice.send_data(*sid, to_bytes("hello bob")).ok());
  w.net.run();

  EXPECT_TRUE(connected);
  EXPECT_EQ(alice_got, "echo: hello bob");
  // Data crossed the transit AS without it learning identities: transit
  // forwarded packets but never decrypted an EphID of A or B.
  EXPECT_GT(w.transit->br().stats().transited, 0u);
  EXPECT_EQ(w.transit->br().stats().delivered_in, 0u);
}

TEST(Integration, ZeroRttEarlyDataArrivesWithFirstPacket) {
  World w;
  host::Host& alice = w.as_a->add_host("alice");
  host::Host& bob = w.as_b->add_host("bob");
  ASSERT_TRUE(provision_ephids(alice, w.net.loop(), 1).ok());
  ASSERT_TRUE(provision_ephids(bob, w.net.loop(), 1).ok());

  std::string got;
  bob.set_data_handler([&](std::uint64_t, ByteSpan d) { got = to_string(d); });

  host::Host::ConnectOptions opts;
  opts.early_data = to_bytes("GET /");
  auto sid = alice.connect(bob.pool().entries().front()->cert, opts,
                           [](Result<std::uint64_t>) {});
  ASSERT_TRUE(sid.ok());
  w.net.run();
  EXPECT_EQ(got, "GET /");
}

TEST(Integration, DnsPublishResolveConnect) {
  // The full §VII-A story: bob publishes a receive-only EphID under a name;
  // alice resolves it (over an encrypted DNS session) and connects; bob
  // serves from a different EphID.
  World w;
  host::Host& alice = w.as_a->add_host("alice");
  host::Host& bob = w.as_b->add_host("bob");
  ASSERT_TRUE(provision_ephids(alice, w.net.loop(), 2).ok());
  // Bob: one receive-only EphID to publish + one serving EphID.
  ASSERT_TRUE(provision_ephids(bob, w.net.loop(), 1,
                               core::EphIdLifetime::long_term,
                               core::kRequestReceiveOnly).ok());
  ASSERT_TRUE(provision_ephids(bob, w.net.loop(), 1).ok());

  const core::EphIdCertificate* ro_cert = nullptr;
  for (const auto& e : bob.pool().entries())
    if (e->receive_only()) ro_cert = &e->cert;
  ASSERT_NE(ro_cert, nullptr);

  bool published = false;
  bob.publish_name("shop.example", *ro_cert, 0,
                   [&](Result<void> r) { published = r.ok(); });
  w.net.run();
  ASSERT_TRUE(published);

  std::optional<core::DnsRecord> rec;
  alice.resolve("shop.example", [&](Result<core::DnsRecord> r) {
    if (r.ok()) rec = *r;
  });
  w.net.run();
  ASSERT_TRUE(rec.has_value());
  EXPECT_TRUE(rec->cert.receive_only());
  EXPECT_EQ(rec->cert.ephid, ro_cert->ephid);

  // Connect via the resolved record.
  std::string bob_got;
  bob.set_data_handler([&](std::uint64_t, ByteSpan d) {
    bob_got = to_string(d);
  });
  bool connected = false;
  auto sid = alice.connect(rec->cert, {}, [&](Result<std::uint64_t> r) {
    connected = r.ok();
  });
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(alice.send_data(*sid, to_bytes("order #1")).ok());
  w.net.run();
  EXPECT_TRUE(connected);
  EXPECT_EQ(bob_got, "order #1");
  // Alice ended up talking to the SERVING EphID, not the receive-only one.
  auto eph = alice.session_ephids(*sid);
  ASSERT_TRUE(eph.has_value());
  EXPECT_FALSE(eph->second == ro_cert->ephid);
}

TEST(Integration, IcmpEchoAcrossAses) {
  World w;
  host::Host& alice = w.as_a->add_host("alice");
  host::Host& bob = w.as_b->add_host("bob");
  ASSERT_TRUE(provision_ephids(alice, w.net.loop(), 1).ok());
  ASSERT_TRUE(provision_ephids(bob, w.net.loop(), 1).ok());

  core::Endpoint target;
  target.aid = bob.aid();
  target.ephid = bob.pool().entries().front()->cert.ephid;

  std::optional<net::TimeUs> rtt;
  ASSERT_TRUE(alice.ping(target, [&](net::TimeUs t) { rtt = t; }).ok());
  w.net.run();
  ASSERT_TRUE(rtt.has_value());
  // Path: host→AS hop (50) + 2 inter-AS links (4000 each) + AS→host hop,
  // each way. RTT must exceed the pure propagation 2*(8000+100) µs.
  EXPECT_GE(*rtt, 16'200u);
}

TEST(Integration, ShutoffEndToEnd) {
  // A DDoS victim shuts the attacker's EphID off at the attacker's own AS
  // (Fig 5 through the real network path).
  World w;
  host::Host& attacker = w.as_a->add_host("mallory");
  host::Host& victim = w.as_b->add_host("victim");
  ASSERT_TRUE(provision_ephids(attacker, w.net.loop(), 1).ok());
  ASSERT_TRUE(provision_ephids(victim, w.net.loop(), 1).ok());

  // Attacker floods the victim (session-level flood).
  auto sid = attacker.connect(victim.pool().entries().front()->cert, {},
                              [](Result<std::uint64_t>) {});
  ASSERT_TRUE(sid.ok());
  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(attacker.send_data(*sid, to_bytes("flood")).ok());
  w.net.run();
  EXPECT_GT(victim.stats().data_frames_received, 0u);

  // The victim takes the last flood packet as evidence. We reconstruct one
  // from the attacker's session EphIDs.
  auto eph = attacker.session_ephids(*sid);
  ASSERT_TRUE(eph.has_value());
  // Send one more packet and capture it at the victim via a tap.
  std::optional<wire::PacketBuf> evidence;
  w.net.network().add_tap(
      [&](std::uint32_t, std::uint32_t to, const wire::PacketView& p) {
        if (to == 300 && p.proto() == wire::NextProto::data)
          evidence = wire::PacketBuf::copy_of(p);
      });
  ASSERT_TRUE(attacker.send_data(*sid, to_bytes("flood-more")).ok());
  w.net.run();
  ASSERT_TRUE(evidence.has_value());

  std::optional<Result<void>> shutoff_result;
  ASSERT_TRUE(victim.request_shutoff(evidence->view(), [&](Result<void> r) {
    shutoff_result = std::move(r);
  }).ok());
  w.net.run();
  ASSERT_TRUE(shutoff_result.has_value());
  EXPECT_TRUE(shutoff_result->ok());

  // The EphID is revoked at AS A: further flood packets die at the egress
  // border router.
  EXPECT_TRUE(w.as_a->state().revoked.is_revoked(eph->first));
  const auto before = w.as_a->br().stats().drop_revoked;
  ASSERT_TRUE(attacker.send_data(*sid, to_bytes("after-shutoff")).ok());
  const auto victim_frames = victim.stats().data_frames_received;
  w.net.run();
  EXPECT_GT(w.as_a->br().stats().drop_revoked, before);
  EXPECT_EQ(victim.stats().data_frames_received, victim_frames);
}

TEST(Integration, ShutoffDoesNotAffectOtherFlows) {
  // Per-flow EphIDs: shutting off one flow leaves the other intact (§VIII-A).
  World w;
  host::Host& src = w.as_a->add_host("src");
  host::Host& dst = w.as_b->add_host("dst");
  ASSERT_TRUE(provision_ephids(src, w.net.loop(), 2).ok());
  ASSERT_TRUE(provision_ephids(dst, w.net.loop(), 2).ok());

  auto s1 = src.connect(dst.pool().entries()[0]->cert, {},
                        [](Result<std::uint64_t>) {});
  host::Host::ConnectOptions opts2;
  opts2.flow = "second";
  auto s2 = src.connect(dst.pool().entries()[1]->cert, opts2,
                        [](Result<std::uint64_t>) {});
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  w.net.run();

  // Flows use distinct EphIDs (per-flow granularity).
  auto e1 = src.session_ephids(*s1);
  auto e2 = src.session_ephids(*s2);
  ASSERT_TRUE(e1 && e2);
  EXPECT_FALSE(e1->first == e2->first);

  // Victim shuts off flow 1 only.
  std::optional<wire::PacketBuf> evidence;
  w.net.network().add_tap(
      [&](std::uint32_t, std::uint32_t to, const wire::PacketView& p) {
        core::EphId src_e;
        src_e.bytes = p.src_ephid();
        if (to == 300 && src_e == e1->first)
          evidence = wire::PacketBuf::copy_of(p);
      });
  ASSERT_TRUE(src.send_data(*s1, to_bytes("x")).ok());
  w.net.run();
  ASSERT_TRUE(evidence.has_value());
  bool ok = false;
  ASSERT_TRUE(dst.request_shutoff(evidence->view(),
                                  [&](Result<void> r) { ok = r.ok(); }).ok());
  w.net.run();
  ASSERT_TRUE(ok);

  // Flow 2 still works.
  std::string got;
  dst.set_data_handler([&](std::uint64_t, ByteSpan d) { got = to_string(d); });
  ASSERT_TRUE(src.send_data(*s2, to_bytes("still alive")).ok());
  w.net.run();
  EXPECT_EQ(got, "still alive");
}

TEST(Integration, ReplayedDataPacketDiscarded) {
  // §VIII-D: an in-network adversary replays a captured packet; the
  // destination host discards the duplicate.
  World w;
  host::Host& alice = w.as_a->add_host("alice");
  host::Host& bob = w.as_b->add_host("bob");
  ASSERT_TRUE(provision_ephids(alice, w.net.loop(), 1).ok());
  ASSERT_TRUE(provision_ephids(bob, w.net.loop(), 1).ok());

  int frames = 0;
  bob.set_data_handler([&](std::uint64_t, ByteSpan) { ++frames; });

  std::optional<wire::PacketBuf> captured;
  w.net.network().add_tap(
      [&](std::uint32_t, std::uint32_t to, const wire::PacketView& p) {
        if (to == 300 && p.proto() == wire::NextProto::data && !captured)
          captured = wire::PacketBuf::copy_of(p);
      });

  auto sid = alice.connect(bob.pool().entries().front()->cert, {},
                           [](Result<std::uint64_t>) {});
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(alice.send_data(*sid, to_bytes("unique")).ok());
  w.net.run();
  ASSERT_TRUE(captured.has_value());
  EXPECT_EQ(frames, 1);

  // Replay the captured packet into AS B's border router.
  const auto replays_before = bob.stats().replay_drops;
  w.as_b->br().on_ingress(std::move(*captured));
  w.net.run();
  EXPECT_EQ(frames, 1);  // not delivered twice
  EXPECT_EQ(bob.stats().replay_drops, replays_before + 1);
}

TEST(Integration, SenderFlowUnlinkabilityAgainstObserver) {
  // §II-B: an observer sees all inter-AS traffic. With per-flow EphIDs, two
  // flows from the same host expose no shared identifier: source EphIDs
  // differ, and neither equals anything linkable to the HID.
  World w;
  host::Host& alice = w.as_a->add_host("alice");
  host::Host& bob = w.as_b->add_host("bob");
  host::Host& carol = w.as_b->add_host("carol");
  ASSERT_TRUE(provision_ephids(alice, w.net.loop(), 2).ok());
  ASSERT_TRUE(provision_ephids(bob, w.net.loop(), 1).ok());
  ASSERT_TRUE(provision_ephids(carol, w.net.loop(), 1).ok());

  std::vector<wire::Packet> observed;
  w.net.network().add_tap(
      [&](std::uint32_t from, std::uint32_t, const wire::PacketView& p) {
        if (from == 100) observed.push_back(p.to_owned());  // AS A's egress
      });

  auto s1 = alice.connect(bob.pool().entries().front()->cert, {},
                          [](Result<std::uint64_t>) {});
  host::Host::ConnectOptions o2;
  o2.flow = "f2";
  auto s2 = alice.connect(carol.pool().entries().front()->cert, o2,
                          [](Result<std::uint64_t>) {});
  ASSERT_TRUE(s1.ok() && s2.ok());
  (void)alice.send_data(*s1, to_bytes("to bob"));
  (void)alice.send_data(*s2, to_bytes("to carol"));
  w.net.run();

  // Partition observed packets by source EphID: the two flows must use
  // different EphIDs, and no observed identifier reveals the HID.
  std::set<std::string> src_ephids;
  for (const auto& p : observed) {
    core::EphId e;
    e.bytes = p.src_ephid;
    src_ephids.insert(e.hex());
    // The observer cannot decode any EphID (only AS A can).
    EXPECT_FALSE(w.as_b->state().codec.open(e).ok());
  }
  EXPECT_GE(src_ephids.size(), 2u);
}

TEST(Integration, EveryDeliveredPacketIsAttributable) {
  // Source accountability (§II-A): for every packet that left AS A, the AS
  // can produce the sending HID.
  World w;
  host::Host& alice = w.as_a->add_host("alice");
  host::Host& bob = w.as_b->add_host("bob");
  ASSERT_TRUE(provision_ephids(alice, w.net.loop(), 2).ok());
  ASSERT_TRUE(provision_ephids(bob, w.net.loop(), 1).ok());

  std::vector<wire::PacketBuf> egress;
  w.net.network().add_tap(
      [&](std::uint32_t from, std::uint32_t, const wire::PacketView& p) {
        if (from == 100) egress.push_back(wire::PacketBuf::copy_of(p));
      });

  auto sid = alice.connect(bob.pool().entries().front()->cert, {},
                           [](Result<std::uint64_t>) {});
  ASSERT_TRUE(sid.ok());
  (void)alice.send_data(*sid, to_bytes("attributable"));
  w.net.run();

  ASSERT_FALSE(egress.empty());
  for (const auto& buf : egress) {
    const wire::PacketView& p = buf.view();
    core::EphId e;
    e.bytes = p.src_ephid();
    auto plain = w.as_a->state().codec.open(e);
    ASSERT_TRUE(plain.ok());
    EXPECT_EQ(plain->hid, alice.hid());
    // ... and the MAC binds the packet to that host's kHA.
    const auto rec = w.as_a->state().host_db.find(plain->hid);
    ASSERT_TRUE(rec.has_value());
    EXPECT_TRUE(core::verify_packet_mac(
        crypto::AesCmac(ByteSpan(rec->keys.mac.data(), 16)), p));
  }
}

TEST(Integration, ExpiredEphIdsStopWorking) {
  World w;
  host::Host& alice = w.as_a->add_host("alice");
  host::Host& bob = w.as_b->add_host("bob");
  ASSERT_TRUE(provision_ephids(alice, w.net.loop(), 1).ok());
  ASSERT_TRUE(provision_ephids(bob, w.net.loop(), 1).ok());

  auto sid = alice.connect(bob.pool().entries().front()->cert, {},
                           [](Result<std::uint64_t>) {});
  ASSERT_TRUE(sid.ok());
  w.net.run();

  // Advance past the short-term EphID lifetime (15 min).
  w.net.loop().advance(16 * 60 * net::kUsPerSecond);
  const auto drops_before = w.as_a->br().stats().drop_expired;
  ASSERT_TRUE(alice.send_data(*sid, to_bytes("too late")).ok());
  w.net.run();
  EXPECT_GT(w.as_a->br().stats().drop_expired, drops_before);
}

TEST(Integration, IntraAsCommunicationStaysLocal) {
  World w;
  host::Host& h1 = w.as_a->add_host("h1");
  host::Host& h2 = w.as_a->add_host("h2");
  ASSERT_TRUE(provision_ephids(h1, w.net.loop(), 1).ok());
  ASSERT_TRUE(provision_ephids(h2, w.net.loop(), 1).ok());

  std::string got;
  h2.set_data_handler([&](std::uint64_t, ByteSpan d) { got = to_string(d); });
  auto sid = h1.connect(h2.pool().entries().front()->cert, {},
                        [](Result<std::uint64_t>) {});
  ASSERT_TRUE(sid.ok());
  (void)h1.send_data(*sid, to_bytes("local"));
  const auto external_before = w.net.network().stats().transmitted;
  w.net.run();
  EXPECT_EQ(got, "local");
  EXPECT_EQ(w.net.network().stats().transmitted, external_before);
}

TEST(Integration, PacketsAreEncryptedOnTheWire) {
  // Pervasive data encryption (§I): the plaintext never appears in any
  // observed packet.
  World w;
  host::Host& alice = w.as_a->add_host("alice");
  host::Host& bob = w.as_b->add_host("bob");
  ASSERT_TRUE(provision_ephids(alice, w.net.loop(), 1).ok());
  ASSERT_TRUE(provision_ephids(bob, w.net.loop(), 1).ok());

  const std::string secret = "EXTREMELY-SECRET-PAYLOAD-0xDEADBEEF";
  std::vector<Bytes> wire_payloads;
  w.net.network().add_tap(
      [&](std::uint32_t, std::uint32_t, const wire::PacketView& p) {
        wire_payloads.emplace_back(p.bytes().begin(), p.bytes().end());
      });

  host::Host::ConnectOptions opts;
  opts.early_data = to_bytes(secret);  // even 0-RTT data must be sealed
  auto sid = alice.connect(bob.pool().entries().front()->cert, opts,
                           [](Result<std::uint64_t>) {});
  ASSERT_TRUE(sid.ok());
  (void)alice.send_data(*sid, to_bytes(secret));
  w.net.run();

  ASSERT_FALSE(wire_payloads.empty());
  for (const auto& wp : wire_payloads) {
    const std::string as_str(wp.begin(), wp.end());
    EXPECT_EQ(as_str.find(secret), std::string::npos);
  }
}

TEST(Integration, AeadSuitesInteroperateAcrossHosts) {
  // Suite negotiation: a non-default (Encrypt-then-MAC) client talks to a
  // server on the default suite.
  World w;
  host::Host& alice =
      w.as_a->add_host("alice", host::Granularity::per_flow,
                       crypto::AeadSuite::aes128_ctr_cmac);
  host::Host& bob = w.as_b->add_host("bob");
  ASSERT_TRUE(provision_ephids(alice, w.net.loop(), 1).ok());
  ASSERT_TRUE(provision_ephids(bob, w.net.loop(), 1).ok());
  std::string got;
  bob.set_data_handler([&](std::uint64_t, ByteSpan d) { got = to_string(d); });
  auto sid = alice.connect(bob.pool().entries().front()->cert, {},
                           [](Result<std::uint64_t>) {});
  ASSERT_TRUE(sid.ok());
  (void)alice.send_data(*sid, to_bytes("etm works"));
  w.net.run();
  EXPECT_EQ(got, "etm works");
}

}  // namespace
}  // namespace apna
