// Gateway tests: NAT-mode AP (§VII-B), bridge-mode AP, the IPv4 gateway
// (§VII-D) and APNA-as-a-Service (§VIII-E), end to end over the simulator.
#include <gtest/gtest.h>

#include "apna/internet.h"
#include "crypto/x25519.h"
#include "gateway/apnaas.h"
#include "gateway/bridge_ap.h"
#include "gateway/ipv4_gateway.h"
#include "gateway/nat_ap.h"

namespace apna::gw {
namespace {

struct GwWorld {
  Internet net{21};
  AutonomousSystem* as_a = nullptr;
  AutonomousSystem* as_b = nullptr;

  GwWorld() {
    as_a = &net.add_as(100, "AS-A");
    as_b = &net.add_as(300, "AS-B");
    net.link(100, 300, 4000);
  }
};

// ---- NAT-mode AP ------------------------------------------------------------

TEST(NatAp, InnerHostBootstrapsAndGetsRealAsEphIds) {
  GwWorld w;
  NatAccessPoint ap({.name = "cafe-ap"}, *w.as_a, w.net.directory());
  host::Host& inner = ap.add_inner_host("laptop");
  ASSERT_TRUE(inner.bootstrapped());
  EXPECT_EQ(inner.aid(), 0xFF000001u);  // private realm

  auto owned = acquire_ephid(inner, w.net.loop());
  ASSERT_TRUE(owned.ok());
  // The certificate names the REAL AS and is signed by it.
  EXPECT_EQ((*owned)->cert.aid, 100u);
  EXPECT_TRUE((*owned)->cert
                  .verify(w.as_a->state().secrets.sign.pub,
                          w.net.loop().now_seconds())
                  .ok());
  // ... and the EphID decodes to the AP's HID at the AS (the AS sees only
  // the AP).
  auto plain = w.as_a->state().codec.open((*owned)->cert.ephid);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->hid, ap.ap_host().hid());
  // The AP can identify its inner host behind the EphID (AA role).
  auto who = ap.identify((*owned)->cert.ephid);
  ASSERT_TRUE(who.ok());
  EXPECT_EQ(*who, inner.hid());
  EXPECT_EQ(ap.stats().proxied_ephids, 1u);
}

TEST(NatAp, InnerHostTalksToTheInternet) {
  GwWorld w;
  NatAccessPoint ap({.name = "home-ap"}, *w.as_a, w.net.directory());
  host::Host& laptop = ap.add_inner_host("laptop");
  host::Host& server = w.as_b->add_host("server");
  ASSERT_TRUE(provision_ephids(laptop, w.net.loop(), 1).ok());
  ASSERT_TRUE(provision_ephids(server, w.net.loop(), 1).ok());

  std::string server_got;
  server.set_data_handler([&](std::uint64_t sid, ByteSpan d) {
    server_got = to_string(d);
    (void)server.send_data(sid, to_bytes("pong"));
  });
  std::string laptop_got;
  laptop.set_data_handler([&](std::uint64_t, ByteSpan d) {
    laptop_got = to_string(d);
  });

  bool connected = false;
  auto sid = laptop.connect(server.pool().entries().front()->cert, {},
                            [&](Result<std::uint64_t> r) {
                              connected = r.ok();
                            });
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(laptop.send_data(*sid, to_bytes("ping from behind NAT")).ok());
  w.net.run();

  EXPECT_TRUE(connected);
  EXPECT_EQ(server_got, "ping from behind NAT");
  EXPECT_EQ(laptop_got, "pong");
  EXPECT_GT(ap.stats().inner_out, 0u);
  EXPECT_GT(ap.stats().inner_in, 0u);
  // Packets passed the parent AS's egress checks (re-MAC'd by the AP).
  EXPECT_GT(w.as_a->br().stats().forwarded_out, 0u);
  EXPECT_EQ(w.as_a->br().stats().drop_bad_mac, 0u);
}

TEST(NatAp, TwoInnerHostsDistinguished) {
  GwWorld w;
  NatAccessPoint ap({.name = "ap"}, *w.as_a, w.net.directory());
  host::Host& h1 = ap.add_inner_host("h1");
  host::Host& h2 = ap.add_inner_host("h2");
  ASSERT_TRUE(provision_ephids(h1, w.net.loop(), 1).ok());
  ASSERT_TRUE(provision_ephids(h2, w.net.loop(), 1).ok());

  const auto& e1 = h1.pool().entries().front()->cert.ephid;
  const auto& e2 = h2.pool().entries().front()->cert.ephid;
  EXPECT_EQ(ap.identify(e1).value(), h1.hid());
  EXPECT_EQ(ap.identify(e2).value(), h2.hid());
  EXPECT_NE(h1.hid(), h2.hid());

  core::EphId bogus;
  EXPECT_EQ(ap.identify(bogus).code(), Errc::not_found);
}

TEST(NatAp, SpoofingInnerHostDropped) {
  // An inner host cannot use another inner host's EphID: the inner MAC
  // check fails at the AP router.
  GwWorld w;
  NatAccessPoint ap({.name = "ap"}, *w.as_a, w.net.directory());
  host::Host& honest = ap.add_inner_host("honest");
  host::Host& evil = ap.add_inner_host("evil");
  ASSERT_TRUE(provision_ephids(honest, w.net.loop(), 1).ok());
  ASSERT_TRUE(provision_ephids(evil, w.net.loop(), 1).ok());
  host::Host& server = w.as_b->add_host("server");
  ASSERT_TRUE(provision_ephids(server, w.net.loop(), 1).ok());

  // Evil crafts a packet claiming honest's EphID; it cannot produce the MAC
  // under honest's inner kHA, so the AP router drops it at the uplink.
  wire::Packet forged;
  forged.src_aid = 0xFF000001;
  forged.src_ephid = honest.pool().entries().front()->cert.ephid.bytes;
  forged.dst_aid = 300;
  forged.dst_ephid = server.pool().entries().front()->cert.ephid.bytes;
  forged.proto = wire::NextProto::data;
  forged.payload = to_bytes("spoofed");
  crypto::ChaChaRng rng(1);
  rng.fill(MutByteSpan(forged.mac.data(), 8));

  const auto egress_before = w.as_a->br().stats().forwarded_out;
  ap.inject_inner(forged.seal());
  w.net.run();
  EXPECT_EQ(ap.stats().drop_bad_inner_mac, 1u);
  EXPECT_EQ(ap.stats().inner_out, 0u);
  EXPECT_EQ(w.as_a->br().stats().forwarded_out, egress_before);

  // An EphID never issued through this AP is dropped as unknown.
  wire::Packet alien = forged;
  rng.fill(MutByteSpan(alien.src_ephid.data(), 16));
  ap.inject_inner(alien.seal());
  w.net.run();
  EXPECT_EQ(ap.stats().drop_unknown_ephid, 1u);
  (void)evil;
}

TEST(NatAp, InnerRequestWithTrailingByteDropped) {
  // The AP's MS proxy decodes inner EphID requests as strictly as the real
  // Management Service: a sealed request whose plaintext carries one
  // trailing byte is dropped — nothing goes upstream, no reply comes back.
  GwWorld w;
  NatAccessPoint ap({.name = "ap"}, *w.as_a, w.net.directory());
  host::Host& inner = ap.add_inner_host("laptop");
  ASSERT_TRUE(inner.bootstrapped());

  // One genuine request, captured on the inner wire, supplies the
  // addressing (control EphID → inner MS) and a valid plaintext.
  std::optional<wire::PacketBuf> genuine;
  inner.set_uplink([&](wire::PacketBuf pkt) { genuine = std::move(pkt); });
  inner.request_ephid(core::EphIdLifetime::short_term, 0, [](auto) {});
  ASSERT_TRUE(genuine.has_value());
  const wire::PacketView& g = genuine->view();

  // The inner host's kHA: its long-term key is the first draw of its
  // name-seeded RNG, exchanged with the private realm's published DH key.
  crypto::ChaChaRng host_rng(to_bytes("laptop"));
  const auto long_term = crypto::X25519KeyPair::generate(host_rng);
  const auto realm = w.net.directory().lookup(inner.aid());
  ASSERT_TRUE(realm.has_value());
  const auto kha = core::HostAsKeys::derive(
      crypto::x25519_shared(long_term.priv, realm->dh_pub));
  auto request = core::open_control(kha, /*from_host=*/true, g.payload());
  ASSERT_TRUE(request.ok());

  std::uint64_t counter = 1000;
  auto inject = [&](ByteSpan plaintext) {
    wire::PacketWriter pw(g.src_aid(), g.src_ephid(), g.dst_aid(),
                          g.dst_ephid(), wire::NextProto::control);
    core::seal_control_into(pw, kha, counter++, /*from_host=*/true,
                            plaintext);
    ap.inject_inner(pw.finish());
    w.net.run();
  };

  const auto upstream_before = ap.ap_host().stats().packets_sent;
  const auto replies_before = inner.stats().packets_received;
  Bytes trailing = *request;
  trailing.push_back(0x00);
  inject(trailing);
  EXPECT_EQ(ap.stats().proxied_ephids, 0u);
  EXPECT_EQ(ap.ap_host().stats().packets_sent, upstream_before);
  EXPECT_EQ(inner.stats().packets_received, replies_before);

  // The same request without the extra byte is proxied and answered.
  inject(*request);
  EXPECT_EQ(ap.stats().proxied_ephids, 1u);
  EXPECT_GT(ap.ap_host().stats().packets_sent, upstream_before);
  EXPECT_GT(inner.stats().packets_received, replies_before);
}

// ---- Bridge-mode AP -----------------------------------------------------------

TEST(BridgeAp, HostsAreDirectCustomers) {
  GwWorld w;
  BridgeAccessPoint bridge("bridge", *w.as_a);
  host::Host& h = bridge.add_host("desk");
  ASSERT_TRUE(h.bootstrapped());
  // Direct authentication: the host's HID is in the AS's own host_info.
  EXPECT_EQ(h.aid(), 100u);
  EXPECT_TRUE(w.as_a->state().host_db.contains(h.hid()));

  auto owned = acquire_ephid(h, w.net.loop());
  ASSERT_TRUE(owned.ok());
  // EphID decodes to the HOST's HID, not the bridge's (unlike NAT mode).
  auto plain = w.as_a->state().codec.open((*owned)->cert.ephid);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->hid, h.hid());
  EXPECT_GT(bridge.stats().relayed_up, 0u);
  EXPECT_GT(bridge.stats().relayed_down, 0u);
}

TEST(BridgeAp, EndToEndThroughBridge) {
  GwWorld w;
  BridgeAccessPoint bridge("bridge", *w.as_a);
  host::Host& inside = bridge.add_host("inside");
  host::Host& outside = w.as_b->add_host("outside");
  ASSERT_TRUE(provision_ephids(inside, w.net.loop(), 1).ok());
  ASSERT_TRUE(provision_ephids(outside, w.net.loop(), 1).ok());

  std::string got;
  outside.set_data_handler([&](std::uint64_t, ByteSpan d) {
    got = to_string(d);
  });
  auto sid = inside.connect(outside.pool().entries().front()->cert, {},
                            [](Result<std::uint64_t>) {});
  ASSERT_TRUE(sid.ok());
  (void)inside.send_data(*sid, to_bytes("via bridge"));
  w.net.run();
  EXPECT_EQ(got, "via bridge");
}

// ---- IPv4 gateway ---------------------------------------------------------------

TEST(Ipv4Gateway, DnsInterceptionAssignsSyntheticIp) {
  GwWorld w;
  // An APNA server publishes a name.
  host::Host& server = w.as_b->add_host("server");
  ASSERT_TRUE(provision_ephids(server, w.net.loop(), 1,
                               core::EphIdLifetime::long_term,
                               core::kRequestReceiveOnly).ok());
  ASSERT_TRUE(provision_ephids(server, w.net.loop(), 1).ok());
  const core::EphIdCertificate* ro = nullptr;
  for (const auto& e : server.pool().entries())
    if (e->receive_only()) ro = &e->cert;
  bool pub = false;
  server.publish_name("legacy.example", *ro, 0,
                      [&](Result<void> r) { pub = r.ok(); });
  w.net.run();
  ASSERT_TRUE(pub);

  Ipv4Gateway gw({}, *w.as_a);
  ASSERT_TRUE(provision_ephids(gw.gw_host(), w.net.loop(), 2).ok());

  std::optional<std::uint32_t> ip;
  gw.legacy_resolve("legacy.example",
                    [&](Result<std::uint32_t> r) { if (r.ok()) ip = *r; });
  w.net.run();
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(*ip & 0xFFFF0000, 0x0A630000u);  // synthetic pool

  // Cached on second resolution.
  std::optional<std::uint32_t> ip2;
  gw.legacy_resolve("legacy.example",
                    [&](Result<std::uint32_t> r) { if (r.ok()) ip2 = *r; });
  w.net.run();
  EXPECT_EQ(*ip, *ip2);

  std::optional<Result<std::uint32_t>> missing;
  gw.legacy_resolve("nope.example",
                    [&](Result<std::uint32_t> r) { missing = std::move(r); });
  w.net.run();
  ASSERT_TRUE(missing.has_value());
  EXPECT_FALSE(missing->ok());
}

TEST(Ipv4Gateway, LegacyClientReachesApnaServer) {
  GwWorld w;
  host::Host& server = w.as_b->add_host("server");
  ASSERT_TRUE(provision_ephids(server, w.net.loop(), 2).ok());
  bool pub = false;
  server.publish_name("svc.example", server.pool().entries().front()->cert,
                      0, [&](Result<void> r) { pub = r.ok(); });
  w.net.run();
  ASSERT_TRUE(pub);

  std::string server_got;
  server.set_data_handler([&](std::uint64_t sid, ByteSpan d) {
    server_got = to_string(d);
    (void)server.send_data(sid, to_bytes("apna reply"));
  });

  Ipv4Gateway gw({}, *w.as_a);
  ASSERT_TRUE(provision_ephids(gw.gw_host(), w.net.loop(), 4).ok());

  // The legacy client at 192.168.1.2.
  std::vector<wire::Ipv4Packet> client_rx;
  gw.attach_legacy_host(0xC0A80102, [&](const wire::Ipv4Packet& p) {
    client_rx.push_back(p);
  });

  std::uint32_t dst_ip = 0;
  gw.legacy_resolve("svc.example",
                    [&](Result<std::uint32_t> r) { dst_ip = r.ok() ? *r : 0; });
  w.net.run();
  ASSERT_NE(dst_ip, 0u);

  wire::Ipv4Packet pkt;
  pkt.hdr.src = 0xC0A80102;
  pkt.hdr.dst = dst_ip;
  pkt.hdr.proto = wire::IpProto::tcp;
  pkt.src_port = 50000;
  pkt.dst_port = 80;
  pkt.payload = to_bytes("legacy request");
  gw.on_legacy_packet(pkt);
  w.net.run();

  EXPECT_EQ(server_got, "legacy request");
  ASSERT_EQ(client_rx.size(), 1u);
  EXPECT_EQ(to_string(client_rx[0].payload), "apna reply");
  // The reply arrives FROM the synthetic IP TO the client, ports mirrored.
  EXPECT_EQ(client_rx[0].hdr.src, dst_ip);
  EXPECT_EQ(client_rx[0].hdr.dst, 0xC0A80102u);
  EXPECT_EQ(client_rx[0].dst_port, 50000);
  EXPECT_EQ(gw.stats().flows_created, 1u);

  // Second packet on the same flow reuses the session.
  gw.on_legacy_packet(pkt);
  w.net.run();
  EXPECT_EQ(gw.stats().flows_created, 1u);
  EXPECT_EQ(gw.stats().out_translated, 2u);
}

TEST(Ipv4Gateway, UnresolvedDestinationDropped) {
  GwWorld w;
  Ipv4Gateway gw({}, *w.as_a);
  wire::Ipv4Packet pkt;
  pkt.hdr.src = 0xC0A80102;
  pkt.hdr.dst = 0x08080808;  // never resolved through the gateway
  pkt.hdr.proto = wire::IpProto::udp;
  pkt.payload = to_bytes("x");
  gw.on_legacy_packet(pkt);
  w.net.run();
  EXPECT_EQ(gw.stats().no_mapping_drops, 1u);
  EXPECT_EQ(gw.stats().flows_created, 0u);
}

TEST(Ipv4Gateway, ApnaClientReachesLegacyServer) {
  // Server side: an APNA host connects to a legacy IPv4 server through the
  // server's gateway (virtual endpoints).
  GwWorld w;
  Ipv4Gateway gw({.name = "server-gw"}, *w.as_b);
  ASSERT_TRUE(provision_ephids(gw.gw_host(), w.net.loop(), 2).ok());
  gw.register_server(0x0A000050);  // legacy server 10.0.0.80

  // The legacy server echoes through the gateway.
  std::vector<wire::Ipv4Packet> server_rx;
  gw.attach_legacy_host(0x0A000050, [&](const wire::Ipv4Packet& p) {
    server_rx.push_back(p);
    wire::Ipv4Packet reply;
    reply.hdr.src = 0x0A000050;
    reply.hdr.dst = p.hdr.src;  // the virtual endpoint
    reply.hdr.proto = p.hdr.proto;
    reply.src_port = p.dst_port;
    reply.dst_port = p.src_port;
    reply.payload = to_bytes("legacy server reply");
    gw.on_legacy_packet(reply);
  });

  host::Host& client = w.as_a->add_host("apna-client");
  ASSERT_TRUE(provision_ephids(client, w.net.loop(), 1).ok());
  std::string client_got;
  client.set_data_handler([&](std::uint64_t, ByteSpan d) {
    client_got = to_string(d);
  });

  auto sid = client.connect(gw.gw_host().pool().entries().front()->cert, {},
                            [](Result<std::uint64_t>) {});
  ASSERT_TRUE(sid.ok());
  (void)client.send_data(*sid, to_bytes("hello legacy"));
  w.net.run();

  ASSERT_EQ(server_rx.size(), 1u);
  EXPECT_EQ(to_string(server_rx[0].payload), "hello legacy");
  // The APNA peer appears as a virtual endpoint from the private pool.
  EXPECT_EQ(server_rx[0].hdr.src & 0xFFFF0000, 0x0A640000u);
  EXPECT_EQ(client_got, "legacy server reply");
}

// ---- APNA-as-a-Service -----------------------------------------------------------

TEST(ApnaAsAService, DownstreamCustomersUseUpstreamEphIds) {
  GwWorld w;
  DownstreamAs customer_as({.name = "small-isp"}, *w.as_a,
                           w.net.directory());
  host::Host& cust = customer_as.add_customer("cust-1");
  ASSERT_TRUE(cust.bootstrapped());
  ASSERT_TRUE(provision_ephids(cust, w.net.loop(), 1).ok());

  const auto& eph = cust.pool().entries().front()->cert;
  // §VIII-E privacy benefit: the certificate names the UPSTREAM ISP, so the
  // customer mixes into the upstream anonymity set.
  EXPECT_EQ(eph.aid, 100u);
  EXPECT_EQ(customer_as.upstream_aid(), 100u);
  // The downstream operator can still identify its own customer.
  EXPECT_EQ(customer_as.identify(eph.ephid).value(), cust.hid());

  // End-to-end traffic with a host in another AS.
  host::Host& remote = w.as_b->add_host("remote");
  ASSERT_TRUE(provision_ephids(remote, w.net.loop(), 1).ok());
  std::string got;
  remote.set_data_handler([&](std::uint64_t, ByteSpan d) {
    got = to_string(d);
  });
  auto sid = cust.connect(remote.pool().entries().front()->cert, {},
                          [](Result<std::uint64_t>) {});
  ASSERT_TRUE(sid.ok());
  (void)cust.send_data(*sid, to_bytes("via APNAaaS"));
  w.net.run();
  EXPECT_EQ(got, "via APNAaaS");
}

}  // namespace
}  // namespace apna::gw
