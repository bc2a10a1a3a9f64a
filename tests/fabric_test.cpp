// AS-fabric and service edge cases: packet handling at wrong endpoints,
// service authentication of their own traffic, bootstrap error paths and
// the AutonomousSystem wiring itself.
#include <gtest/gtest.h>

#include "apna/internet.h"
#include "core/packet_auth.h"

namespace apna {
namespace {

struct FabricWorld {
  Internet net{88};
  AutonomousSystem* as_a;
  AutonomousSystem* as_b;
  FabricWorld() {
    as_a = &net.add_as(100, "A");
    as_b = &net.add_as(300, "B");
    net.link(100, 300, 1000);
  }
};

TEST(Fabric, ServiceRepliesCarryValidSourceMacs) {
  // Every infrastructure reply (MS, DNS, AA) must itself pass the egress
  // MAC check — services are accountable like any host (§VIII-B).
  FabricWorld w;
  host::Host& h = w.as_b->add_host("client-in-b");  // cross-AS DNS session
  ASSERT_TRUE(provision_ephids(h, w.net.loop(), 1).ok());

  // Resolve against AS A's DNS from AS B: the DNS replies must traverse
  // AS A's egress border router, which verifies their MACs.
  host::Host& publisher = w.as_a->add_host("pub");
  ASSERT_TRUE(provision_ephids(publisher, w.net.loop(), 1).ok());
  bool pub_ok = false;
  publisher.publish_name("svc.a", publisher.pool().entries().front()->cert,
                         0, [&](Result<void> r) { pub_ok = r.ok(); });
  w.net.run();
  ASSERT_TRUE(pub_ok);

  std::optional<core::DnsRecord> rec;
  h.resolve_via(publisher.dns_cert(), "svc.a",
                [&](Result<core::DnsRecord> r) {
                  if (r.ok()) rec = *r;
                });
  w.net.run();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(w.as_a->br().stats().drop_bad_mac, 0u);
  EXPECT_GT(w.as_a->br().stats().forwarded_out, 0u);
}

TEST(Fabric, MsIgnoresNonControlPackets) {
  FabricWorld w;
  host::Host& h = w.as_a->add_host("h");
  ASSERT_TRUE(provision_ephids(h, w.net.loop(), 1).ok());

  // Hand-craft a DATA packet addressed to the MS EphID: the MS must reject
  // it without a reply.
  wire::Packet pkt;
  pkt.src_aid = 100;
  pkt.src_ephid = h.pool().entries().front()->cert.ephid.bytes;
  pkt.dst_aid = 100;
  pkt.dst_ephid = w.as_a->ms().cert().ephid.bytes;
  pkt.proto = wire::NextProto::data;
  pkt.payload = to_bytes("nonsense");
  auto resp = w.as_a->ms().handle_packet(pkt.seal().view());
  EXPECT_FALSE(resp.ok());
  EXPECT_EQ(resp.code(), Errc::malformed);
}

TEST(Fabric, AaRejectsUnknownShutoffKind) {
  FabricWorld w;
  wire::Packet pkt;
  pkt.src_aid = 300;
  pkt.dst_aid = 100;
  pkt.proto = wire::NextProto::shutoff;
  pkt.payload = {0x77, 0x01, 0x02};  // bogus kind
  const wire::PacketBuf sealed = pkt.seal();
  auto resp = w.as_a->aa().handle_packet(sealed.view());
  ASSERT_TRUE(resp.ok());  // the AA answers with a status, not silence
  wire::Reader r(resp->view().payload());
  EXPECT_EQ(r.u8().value(),
            static_cast<std::uint8_t>(core::ShutoffKind::response));
  auto status = core::decode_msg<core::ShutoffResponse>(r.rest());
  ASSERT_TRUE(status.ok());
  EXPECT_NE(status->status, 0);
  EXPECT_EQ(w.as_a->aa().stats().rejected_malformed, 1u);
}

TEST(Fabric, SubscriberEnrollmentIsolated) {
  FabricWorld w;
  const auto acc1 = w.as_a->enroll_subscriber();
  const auto acc2 = w.as_a->enroll_subscriber();
  EXPECT_NE(acc1.subscriber_id, acc2.subscriber_id);
  EXPECT_NE(hex_encode(acc1.credential), hex_encode(acc2.credential));
  // Credentials work only for their own subscriber.
  EXPECT_TRUE(w.as_a->subscribers().authenticate(acc1.subscriber_id,
                                                 acc1.credential));
  EXPECT_FALSE(w.as_a->subscribers().authenticate(acc1.subscriber_id,
                                                  acc2.credential));
  EXPECT_FALSE(w.as_a->subscribers().authenticate(acc2.subscriber_id,
                                                  acc1.credential));
}

TEST(Fabric, HostCountAndDbSizesConsistent) {
  FabricWorld w;
  const std::size_t services = w.as_a->state().host_db.size();
  for (int i = 0; i < 5; ++i) w.as_a->add_host("h" + std::to_string(i));
  EXPECT_EQ(w.as_a->hosts().size(), 5u);
  EXPECT_EQ(w.as_a->state().host_db.size(), services + 5);
}

TEST(Fabric, CrossAsControlPacketCannotReachForeignMs) {
  // A host in AS B addresses AS A's MS EphID directly: the packet routes,
  // but the MS cannot authenticate the foreign control EphID and drops it.
  FabricWorld w;
  host::Host& foreign = w.as_b->add_host("foreign");
  ASSERT_TRUE(provision_ephids(foreign, w.net.loop(), 1).ok());

  wire::Packet pkt;
  pkt.src_aid = 300;
  pkt.src_ephid = foreign.ctrl_ephid().bytes;  // AS B control EphID
  pkt.dst_aid = 100;
  pkt.dst_ephid = w.as_a->ms().cert().ephid.bytes;
  pkt.proto = wire::NextProto::control;
  pkt.payload = to_bytes("opaque");
  const auto issued_before = w.as_a->ms().stats().issued;
  auto resp = w.as_a->ms().handle_packet(pkt.seal().view());
  EXPECT_FALSE(resp.ok());
  EXPECT_EQ(w.as_a->ms().stats().issued, issued_before);
}

TEST(Fabric, IcmpErrorsAuthenticatedByRouterIdentity) {
  // BR-originated ICMP (packet-too-big) carries a valid MAC under the
  // router's own kHA — network feedback is attributable too (§VIII-B).
  Internet net{89};
  AutonomousSystem::Config cfg;
  cfg.aid = 100;
  cfg.name = "A";
  cfg.br.mtu = 200;
  auto& as_a = net.add_as(std::move(cfg));
  auto& as_b = net.add_as(300, "B");
  net.link(100, 300, 1000);
  host::Host& a = as_a.add_host("a");
  host::Host& b = as_b.add_host("b");
  ASSERT_TRUE(provision_ephids(a, net.loop(), 1).ok());
  ASSERT_TRUE(provision_ephids(b, net.loop(), 1).ok());

  int icmp_count = 0;
  a.set_icmp_handler([&](const core::Endpoint&, const core::IcmpMessage& m) {
    if (m.type == core::IcmpType::packet_too_big) ++icmp_count;
  });
  auto sid = a.connect(b.pool().entries().front()->cert, {},
                       [](Result<std::uint64_t>) {});
  net.run();
  (void)a.send_data(*sid, Bytes(400, 'x'));
  net.run();
  EXPECT_EQ(icmp_count, 1);
  EXPECT_EQ(as_a.br().stats().icmp_sent, 1u);
}

TEST(Fabric, RunIsDeterministicPerSeed) {
  // Two identically-seeded worlds produce identical stats.
  auto run_world = [](std::uint64_t seed) {
    Internet net{seed};
    auto& as_a = net.add_as(100, "A");
    auto& as_b = net.add_as(300, "B");
    net.link(100, 300, 1000);
    host::Host& a = as_a.add_host("a");
    host::Host& b = as_b.add_host("b");
    (void)provision_ephids(a, net.loop(), 2);
    (void)provision_ephids(b, net.loop(), 2);
    auto sid = a.connect(b.pool().entries().front()->cert, {},
                         [](Result<std::uint64_t>) {});
    for (int i = 0; i < 10; ++i) (void)a.send_data(*sid, to_bytes("x"));
    net.run();
    return std::tuple{a.stats().packets_sent, b.stats().packets_received,
                      as_a.br().stats().forwarded_out,
                      a.pool().entries().front()->cert.ephid.hex()};
  };
  EXPECT_EQ(run_world(1234), run_world(1234));
  EXPECT_NE(std::get<3>(run_world(1234)), std::get<3>(run_world(1235)));
}

}  // namespace
}  // namespace apna
