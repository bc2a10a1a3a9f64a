// Border-router tests: every abort arm of the Fig 4 pipelines, transit
// behaviour, MTU/ICMP feedback (every §VIII-B arm, decoded and
// MAC-verified), and the baseline mode.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/packet_auth.h"
#include "router/border_router.h"

namespace apna::router {
namespace {

struct BrFixture {
  crypto::ChaChaRng rng{31337};
  core::AsState as{64512, core::AsSecrets::generate(rng)};
  core::ExpTime now = 1'700'000'000;

  // Captured forwarding actions (owned copies of what the BR moved out).
  std::vector<wire::PacketBuf> external;
  std::vector<std::pair<core::Hid, wire::PacketBuf>> internal;
  bool external_fails = false;
  bool internal_fails = false;

  std::unique_ptr<BorderRouter> br;

  core::Hid host_hid = 7;
  core::HostAsKeys host_keys;

  BrFixture() {
    crypto::SharedSecret seed{};
    rng.fill(MutByteSpan(seed.data(), 32));
    host_keys = core::HostAsKeys::derive(seed);
    core::HostRecord rec;
    rec.hid = host_hid;
    rec.keys = host_keys;
    as.host_db.upsert(rec);

    BorderRouter::Callbacks cb;
    cb.send_external = [this](wire::PacketBuf p) -> Result<void> {
      if (external_fails) return Result<void>(Errc::no_route, "injected");
      external.push_back(std::move(p));
      return Result<void>::success();
    };
    cb.deliver_internal = [this](core::Hid hid,
                                 wire::PacketBuf p) -> Result<void> {
      if (internal_fails) return Result<void>(Errc::unknown_host, "injected");
      internal.emplace_back(hid, std::move(p));
      return Result<void>::success();
    };
    cb.now = [this] { return now; };
    br = std::make_unique<BorderRouter>(as, std::move(cb));
  }

  /// Gives the router its own EphID and MAC key, so it can emit ICMP.
  RouterIdentity install_identity() {
    RouterIdentity rid;
    rid.aid = as.aid;
    rid.ephid = make_ephid(99, now + 900);
    crypto::SharedSecret s{};
    rng.fill(MutByteSpan(s.data(), 32));
    rid.mac_key = core::HostAsKeys::derive(s).mac;
    br->set_identity(rid);
    return rid;
  }

  core::EphId make_ephid(core::Hid hid, core::ExpTime exp) {
    return as.codec.issue(hid, exp, rng);
  }

  wire::Packet outgoing_packet(const core::EphId& src) {
    wire::Packet pkt;
    pkt.src_aid = as.aid;
    pkt.src_ephid = src.bytes;
    pkt.dst_aid = 64513;
    rng.fill(MutByteSpan(pkt.dst_ephid.data(), 16));
    pkt.proto = wire::NextProto::data;
    pkt.payload = rng.bytes(100);
    core::stamp_packet_mac(crypto::AesCmac(ByteSpan(host_keys.mac.data(), 16)),
                           pkt);
    return pkt;
  }

  wire::Packet incoming_packet(const core::EphId& dst) {
    wire::Packet pkt;
    pkt.src_aid = 64513;
    rng.fill(MutByteSpan(pkt.src_ephid.data(), 16));
    pkt.dst_aid = as.aid;
    pkt.dst_ephid = dst.bytes;
    pkt.proto = wire::NextProto::data;
    pkt.payload = rng.bytes(100);
    return pkt;
  }
};

// ---- Outgoing pipeline (Fig 4 bottom) ------------------------------------------

TEST(BorderRouterOut, ValidPacketForwarded) {
  BrFixture f;
  const auto src = f.make_ephid(f.host_hid, f.now + 900);
  f.br->on_outgoing(f.outgoing_packet(src).seal());
  EXPECT_EQ(f.br->stats().forwarded_out, 1u);
  EXPECT_EQ(f.external.size(), 1u);
  EXPECT_EQ(f.br->stats().total_drops(), 0u);
}

TEST(BorderRouterOut, ExpiredSourceEphIdDropped) {
  BrFixture f;
  const auto src = f.make_ephid(f.host_hid, f.now - 1);
  f.br->on_outgoing(f.outgoing_packet(src).seal());
  EXPECT_EQ(f.br->stats().drop_expired, 1u);
  EXPECT_TRUE(f.external.empty());
}

TEST(BorderRouterOut, RevokedEphIdDropped) {
  BrFixture f;
  const auto src = f.make_ephid(f.host_hid, f.now + 900);
  f.as.revoked.revoke_ephid(src, f.now + 900, f.host_hid);
  f.br->on_outgoing(f.outgoing_packet(src).seal());
  EXPECT_EQ(f.br->stats().drop_revoked, 1u);
}

TEST(BorderRouterOut, RevokedHidDropped) {
  BrFixture f;
  const auto src = f.make_ephid(f.host_hid, f.now + 900);
  f.as.revoked.revoke_hid(f.host_hid);
  f.br->on_outgoing(f.outgoing_packet(src).seal());
  EXPECT_EQ(f.br->stats().drop_revoked, 1u);
}

TEST(BorderRouterOut, UnknownHidDropped) {
  BrFixture f;
  const auto src = f.make_ephid(999, f.now + 900);  // HID not in host_info
  auto pkt = f.outgoing_packet(src);
  f.br->on_outgoing(pkt.seal());
  EXPECT_EQ(f.br->stats().drop_unknown_host, 1u);
}

TEST(BorderRouterOut, BadMacDropped) {
  // EphID spoofing (§VI-A): valid EphID but no kHA → MAC fails.
  BrFixture f;
  const auto src = f.make_ephid(f.host_hid, f.now + 900);
  auto pkt = f.outgoing_packet(src);
  pkt.mac[0] ^= 1;
  f.br->on_outgoing(pkt.seal());
  EXPECT_EQ(f.br->stats().drop_bad_mac, 1u);

  // Also: MAC computed with a DIFFERENT host's key.
  crypto::SharedSecret other_seed{};
  f.rng.fill(MutByteSpan(other_seed.data(), 32));
  const auto other_keys = core::HostAsKeys::derive(other_seed);
  auto pkt2 = f.outgoing_packet(src);
  core::stamp_packet_mac(crypto::AesCmac(ByteSpan(other_keys.mac.data(), 16)),
                         pkt2);
  f.br->on_outgoing(pkt2.seal());
  EXPECT_EQ(f.br->stats().drop_bad_mac, 2u);
}

TEST(BorderRouterOut, ForgedEphIdDropped) {
  BrFixture f;
  core::EphId forged;
  f.rng.fill(MutByteSpan(forged.bytes.data(), 16));
  f.br->on_outgoing(f.outgoing_packet(forged).seal());
  EXPECT_EQ(f.br->stats().drop_bad_ephid, 1u);
}

TEST(BorderRouterOut, PayloadTamperAfterMacDropped) {
  BrFixture f;
  const auto src = f.make_ephid(f.host_hid, f.now + 900);
  auto pkt = f.outgoing_packet(src);
  pkt.payload[5] ^= 1;  // on-path modification inside the AS
  f.br->on_outgoing(pkt.seal());
  EXPECT_EQ(f.br->stats().drop_bad_mac, 1u);
}

TEST(BorderRouterOut, OversizedPacketGetsPacketTooBig) {
  BrFixture f;
  BorderRouter::Config cfg;
  cfg.mtu = 256;
  BorderRouter::Callbacks cb;
  std::vector<wire::PacketBuf> external;
  std::vector<std::pair<core::Hid, wire::PacketBuf>> internal;
  cb.send_external = [&](wire::PacketBuf p) -> Result<void> {
    external.push_back(std::move(p));
    return Result<void>::success();
  };
  cb.deliver_internal = [&](core::Hid h, wire::PacketBuf p) -> Result<void> {
    internal.emplace_back(h, std::move(p));
    return Result<void>::success();
  };
  cb.now = [&] { return f.now; };
  BorderRouter br(f.as, std::move(cb), cfg);

  // Router identity so it can emit ICMP.
  RouterIdentity rid;
  rid.aid = f.as.aid;
  rid.ephid = f.make_ephid(99, f.now + 900);
  crypto::SharedSecret s{};
  f.rng.fill(MutByteSpan(s.data(), 32));
  rid.mac_key = core::HostAsKeys::derive(s).mac;
  br.set_identity(rid);

  const auto src = f.make_ephid(f.host_hid, f.now + 900);
  auto pkt = f.outgoing_packet(src);
  pkt.payload = f.rng.bytes(500);  // exceed MTU 256
  core::stamp_packet_mac(
      crypto::AesCmac(ByteSpan(f.host_keys.mac.data(), 16)), pkt);
  br.on_outgoing(pkt.seal());
  EXPECT_EQ(br.stats().drop_too_big, 1u);
  EXPECT_EQ(br.stats().icmp_sent, 1u);
  // Feedback went back into the local AS toward the source host.
  ASSERT_EQ(internal.size(), 1u);
  EXPECT_EQ(internal[0].first, f.host_hid);
  auto icmp =
      core::decode_msg<core::IcmpMessage>(internal[0].second.view().payload());
  ASSERT_TRUE(icmp.ok());
  EXPECT_EQ(icmp->type, core::IcmpType::packet_too_big);
  EXPECT_EQ(icmp->code, 256u);
}

// ---- Incoming pipeline (Fig 4 top) ------------------------------------------------

TEST(BorderRouterIn, ValidPacketDelivered) {
  BrFixture f;
  const auto dst = f.make_ephid(f.host_hid, f.now + 900);
  f.br->on_ingress(f.incoming_packet(dst).seal());
  EXPECT_EQ(f.br->stats().delivered_in, 1u);
  ASSERT_EQ(f.internal.size(), 1u);
  EXPECT_EQ(f.internal[0].first, f.host_hid);
}

TEST(BorderRouterIn, ExpiredDstDropped) {
  BrFixture f;
  const auto dst = f.make_ephid(f.host_hid, f.now - 10);
  f.br->on_ingress(f.incoming_packet(dst).seal());
  EXPECT_EQ(f.br->stats().drop_expired, 1u);
  EXPECT_TRUE(f.internal.empty());
}

TEST(BorderRouterIn, RevokedDstDropped) {
  BrFixture f;
  const auto dst = f.make_ephid(f.host_hid, f.now + 900);
  f.as.revoked.revoke_ephid(dst, f.now + 900, f.host_hid);
  f.br->on_ingress(f.incoming_packet(dst).seal());
  EXPECT_EQ(f.br->stats().drop_revoked, 1u);
}

TEST(BorderRouterIn, UnknownDstHidDropped) {
  BrFixture f;
  const auto dst = f.make_ephid(424242, f.now + 900);
  f.br->on_ingress(f.incoming_packet(dst).seal());
  EXPECT_EQ(f.br->stats().drop_unknown_host, 1u);
}

TEST(BorderRouterIn, GarbageDstEphIdDropped) {
  BrFixture f;
  core::EphId forged;
  f.rng.fill(MutByteSpan(forged.bytes.data(), 16));
  f.br->on_ingress(f.incoming_packet(forged).seal());
  EXPECT_EQ(f.br->stats().drop_bad_ephid, 1u);
}

TEST(BorderRouterIn, TransitForwardedWithoutCrypto) {
  // "Transit ASes do not perform additional operations" — a packet for a
  // third AS passes through untouched even with a garbage EphID.
  BrFixture f;
  wire::Packet pkt;
  pkt.src_aid = 64513;
  pkt.dst_aid = 64999;  // not ours
  f.rng.fill(MutByteSpan(pkt.src_ephid.data(), 16));
  f.rng.fill(MutByteSpan(pkt.dst_ephid.data(), 16));
  pkt.payload = f.rng.bytes(10);
  f.br->on_ingress(pkt.seal());
  EXPECT_EQ(f.br->stats().transited, 1u);
  ASSERT_EQ(f.external.size(), 1u);
  EXPECT_EQ(f.external[0].view().dst_aid(), 64999u);
}

TEST(BorderRouterIn, TransitNoRouteCounted) {
  BrFixture f;
  f.external_fails = true;
  wire::Packet pkt;
  pkt.src_aid = 64513;
  pkt.dst_aid = 64999;
  f.br->on_ingress(pkt.seal());
  EXPECT_EQ(f.br->stats().drop_no_route, 1u);
}

// ---- ICMP feedback (§VIII-B) ----------------------------------------------------------

/// Checks one emitted ICMP packet: sent from the router's EphID to the
/// offender's source, MAC'd under the router identity's key like any host
/// packet, carrying `type`/`code` and the offender's 48-byte header.
void expect_icmp(const wire::PacketBuf& icmp, const RouterIdentity& rid,
                 const wire::PacketView& offending, core::IcmpType type,
                 std::uint32_t code) {
  const wire::PacketView& v = icmp.view();
  EXPECT_EQ(v.proto(), wire::NextProto::icmp);
  EXPECT_EQ(v.src_aid(), rid.aid);
  EXPECT_EQ(v.src_ephid(), rid.ephid.bytes);
  EXPECT_EQ(v.dst_aid(), offending.src_aid());
  EXPECT_EQ(v.dst_ephid(), offending.src_ephid());
  EXPECT_TRUE(core::verify_packet_mac(
      crypto::AesCmac(ByteSpan(rid.mac_key.data(), 16)), v));
  auto msg = core::decode_msg<core::IcmpMessage>(v.payload());
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->type, type);
  EXPECT_EQ(msg->code, code);
  ASSERT_EQ(msg->data.size(), wire::kApnaHeaderSize);
  EXPECT_TRUE(std::equal(msg->data.begin(), msg->data.end(),
                         offending.bytes().begin()));
}

TEST(BorderRouterIcmp, FailedSendGetsDestUnreachable0ViaIngress) {
  // The egress send fails: the local sender hears about it through the
  // ingress pipeline (its source EphID is checked like any destination).
  BrFixture f;
  const RouterIdentity rid = f.install_identity();
  f.external_fails = true;
  const auto src = f.make_ephid(f.host_hid, f.now + 900);
  const wire::PacketBuf pkt = f.outgoing_packet(src).seal();
  f.br->on_outgoing(wire::PacketBuf::copy_of(pkt.view()));
  EXPECT_EQ(f.br->stats().drop_no_route, 1u);
  EXPECT_EQ(f.br->stats().forwarded_out, 0u);
  EXPECT_EQ(f.br->stats().icmp_sent, 1u);
  EXPECT_EQ(f.br->stats().delivered_in, 1u);
  ASSERT_EQ(f.internal.size(), 1u);
  EXPECT_EQ(f.internal[0].first, f.host_hid);
  expect_icmp(f.internal[0].second, rid, pkt.view(),
              core::IcmpType::dest_unreachable, 0);
}

TEST(BorderRouterIcmp, LocalIngressDropGetsDestUnreachable1External) {
  // An expired destination EphID from a remote AS: the feedback leaves the
  // AS towards the remote sender.
  BrFixture f;
  const RouterIdentity rid = f.install_identity();
  const auto dst = f.make_ephid(f.host_hid, f.now - 10);
  const wire::PacketBuf pkt = f.incoming_packet(dst).seal();
  f.br->on_ingress(wire::PacketBuf::copy_of(pkt.view()));
  EXPECT_EQ(f.br->stats().drop_expired, 1u);
  EXPECT_EQ(f.br->stats().icmp_sent, 1u);
  EXPECT_TRUE(f.internal.empty());
  ASSERT_EQ(f.external.size(), 1u);
  expect_icmp(f.external[0], rid, pkt.view(),
              core::IcmpType::dest_unreachable, 1);
}

TEST(BorderRouterIcmp, FailedDeliveryGetsDestUnreachable2External) {
  BrFixture f;
  const RouterIdentity rid = f.install_identity();
  f.internal_fails = true;
  const auto dst = f.make_ephid(f.host_hid, f.now + 900);
  const wire::PacketBuf pkt = f.incoming_packet(dst).seal();
  f.br->on_ingress(wire::PacketBuf::copy_of(pkt.view()));
  EXPECT_EQ(f.br->stats().drop_unknown_host, 1u);
  EXPECT_EQ(f.br->stats().delivered_in, 0u);
  EXPECT_EQ(f.br->stats().icmp_sent, 1u);
  ASSERT_EQ(f.external.size(), 1u);
  expect_icmp(f.external[0], rid, pkt.view(),
              core::IcmpType::dest_unreachable, 2);
}

TEST(BorderRouterIcmp, NoFeedbackAboutAnIcmpPacket) {
  // No ICMP storms: an offending ICMP packet is dropped silently on every
  // arm that would otherwise answer it.
  BrFixture f;
  f.install_identity();
  wire::Packet in = f.incoming_packet(f.make_ephid(f.host_hid, f.now - 10));
  in.proto = wire::NextProto::icmp;
  f.br->on_ingress(in.seal());
  EXPECT_EQ(f.br->stats().drop_expired, 1u);

  f.internal_fails = true;
  in = f.incoming_packet(f.make_ephid(f.host_hid, f.now + 900));
  in.proto = wire::NextProto::icmp;
  f.br->on_ingress(in.seal());
  EXPECT_EQ(f.br->stats().drop_unknown_host, 1u);

  f.external_fails = true;
  wire::Packet out =
      f.outgoing_packet(f.make_ephid(f.host_hid, f.now + 900));
  out.proto = wire::NextProto::icmp;
  core::stamp_packet_mac(
      crypto::AesCmac(ByteSpan(f.host_keys.mac.data(), 16)), out);
  f.br->on_outgoing(out.seal());
  EXPECT_EQ(f.br->stats().drop_no_route, 1u);

  EXPECT_EQ(f.br->stats().icmp_sent, 0u);
  EXPECT_TRUE(f.external.empty());
  EXPECT_TRUE(f.internal.empty());
}

TEST(BorderRouterIcmp, NoFeedbackWithoutAnIdentity) {
  // The fixture's router has no identity: every feedback arm stays silent.
  BrFixture f;
  f.br->on_ingress(
      f.incoming_packet(f.make_ephid(f.host_hid, f.now - 10)).seal());
  f.internal_fails = true;
  f.br->on_ingress(
      f.incoming_packet(f.make_ephid(f.host_hid, f.now + 900)).seal());
  wire::Packet big =
      f.outgoing_packet(f.make_ephid(f.host_hid, f.now + 900));
  big.payload = f.rng.bytes(f.br->config().mtu);
  f.br->on_outgoing(big.seal());
  f.external_fails = true;
  f.br->on_outgoing(
      f.outgoing_packet(f.make_ephid(f.host_hid, f.now + 900)).seal());
  EXPECT_EQ(f.br->stats().drop_too_big, 1u);
  EXPECT_EQ(f.br->stats().total_drops(), 4u);
  EXPECT_EQ(f.br->stats().icmp_sent, 0u);
  EXPECT_TRUE(f.external.empty());
  EXPECT_TRUE(f.internal.empty());
}

// ---- Baseline mode (E11) -------------------------------------------------------------

TEST(BorderRouterBaseline, ForwardsWithoutChecks) {
  BrFixture f;
  BorderRouter::Config cfg;
  cfg.mode = BorderRouter::Mode::baseline;
  BorderRouter::Callbacks cb;
  std::vector<std::pair<core::Hid, wire::PacketBuf>> internal;
  cb.send_external = [](wire::PacketBuf) { return Result<void>::success(); };
  cb.deliver_internal = [&](core::Hid h, wire::PacketBuf p) -> Result<void> {
    internal.emplace_back(h, std::move(p));
    return Result<void>::success();
  };
  cb.now = [&] { return f.now; };
  BorderRouter br(f.as, std::move(cb), cfg);

  // Expired EphID + bad MAC still sails through the baseline.
  const auto src = f.make_ephid(f.host_hid, f.now - 1);
  auto pkt = f.outgoing_packet(src);
  pkt.mac[0] ^= 1;
  br.on_outgoing(pkt.seal());
  EXPECT_EQ(br.stats().forwarded_out, 1u);

  // Ingress delivers by raw bytes.
  wire::Packet in;
  in.src_aid = 64513;
  in.dst_aid = f.as.aid;
  store_be32(in.dst_ephid.data(), 7);
  br.on_ingress(in.seal());
  ASSERT_EQ(internal.size(), 1u);
  EXPECT_EQ(internal[0].first, 7u);
}

// ---- Pure pipelines (used by bench E2) -----------------------------------------------

TEST(BorderRouterChecks, CheckFunctionsAreSideEffectFree) {
  BrFixture f;
  const auto src = f.make_ephid(f.host_hid, f.now + 900);
  const auto pkt = f.outgoing_packet(src).seal();
  for (int i = 0; i < 3; ++i)
    EXPECT_TRUE(f.br->check_outgoing(pkt.view(), f.now).ok());
  const auto dst = f.make_ephid(f.host_hid, f.now + 900);
  const auto in = f.incoming_packet(dst).seal();
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(f.br->check_incoming(in.view(), f.now).value(), f.host_hid);
  EXPECT_EQ(f.br->stats().forwarded_out, 0u);
  EXPECT_EQ(f.br->stats().delivered_in, 0u);
}

}  // namespace
}  // namespace apna::router
