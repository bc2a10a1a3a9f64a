// Parser robustness: every wire format must reject truncations and survive
// arbitrary byte corruption without crashing (malformed input is attacker
// controlled — §II adversaries inject arbitrary control and data messages).
// Control messages go through core::decode_msg<M>, the strict decoder that
// packet payloads, journal replay and snapshot loads all use.
#include <gtest/gtest.h>

#include <functional>

#include "core/messages.h"
#include "crypto/rng.h"
#include "msg_bytes.h"
#include "wire/apna_header.h"
#include "wire/ipv4.h"

namespace apna {
namespace {

crypto::ChaChaRng& rng() {
  static crypto::ChaChaRng r(20'26);
  return r;
}

core::EphIdCertificate sample_cert() {
  core::EphIdCertificate c;
  rng().fill(MutByteSpan(c.ephid.bytes.data(), 16));
  c.exp_time = 12345;
  c.pub = core::EphIdKeyPair::generate(rng()).pub;
  c.aid = 64512;
  rng().fill(MutByteSpan(c.aa_ephid.bytes.data(), 16));
  c.flags = core::kCertReceiveOnly;
  rng().fill(MutByteSpan(c.sig.data(), 64));
  return c;
}

/// A named serializer/parser pair under test.
struct Format {
  const char* name;
  std::function<Bytes()> make;
  std::function<bool(ByteSpan)> parses;  // returns ok-ness, must not crash
};

/// A control message under test: its one encoder, and decode_msg<M>.
template <class M>
Format control(const char* name, std::function<M()> make) {
  return {name, [make] { return test::encoded(make()); },
          [](ByteSpan d) { return core::decode_msg<M>(d).ok(); }};
}

std::vector<Format> formats() {
  std::vector<Format> out;
  out.push_back({"Packet",
                 [] {
                   wire::Packet p;
                   p.src_aid = 1;
                   p.dst_aid = 2;
                   p.set_nonce(7);
                   p.stamp_path(100);
                   p.payload = rng().bytes(33);
                   return p.serialize();
                 },
                 [](ByteSpan d) { return wire::Packet::parse(d).ok(); }});
  out.push_back(control<core::EphIdCertificate>("Certificate", sample_cert));
  out.push_back(control<core::BootstrapRequest>("BootstrapRequest", [] {
    core::BootstrapRequest m;
    m.subscriber_id = 1;
    m.credential = rng().bytes(10);
    m.host_pub = crypto::X25519KeyPair::generate(rng()).pub;
    return m;
  }));
  out.push_back(control<core::BootstrapResponse>("BootstrapResponse", [] {
    core::BootstrapResponse m;
    m.hid = 7;
    rng().fill(MutByteSpan(m.ctrl_ephid.bytes.data(), 16));
    m.ctrl_exp_time = 99;
    rng().fill(MutByteSpan(m.id_info_sig.data(), 64));
    m.ms_cert = sample_cert();
    m.dns_cert = sample_cert();
    m.aid = 64512;
    return m;
  }));
  out.push_back(control<core::EphIdRequest>("EphIdRequest", [] {
    core::EphIdRequest m;
    m.ephid_pub = core::EphIdKeyPair::generate(rng()).pub;
    return m;
  }));
  out.push_back(control<core::EphIdResponse>("EphIdResponse", [] {
    core::EphIdResponse m;
    m.cert = sample_cert();
    return m;
  }));
  out.push_back(control<core::HandshakeInit>("HandshakeInit", [] {
    core::HandshakeInit m;
    m.client_cert = sample_cert();
    m.client_nonce = 5;
    m.early_data = rng().bytes(20);
    return m;
  }));
  out.push_back(control<core::HandshakeResponse>("HandshakeResponse", [] {
    core::HandshakeResponse m;
    m.serving_cert = sample_cert();
    m.server_nonce = 6;
    return m;
  }));
  out.push_back(control<core::DnsQuery>("DnsQuery", [] {
    core::DnsQuery q;
    q.name = "robustness.example";
    return q;
  }));
  out.push_back(control<core::DnsResponse>("DnsResponse", [] {
    core::DnsResponse m;
    m.status = 0;
    core::DnsRecord rec;
    rec.name = "x.example";
    rec.cert = sample_cert();
    rng().fill(MutByteSpan(rec.sig.data(), 64));
    m.record = rec;
    return m;
  }));
  out.push_back(control<core::DnsRecord>("DnsRecord", [] {
    core::DnsRecord m;
    m.name = "rec.example";
    m.cert = sample_cert();
    m.ipv4 = 0x0a000001;
    rng().fill(MutByteSpan(m.sig.data(), 64));
    return m;
  }));
  out.push_back(control<core::DnsPublish>("DnsPublish", [] {
    core::DnsPublish m;
    m.name = "pub.example";
    m.cert = sample_cert();
    return m;
  }));
  out.push_back(control<core::ShutoffRequest>("ShutoffRequest", [] {
    core::ShutoffRequest m;
    m.offending_packet = rng().bytes(80);
    rng().fill(MutByteSpan(m.sig.data(), 64));
    m.dst_cert = sample_cert();
    return m;
  }));
  out.push_back(control<core::EphIdRevokeRequest>("EphIdRevokeRequest", [] {
    core::EphIdRevokeRequest m;
    rng().fill(MutByteSpan(m.ephid.bytes.data(), 16));
    rng().fill(MutByteSpan(m.sig.data(), 64));
    m.cert = sample_cert();
    return m;
  }));
  out.push_back(control<core::ShutoffResponse>("ShutoffResponse", [] {
    core::ShutoffResponse m;
    m.status = 3;
    return m;
  }));
  out.push_back(control<core::IcmpMessage>("IcmpMessage", [] {
    core::IcmpMessage m;
    m.type = core::IcmpType::echo_request;
    m.data = rng().bytes(24);
    return m;
  }));
  out.push_back({"Ipv4Packet",
                 [] {
                   wire::Ipv4Packet p;
                   p.hdr.src = 1;
                   p.hdr.dst = 2;
                   p.hdr.proto = wire::IpProto::udp;
                   p.src_port = 3;
                   p.dst_port = 4;
                   p.payload = rng().bytes(30);
                   return p.serialize();
                 },
                 [](ByteSpan d) { return wire::Ipv4Packet::parse(d).ok(); }});
  out.push_back({"GreApnaPacket",
                 [] {
                   wire::GreApnaPacket g;
                   g.outer.src = 1;
                   g.outer.dst = 2;
                   g.apna.src_aid = 3;
                   g.apna.dst_aid = 4;
                   g.apna.payload = rng().bytes(25);
                   return g.serialize();
                 },
                 [](ByteSpan d) {
                   return wire::GreApnaPacket::parse(d).ok();
                 }});
  return out;
}

TEST(Robustness, WellFormedInputsParse) {
  for (const auto& f : formats()) {
    const Bytes wire_bytes = f.make();
    EXPECT_TRUE(f.parses(wire_bytes)) << f.name;
  }
}

TEST(Robustness, EveryTruncationHandledWithoutCrash) {
  for (const auto& f : formats()) {
    const Bytes wire_bytes = f.make();
    for (std::size_t len = 0; len < wire_bytes.size(); ++len) {
      // Must return (not crash); truncations of fixed-layout formats must
      // not parse. (Some variable formats tolerate truncation that lands
      // on a field boundary; we only demand memory safety + a decision.)
      (void)f.parses(ByteSpan(wire_bytes.data(), len));
    }
    // The empty input never parses.
    EXPECT_FALSE(f.parses({})) << f.name;
  }
}

TEST(Robustness, RandomCorruptionNeverCrashes) {
  for (const auto& f : formats()) {
    Bytes wire_bytes = f.make();
    for (int trial = 0; trial < 200; ++trial) {
      Bytes bad = wire_bytes;
      const std::size_t flips = 1 + rng().uniform(5);
      for (std::size_t i = 0; i < flips; ++i)
        bad[rng().uniform(bad.size())] ^=
            static_cast<std::uint8_t>(1 + rng().uniform(255));
      (void)f.parses(bad);  // decision without UB is the requirement
    }
  }
}

TEST(Robustness, RandomGarbageNeverCrashes) {
  for (const auto& f : formats()) {
    for (int trial = 0; trial < 100; ++trial) {
      const Bytes garbage = rng().bytes(rng().uniform(512));
      (void)f.parses(garbage);
    }
  }
}

TEST(Robustness, LengthFieldLiesRejected) {
  // A Packet whose payload-length field claims more than is present.
  wire::Packet p;
  p.src_aid = 1;
  p.dst_aid = 2;
  p.payload = rng().bytes(40);
  Bytes wire_bytes = p.serialize();
  store_be16(wire_bytes.data() + 50, 2000);  // length field in the extension
  EXPECT_FALSE(wire::Packet::parse(wire_bytes).ok());
  store_be16(wire_bytes.data() + 50, 10);  // shorter than actual → trailing
  EXPECT_FALSE(wire::Packet::parse(wire_bytes).ok());
}

}  // namespace
}  // namespace apna
