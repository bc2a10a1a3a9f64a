// Wire-format tests: codec primitives, the Fig 7 header, IPv4/GRE (Fig 9).
#include <gtest/gtest.h>

#include "core/packet_auth.h"
#include "crypto/rng.h"
#include "util/hex.h"
#include "wire/apna_header.h"
#include "wire/codec.h"
#include "wire/ipv4.h"

namespace apna::wire {
namespace {

// ---- Writer/Reader ----------------------------------------------------------

TEST(Codec, ScalarRoundtrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  Reader r(w.bytes());
  EXPECT_EQ(r.u8().value(), 0xab);
  EXPECT_EQ(r.u16().value(), 0x1234);
  EXPECT_EQ(r.u32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.u64().value(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.done());
}

TEST(Codec, VarFieldsRoundtrip) {
  Writer w;
  w.var(to_bytes("hello"));
  w.str("world");
  w.var({});
  Reader r(w.bytes());
  EXPECT_EQ(to_string(r.var().value()), "hello");
  EXPECT_EQ(r.str().value(), "world");
  EXPECT_EQ(r.var().value().size(), 0u);
  EXPECT_TRUE(r.done());
}

TEST(Codec, ShortReadsReportMalformed) {
  Writer w;
  w.u16(0x0102);
  Reader r(w.bytes());
  EXPECT_TRUE(r.u8().ok());
  EXPECT_TRUE(r.u8().ok());
  EXPECT_EQ(r.u8().code(), Errc::malformed);
  EXPECT_EQ(r.u32().code(), Errc::malformed);
  EXPECT_EQ(r.raw(1).code(), Errc::malformed);
}

TEST(Codec, VarLengthExceedingBufferRejected) {
  Bytes bad = {0xff, 0xff, 0x01};  // claims 65535-byte field, has 1 byte
  Reader r(bad);
  EXPECT_EQ(r.var().code(), Errc::malformed);
}

TEST(Codec, FixedArrayRoundtrip) {
  std::array<std::uint8_t, 16> a;
  for (int i = 0; i < 16; ++i) a[i] = static_cast<std::uint8_t>(i);
  Writer w;
  w.raw(a);
  Reader r(w.bytes());
  EXPECT_EQ(r.arr<16>().value(), a);
}

// ---- APNA header (Fig 7) -----------------------------------------------------

Packet sample_packet(crypto::Rng& rng, std::size_t payload_len) {
  Packet p;
  p.src_aid = 0x0101;
  p.dst_aid = 0x0202;
  rng.fill(MutByteSpan(p.src_ephid.data(), 16));
  rng.fill(MutByteSpan(p.dst_ephid.data(), 16));
  rng.fill(MutByteSpan(p.mac.data(), 8));
  p.proto = NextProto::data;
  p.payload = rng.bytes(payload_len);
  return p;
}

TEST(ApnaHeader, HeaderIsExactly48Bytes) {
  // §V-B1: "The fields in the packet header sum up to 48 B."
  crypto::ChaChaRng rng(1);
  Packet p = sample_packet(rng, 0);
  const Bytes wire = p.serialize();
  // 48 B header + 4 B extension (proto, flags, length), no payload.
  EXPECT_EQ(wire.size(), kApnaHeaderSize + 4u);
  EXPECT_EQ(kApnaHeaderSize, 48u);
}

TEST(ApnaHeader, FieldOrderMatchesFig7) {
  crypto::ChaChaRng rng(2);
  Packet p = sample_packet(rng, 0);
  const Bytes wire = p.serialize();
  EXPECT_EQ(load_be32(wire.data()), p.src_aid);                    // AID_S
  EXPECT_TRUE(std::equal(p.src_ephid.begin(), p.src_ephid.end(),
                         wire.begin() + 4));                       // EphID_s
  EXPECT_TRUE(std::equal(p.dst_ephid.begin(), p.dst_ephid.end(),
                         wire.begin() + 20));                      // EphID_d
  EXPECT_EQ(load_be32(wire.data() + 36), p.dst_aid);               // AID_D
  EXPECT_TRUE(std::equal(p.mac.begin(), p.mac.end(), wire.begin() + 40));
}

TEST(ApnaHeader, RoundtripWithPayloadAndNonce) {
  crypto::ChaChaRng rng(3);
  for (std::size_t len : {0u, 1u, 100u, 1470u}) {
    Packet p = sample_packet(rng, len);
    p.set_nonce(0x1122334455667788ULL);
    auto parsed = Packet::parse(p.serialize());
    ASSERT_TRUE(parsed.ok()) << len;
    EXPECT_EQ(parsed->src_aid, p.src_aid);
    EXPECT_EQ(parsed->dst_aid, p.dst_aid);
    EXPECT_EQ(parsed->src_ephid, p.src_ephid);
    EXPECT_EQ(parsed->dst_ephid, p.dst_ephid);
    EXPECT_EQ(parsed->mac, p.mac);
    EXPECT_EQ(parsed->proto, p.proto);
    EXPECT_TRUE(parsed->has_nonce());
    EXPECT_EQ(parsed->nonce, p.nonce);
    EXPECT_EQ(hex_encode(parsed->payload), hex_encode(p.payload));
  }
}

TEST(ApnaHeader, MacInputExcludesMacField) {
  crypto::ChaChaRng rng(4);
  Packet p = sample_packet(rng, 32);
  const Bytes key = rng.bytes(16);
  const crypto::AesCmac cmac(key);
  const auto before = core::compute_packet_mac(cmac, p);
  p.mac[0] ^= 0xff;  // changing the MAC field must not change the MAC
  EXPECT_EQ(core::compute_packet_mac(cmac, p), before);
  p.payload[0] ^= 1;  // changing a payload byte must change it
  EXPECT_NE(core::compute_packet_mac(cmac, p), before);
}

TEST(ApnaHeader, ParseRejectsTruncationAnywhere) {
  crypto::ChaChaRng rng(5);
  Packet p = sample_packet(rng, 25);
  const Bytes wire = p.serialize();
  for (std::size_t len = 0; len < wire.size(); len += 3) {
    EXPECT_FALSE(Packet::parse(ByteSpan(wire.data(), len)).ok()) << len;
  }
}

TEST(ApnaHeader, ParseRejectsTrailingGarbage) {
  crypto::ChaChaRng rng(6);
  Packet p = sample_packet(rng, 10);
  Bytes wire = p.serialize();
  wire.push_back(0x00);
  EXPECT_EQ(Packet::parse(wire).code(), Errc::malformed);
}

TEST(ApnaHeader, ParseRejectsUnknownProto) {
  crypto::ChaChaRng rng(7);
  Packet p = sample_packet(rng, 0);
  Bytes wire = p.serialize();
  wire[48] = 0x7f;  // proto byte
  EXPECT_EQ(Packet::parse(wire).code(), Errc::malformed);
}

// ---- IPv4 / GRE (Fig 9) --------------------------------------------------------

TEST(Ipv4, HeaderChecksumValidates) {
  Ipv4Header h;
  h.src = 0x0a000001;
  h.dst = 0x0a000002;
  h.proto = IpProto::udp;
  const Bytes wire = h.serialize(100);
  EXPECT_EQ(ipv4_checksum(ByteSpan(wire.data(), 20)), 0);
  Bytes bad = wire;
  bad[12] ^= 1;  // corrupt source address
  Reader r(bad);
  EXPECT_FALSE(Ipv4Header::parse(r).ok());
}

TEST(Ipv4, PacketRoundtripWithPorts) {
  crypto::ChaChaRng rng(8);
  Ipv4Packet p;
  p.hdr.src = 0xc0a80001;
  p.hdr.dst = 0xc0a80002;
  p.hdr.proto = IpProto::tcp;
  p.src_port = 443;
  p.dst_port = 51515;
  p.payload = rng.bytes(64);
  auto parsed = Ipv4Packet::parse(p.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->hdr.src, p.hdr.src);
  EXPECT_EQ(parsed->hdr.dst, p.hdr.dst);
  EXPECT_EQ(parsed->src_port, 443);
  EXPECT_EQ(parsed->dst_port, 51515);
  EXPECT_EQ(hex_encode(parsed->payload), hex_encode(p.payload));
}

TEST(Gre, ApnaOverGreRoundtrip) {
  // Fig 9: IPv4 ‖ GRE(Protocol Type = APNA) ‖ APNA header ‖ payload.
  crypto::ChaChaRng rng(9);
  GreApnaPacket g;
  g.outer.src = 0x0a0a0a01;  // APNA router addresses (they serve as AIDs)
  g.outer.dst = 0x0a0a0a02;
  g.apna = sample_packet(rng, 50);
  const Bytes wire = g.serialize();

  // The GRE protocol-type field announces APNA.
  EXPECT_EQ(load_be16(wire.data() + kIpv4HeaderSize + 2), kGreProtoApna);

  auto parsed = GreApnaPacket::parse(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->outer.src, g.outer.src);
  EXPECT_EQ(parsed->apna.src_aid, g.apna.src_aid);
  EXPECT_EQ(hex_encode(parsed->apna.payload), hex_encode(g.apna.payload));
}

TEST(Gre, RejectsNonApnaProtocolType) {
  crypto::ChaChaRng rng(10);
  GreApnaPacket g;
  g.outer.src = 1;
  g.outer.dst = 2;
  g.apna = sample_packet(rng, 0);
  Bytes wire = g.serialize();
  store_be16(wire.data() + kIpv4HeaderSize + 2, 0x0800);  // IPv4 ethertype
  EXPECT_EQ(GreApnaPacket::parse(wire).code(), Errc::malformed);
}

TEST(Gre, RejectsNonGreIpProtocol) {
  crypto::ChaChaRng rng(11);
  GreApnaPacket g;
  g.outer.src = 1;
  g.outer.dst = 2;
  g.apna = sample_packet(rng, 0);
  Bytes wire = g.serialize();
  wire[9] = static_cast<std::uint8_t>(IpProto::udp);  // proto field
  // Fix the checksum for the mutated header so only the proto check fires.
  store_be16(wire.data() + 10, 0);
  const std::uint16_t csum = ipv4_checksum(ByteSpan(wire.data(), 20));
  store_be16(wire.data() + 10, csum);
  EXPECT_EQ(GreApnaPacket::parse(wire).code(), Errc::malformed);
}

TEST(FlowKey, HashAndEquality) {
  FlowKey5 a{1, 2, 3, 4, 6};
  FlowKey5 b{1, 2, 3, 4, 6};
  FlowKey5 c{1, 2, 3, 5, 6};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(FlowKey5Hash{}(a), FlowKey5Hash{}(b));
}

}  // namespace
}  // namespace apna::wire
