// Golden wire vectors for every control-plane codec.
//
// One checked-in hex vector per wire type — the 14 control messages of
// core/messages.h, the EphID certificate, the DNS forwarding frames (ok
// and NXDOMAIN answers) and one sealed Fig 3 control payload — in the
// style of crypto_kat_test. Session data frames (§IV-D) are pinned by a
// SHA-256 digest per AEAD suite, and the payload of each journal record
// type by one vector per `emit_*` helper. The vectors are the wire format
// that journals, snapshots and scenario digests already on disk were
// written in, so a codec change that moves a single byte fails here. Each vector pins four
// things:
//   * the fixed message encodes to exactly the vector;
//   * the vector decodes back to an equal message;
//   * every strict prefix of the vector is rejected;
//   * the vector plus one trailing byte is rejected.
#include <gtest/gtest.h>

#include <iterator>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/as_persist.h"
#include "core/messages.h"
#include "core/session.h"
#include "crypto/sha2.h"
#include "dns/dns_wire.h"
#include "persist/sink.h"
#include "util/hex.h"

namespace apna {
namespace {

// ---- Fixed messages ---------------------------------------------------------

// Byte i of a field is (seed + i) mod 256: every field is distinct and
// recognisable in a hex dump.
template <std::size_t N>
std::array<std::uint8_t, N> ramp(std::uint8_t seed) {
  std::array<std::uint8_t, N> out;
  for (std::size_t i = 0; i < N; ++i)
    out[i] = static_cast<std::uint8_t>(seed + i);
  return out;
}

template <std::size_t N>
Bytes ramp_bytes(std::uint8_t seed) {
  const auto a = ramp<N>(seed);
  return Bytes(a.begin(), a.end());
}

core::EphId ephid(std::uint8_t seed) {
  core::EphId e;
  e.bytes = ramp<16>(seed);
  return e;
}

core::EphIdCertificate cert() {
  core::EphIdCertificate c;
  c.ephid = ephid(0x10);
  c.exp_time = 1'700'000'900;
  c.pub.dh = ramp<32>(0x20);
  c.pub.sig = ramp<32>(0x40);
  c.aid = 64512;
  c.aa_ephid = ephid(0x60);
  c.flags = core::kCertReceiveOnly;
  c.sig = ramp<64>(0x80);
  return c;
}

core::BootstrapRequest bootstrap_request() {
  core::BootstrapRequest m;
  m.subscriber_id = 4242;
  m.credential = to_bytes("pw-digest");
  m.host_pub = ramp<32>(0xC0);
  return m;
}

core::BootstrapResponse bootstrap_response() {
  core::BootstrapResponse m;
  m.hid = 7;
  m.ctrl_ephid = ephid(0x30);
  m.ctrl_exp_time = 1'700'086'400;
  m.id_info_sig = ramp<64>(0xD0);
  m.ms_cert = cert();
  m.ms_cert.flags = core::kCertService;
  m.dns_cert = cert();
  m.dns_cert.ephid = ephid(0x70);
  m.dns_cert.flags = core::kCertService;
  m.aid = 64512;
  m.aa_ephid = ephid(0x60);
  return m;
}

core::EphIdRequest ephid_request() {
  core::EphIdRequest m;
  m.ephid_pub.dh = ramp<32>(0x20);
  m.ephid_pub.sig = ramp<32>(0x40);
  m.flags = core::kRequestReceiveOnly;
  m.lifetime = core::EphIdLifetime::medium_term;
  m.pop_sig = ramp<64>(0x90);
  return m;
}

core::EphIdResponse ephid_response() {
  core::EphIdResponse m;
  m.cert = cert();
  return m;
}

core::HandshakeInit handshake_init() {
  core::HandshakeInit m;
  m.client_cert = cert();
  m.client_cert.flags = 0;
  m.client_nonce = 0x0123456789abcdefULL;
  m.suite = crypto::AeadSuite::aes128_ctr_cmac;
  m.early_data = to_bytes("0-rtt");
  return m;
}

core::HandshakeResponse handshake_response() {
  core::HandshakeResponse m;
  m.serving_cert = cert();
  m.server_nonce = 0xfedcba9876543210ULL;
  m.suite = crypto::AeadSuite::chacha20_poly1305;
  return m;
}

core::DnsQuery dns_query() {
  core::DnsQuery m;
  m.name = "www.example.com";
  return m;
}

core::DnsRecord dns_record() {
  core::DnsRecord m;
  m.name = "www.example.com";
  m.cert = cert();
  m.ipv4 = 0xC0000201;  // 192.0.2.1
  m.sig = ramp<64>(0xA0);
  return m;
}

core::DnsResponse dns_response() {
  core::DnsResponse m;
  m.status = 0;
  m.record = dns_record();
  return m;
}

core::DnsPublish dns_publish() {
  core::DnsPublish m;
  m.name = "www.example.com";
  m.cert = cert();
  m.ipv4 = 0xC0000201;
  return m;
}

core::ShutoffRequest shutoff_request() {
  core::ShutoffRequest m;
  m.offending_packet = ramp_bytes<24>(0x00);
  m.sig = ramp<64>(0xB0);
  m.dst_cert = cert();
  return m;
}

core::EphIdRevokeRequest revoke_request() {
  core::EphIdRevokeRequest m;
  m.ephid = ephid(0x10);
  m.sig = ramp<64>(0xB0);
  m.cert = cert();
  return m;
}

core::ShutoffResponse shutoff_response() {
  core::ShutoffResponse m;
  m.status = 9;
  return m;
}

core::IcmpMessage icmp_message() {
  core::IcmpMessage m;
  m.type = core::IcmpType::packet_too_big;
  m.code = 1280;
  m.data = ramp_bytes<16>(0xE0);
  return m;
}

dns::QueryFrame query_frame() {
  dns::QueryFrame m;
  m.id = 0x1234;
  m.name = "www.example.com";
  return m;
}

dns::ResponseFrame response_frame_ok() {
  dns::ResponseFrame m;
  m.id = 0x1234;
  m.rcode = dns::Rcode::ok;
  m.ttl = 300;
  m.name = "www.example.com";
  m.record = dns_record();
  return m;
}

dns::ResponseFrame response_frame_nxdomain() {
  dns::ResponseFrame m;
  m.id = 0x4321;
  m.rcode = dns::Rcode::nxdomain;
  m.ttl = 60;
  m.name = "missing.example.com";
  return m;
}

core::HostAsKeys control_keys() {
  core::HostAsKeys k;
  k.enc = ramp<32>(0x01);
  k.mac = ramp<16>(0x41);
  return k;
}

// ---- Vectors ----------------------------------------------------------------

constexpr std::string_view kBootstrapRequest =
    "00001092000970772d646967657374c0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0"
    "d1d2d3d4d5d6d7d8d9dadbdcdddedf";
constexpr std::string_view kBootstrapResponse =
    "00000007303132333435363738393a3b3c3d3e3f65554280d0d1d2d3d4d5d6d7"
    "d8d9dadbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7"
    "f8f9fafbfcfdfeff000102030405060708090a0b0c0d0e0f1011121314151617"
    "18191a1b1c1d1e1f6553f484202122232425262728292a2b2c2d2e2f30313233"
    "3435363738393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f50515253"
    "5455565758595a5b5c5d5e5f0000fc00606162636465666768696a6b6c6d6e6f"
    "02808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e"
    "9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbe"
    "bf707172737475767778797a7b7c7d7e7f6553f484202122232425262728292a"
    "2b2c2d2e2f303132333435363738393a3b3c3d3e3f404142434445464748494a"
    "4b4c4d4e4f505152535455565758595a5b5c5d5e5f0000fc0060616263646566"
    "6768696a6b6c6d6e6f02808182838485868788898a8b8c8d8e8f909192939495"
    "969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5"
    "b6b7b8b9babbbcbdbebf0000fc00606162636465666768696a6b6c6d6e6f";
constexpr std::string_view kEphIdRequest =
    "202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f"
    "404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f"
    "0101909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacad"
    "aeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcccd"
    "cecf";
constexpr std::string_view kEphIdResponse =
    "101112131415161718191a1b1c1d1e1f6553f484202122232425262728292a2b"
    "2c2d2e2f303132333435363738393a3b3c3d3e3f404142434445464748494a4b"
    "4c4d4e4f505152535455565758595a5b5c5d5e5f0000fc006061626364656667"
    "68696a6b6c6d6e6f01808182838485868788898a8b8c8d8e8f90919293949596"
    "9798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6"
    "b7b8b9babbbcbdbebf";
constexpr std::string_view kHandshakeInit =
    "101112131415161718191a1b1c1d1e1f6553f484202122232425262728292a2b"
    "2c2d2e2f303132333435363738393a3b3c3d3e3f404142434445464748494a4b"
    "4c4d4e4f505152535455565758595a5b5c5d5e5f0000fc006061626364656667"
    "68696a6b6c6d6e6f00808182838485868788898a8b8c8d8e8f90919293949596"
    "9798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6"
    "b7b8b9babbbcbdbebf0123456789abcdef030005302d727474";
constexpr std::string_view kHandshakeResponse =
    "101112131415161718191a1b1c1d1e1f6553f484202122232425262728292a2b"
    "2c2d2e2f303132333435363738393a3b3c3d3e3f404142434445464748494a4b"
    "4c4d4e4f505152535455565758595a5b5c5d5e5f0000fc006061626364656667"
    "68696a6b6c6d6e6f01808182838485868788898a8b8c8d8e8f90919293949596"
    "9798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6"
    "b7b8b9babbbcbdbebffedcba987654321001";
constexpr std::string_view kDnsQuery =
    "000f7777772e6578616d706c652e636f6d";
constexpr std::string_view kDnsRecord =
    "000f7777772e6578616d706c652e636f6d101112131415161718191a1b1c1d1e"
    "1f6553f484202122232425262728292a2b2c2d2e2f303132333435363738393a"
    "3b3c3d3e3f404142434445464748494a4b4c4d4e4f505152535455565758595a"
    "5b5c5d5e5f0000fc00606162636465666768696a6b6c6d6e6f01808182838485"
    "868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5"
    "a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0000201a0a1"
    "a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1"
    "c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedf";
constexpr std::string_view kDnsResponse =
    "0001000f7777772e6578616d706c652e636f6d101112131415161718191a1b1c"
    "1d1e1f6553f484202122232425262728292a2b2c2d2e2f303132333435363738"
    "393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f505152535455565758"
    "595a5b5c5d5e5f0000fc00606162636465666768696a6b6c6d6e6f0180818283"
    "8485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3"
    "a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0000201"
    "a0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebf"
    "c0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedf";
constexpr std::string_view kDnsPublish =
    "000f7777772e6578616d706c652e636f6d101112131415161718191a1b1c1d1e"
    "1f6553f484202122232425262728292a2b2c2d2e2f303132333435363738393a"
    "3b3c3d3e3f404142434445464748494a4b4c4d4e4f505152535455565758595a"
    "5b5c5d5e5f0000fc00606162636465666768696a6b6c6d6e6f01808182838485"
    "868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5"
    "a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0000201";
constexpr std::string_view kShutoffRequest =
    "0018000102030405060708090a0b0c0d0e0f1011121314151617b0b1b2b3b4b5"
    "b6b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5"
    "d6d7d8d9dadbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeef101112131415"
    "161718191a1b1c1d1e1f6553f484202122232425262728292a2b2c2d2e2f3031"
    "32333435363738393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f5051"
    "52535455565758595a5b5c5d5e5f0000fc00606162636465666768696a6b6c6d"
    "6e6f01808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c"
    "9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbc"
    "bdbebf";
constexpr std::string_view kEphIdRevokeRequest =
    "101112131415161718191a1b1c1d1e1fb0b1b2b3b4b5b6b7b8b9babbbcbdbebf"
    "c0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedf"
    "e0e1e2e3e4e5e6e7e8e9eaebecedeeef101112131415161718191a1b1c1d1e1f"
    "6553f484202122232425262728292a2b2c2d2e2f303132333435363738393a3b"
    "3c3d3e3f404142434445464748494a4b4c4d4e4f505152535455565758595a5b"
    "5c5d5e5f0000fc00606162636465666768696a6b6c6d6e6f0180818283848586"
    "8788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6"
    "a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebf";
constexpr std::string_view kShutoffResponse =
    "09";
constexpr std::string_view kIcmpMessage =
    "04000005000010e0e1e2e3e4e5e6e7e8e9eaebecedeeef";
constexpr std::string_view kCertificate =
    "101112131415161718191a1b1c1d1e1f6553f484202122232425262728292a2b"
    "2c2d2e2f303132333435363738393a3b3c3d3e3f404142434445464748494a4b"
    "4c4d4e4f505152535455565758595a5b5c5d5e5f0000fc006061626364656667"
    "68696a6b6c6d6e6f01808182838485868788898a8b8c8d8e8f90919293949596"
    "9798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6"
    "b7b8b9babbbcbdbebf";
constexpr std::string_view kQueryFrame =
    "00123403777777076578616d706c6503636f6d00";
constexpr std::string_view kResponseFrameOk =
    "011234000000012c03777777076578616d706c6503636f6d0001000f7777772e"
    "6578616d706c652e636f6d101112131415161718191a1b1c1d1e1f6553f48420"
    "2122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f40"
    "4142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f00"
    "00fc00606162636465666768696a6b6c6d6e6f01808182838485868788898a8b"
    "8c8d8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaab"
    "acadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0000201a0a1a2a3a4a5a6a7"
    "a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7"
    "c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedf";
constexpr std::string_view kResponseFrameNxdomain =
    "014321030000003c076d697373696e67076578616d706c6503636f6d0000";
constexpr std::string_view kSealedControl =
    "000000000000000781fe41a15483b0098ff89a6c91a771a29451992974bc17bb"
    "dac513e32dc4f7973c3fbc5feef70bbdc4417b36507629106d398bcedf54e070"
    "034078b6cb03c90aeb6a19e7b414d3a7bd563bdca7d1ece8270d473882ea42ba"
    "2817293897f2a4b1c40b1d46aa11ff884428e7baca4be7f14e48ec412ea6c974"
    "b70bfcbd7ac171fc336d5662f5998dc499c1eb69a6a26c1edcfc";
// Journal record payloads, one per emit_* helper (JournalRecordPayloads).
// A dns_put payload is the DnsRecord wire form, kDnsRecord.
constexpr std::string_view kHostUpsert =
    "00000007000010920102030405060708090a0b0c0d0e0f101112131415161718"
    "191a1b1c1d1e1f204142434445464748494a4b4c4d4e4f50c0c1c2c3c4c5c6c7"
    "c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedf";
constexpr std::string_view kHostErase = "00000007";
constexpr std::string_view kRevokeEphId =
    "101112131415161718191a1b1c1d1e1f6553f48400000007";
constexpr std::string_view kRevokeHid = "00000009";
constexpr std::string_view kDomainBlock =
    "0013626c6f636b65642e6578616d706c652e636f6d";
constexpr std::string_view kDnsErase =
    "000f7777772e6578616d706c652e636f6d";
// SHA-256 digests of the session frames that SessionFrameDigests seals.
constexpr std::string_view kSessionFramesChaCha =
    "7ea96bcf9efc9a7ac2d1fcd3c2b65d435e82d8926e411fb33b784c4b8ea651b0";
constexpr std::string_view kSessionFramesEtm =
    "6e3a3a059e0e4d122890f3b597fa5fa6654befde7a618ef645e15d1361e00fdb";

// ---- Checks -----------------------------------------------------------------

/// Encodes through the message's one encoder; DNS frames report whether
/// they accepted the message, control messages always do.
template <class M>
void encode_checked(const M& msg, wire::MsgWriter& w) {
  if constexpr (std::is_void_v<decltype(msg.encode(w))>) {
    msg.encode(w);
  } else {
    ASSERT_TRUE(msg.encode(w).ok());
  }
}

template <class M>
void check_golden(const M& msg, std::string_view hex) {
  const Bytes golden = must_hex(hex);

  wire::MsgWriter w;
  encode_checked(msg, w);
  EXPECT_EQ(hex_encode(w.span()), hex);

  auto back = core::decode_msg<M>(golden);
  ASSERT_TRUE(back.ok()) << errc_name(back.code());
  EXPECT_TRUE(*back == msg);

  for (std::size_t cut = 0; cut < golden.size(); ++cut)
    EXPECT_FALSE(core::decode_msg<M>(ByteSpan(golden.data(), cut)).ok())
        << "prefix of " << cut << "/" << golden.size() << " bytes decoded";

  Bytes longer = golden;
  longer.push_back(0x00);
  EXPECT_EQ(core::decode_msg<M>(longer).code(), Errc::malformed);
}

TEST(CodecGolden, BootstrapRequest) {
  check_golden(bootstrap_request(), kBootstrapRequest);
}
TEST(CodecGolden, BootstrapResponse) {
  check_golden(bootstrap_response(), kBootstrapResponse);
}
TEST(CodecGolden, EphIdRequest) {
  check_golden(ephid_request(), kEphIdRequest);
}
TEST(CodecGolden, EphIdResponse) {
  check_golden(ephid_response(), kEphIdResponse);
}
TEST(CodecGolden, HandshakeInit) {
  check_golden(handshake_init(), kHandshakeInit);
}
TEST(CodecGolden, HandshakeResponse) {
  check_golden(handshake_response(), kHandshakeResponse);
}
TEST(CodecGolden, DnsQuery) { check_golden(dns_query(), kDnsQuery); }
TEST(CodecGolden, DnsRecord) { check_golden(dns_record(), kDnsRecord); }
TEST(CodecGolden, DnsResponse) { check_golden(dns_response(), kDnsResponse); }
TEST(CodecGolden, DnsPublish) { check_golden(dns_publish(), kDnsPublish); }
TEST(CodecGolden, ShutoffRequest) {
  check_golden(shutoff_request(), kShutoffRequest);
}
TEST(CodecGolden, EphIdRevokeRequest) {
  check_golden(revoke_request(), kEphIdRevokeRequest);
}
TEST(CodecGolden, ShutoffResponse) {
  check_golden(shutoff_response(), kShutoffResponse);
}
TEST(CodecGolden, IcmpMessage) { check_golden(icmp_message(), kIcmpMessage); }
TEST(CodecGolden, Certificate) { check_golden(cert(), kCertificate); }
TEST(CodecGolden, QueryFrame) { check_golden(query_frame(), kQueryFrame); }
TEST(CodecGolden, ResponseFrameOk) {
  check_golden(response_frame_ok(), kResponseFrameOk);
}
TEST(CodecGolden, ResponseFrameNxdomain) {
  check_golden(response_frame_nxdomain(), kResponseFrameNxdomain);
}

TEST(CodecGolden, SealedControlPayload) {
  // Fig 3's E_kHA(EphIdRequest), host → AS direction, counter 7.
  const core::HostAsKeys keys = control_keys();
  const Bytes plain = must_hex(kEphIdRequest);
  const Bytes golden = must_hex(kSealedControl);

  EXPECT_EQ(hex_encode(core::seal_control(keys, 7, /*from_host=*/true, plain)),
            kSealedControl);

  auto opened = core::open_control(keys, /*from_host=*/true, golden);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, plain);

  for (std::size_t cut = 0; cut < golden.size(); ++cut)
    EXPECT_FALSE(
        core::open_control(keys, true, ByteSpan(golden.data(), cut)).ok())
        << "prefix of " << cut << "/" << golden.size() << " bytes opened";

  Bytes longer = golden;
  longer.push_back(0x00);
  EXPECT_FALSE(core::open_control(keys, true, longer).ok());
}

TEST(CodecGolden, SessionFrameDigests) {
  // SHA-256 over the session frames (u64 counter ‖ ciphertext ‖ tag) of
  // both suites: per plaintext length a fresh session seals it at counters
  // 0 and 1, and the peer session opens both. Key pairs and EphIDs come
  // from fixed seeds; plaintext byte i is (31·i + length) mod 256.
  const core::EphIdKeyPair a_kp =
      core::EphIdKeyPair::from_seed(ramp_bytes<32>(0x11));
  const core::EphIdKeyPair b_kp =
      core::EphIdKeyPair::from_seed(ramp_bytes<32>(0x51));
  const core::EphId a_eph = ephid(0x91);
  const core::EphId b_eph = ephid(0xB1);
  const std::pair<crypto::AeadSuite, std::string_view> suites[] = {
      {crypto::AeadSuite::chacha20_poly1305, kSessionFramesChaCha},
      {crypto::AeadSuite::aes128_ctr_cmac, kSessionFramesEtm},
  };
  for (const auto& [suite, want] : suites) {
    crypto::Sha256 digest;
    for (const std::size_t len : {0, 52, 436, 1442}) {
      auto tx = core::Session::derive(a_kp, a_eph, b_kp.pub.dh, b_eph, suite,
                                      /*initiator=*/true);
      auto rx = core::Session::derive(b_kp, b_eph, a_kp.pub.dh, a_eph, suite,
                                      /*initiator=*/false);
      Bytes pt(len);
      for (std::size_t i = 0; i < len; ++i)
        pt[i] = static_cast<std::uint8_t>(31 * i + len);
      for (int counter = 0; counter < 2; ++counter) {
        const Bytes frame = tx.seal(pt);
        ASSERT_EQ(frame.size(), 8 + len + crypto::Aead::kTagSize);
        digest.update(frame);
        auto opened = rx.open(frame);
        ASSERT_TRUE(opened.ok()) << crypto::aead_suite_name(suite) << " " << len;
        EXPECT_EQ(*opened, pt);
      }
    }
    EXPECT_EQ(hex_encode(digest.finish()), want)
        << crypto::aead_suite_name(suite);
  }
}

/// Keeps every record a journal writer would get, in order.
struct RecordingSink final : persist::Sink {
  std::vector<std::pair<std::uint8_t, Bytes>> records;
  bool append(std::uint8_t type, ByteSpan payload) override {
    records.emplace_back(type, Bytes(payload.begin(), payload.end()));
    return true;
  }
};

TEST(CodecGolden, JournalRecordPayloads) {
  core::HostRecord host;
  host.hid = 7;
  host.subscriber_id = 4242;
  host.keys = control_keys();
  host.host_pub = ramp<32>(0xC0);

  RecordingSink sink;
  core::emit_host_upsert(&sink, host);
  core::emit_host_erase(&sink, 7);
  core::emit_revoke_ephid(&sink, ephid(0x10), 1'700'000'900, 7);
  core::emit_revoke_hid(&sink, 9);
  core::emit_domain_block(&sink, "blocked.example.com");
  core::emit_dns_put(&sink, dns_record());
  core::emit_dns_erase(&sink, "www.example.com");

  using T = core::PersistRecordType;
  const std::pair<T, std::string_view> want[] = {
      {T::host_upsert, kHostUpsert},   {T::host_erase, kHostErase},
      {T::revoke_ephid, kRevokeEphId}, {T::revoke_hid, kRevokeHid},
      {T::domain_block, kDomainBlock}, {T::dns_put, kDnsRecord},
      {T::dns_erase, kDnsErase},
  };
  ASSERT_EQ(sink.records.size(), std::size(want));
  for (std::size_t i = 0; i < std::size(want); ++i) {
    EXPECT_EQ(sink.records[i].first, static_cast<std::uint8_t>(want[i].first))
        << "record " << i;
    EXPECT_EQ(hex_encode(sink.records[i].second), want[i].second)
        << "record " << i;
  }
}

}  // namespace
}  // namespace apna
