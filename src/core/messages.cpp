#include "core/messages.h"

#include <cstring>

#include "crypto/chacha20.h"

namespace apna::core {

using wire::Reader;
using wire::Writer;

namespace {

// The two AEAD suites a handshake may negotiate (value 2 is retired).
bool known_suite(std::uint8_t v) {
  return v == static_cast<std::uint8_t>(crypto::AeadSuite::chacha20_poly1305) ||
         v == static_cast<std::uint8_t>(crypto::AeadSuite::aes128_ctr_cmac);
}

}  // namespace

// ---- BootstrapResponse ------------------------------------------------------

Bytes BootstrapResponse::id_info_tbs() const {
  Writer w(32);
  w.raw(ctrl_ephid.bytes);
  w.u32(ctrl_exp_time);
  w.u32(hid);
  return w.take();
}

// ---- EphIdRequest / Response ------------------------------------------------

std::array<std::uint8_t, 16 + 64 + 2> EphIdRequest::pop_tbs() const {
  // "APNA-ephid-pop" padded to a 16-byte domain separator.
  static constexpr std::uint8_t kDomain[16] = {'A', 'P', 'N', 'A', '-', 'e',
                                               'p', 'h', 'i', 'd', '-', 'p',
                                               'o', 'p', 0,   0};
  std::array<std::uint8_t, 16 + 64 + 2> tbs;
  std::memcpy(tbs.data(), kDomain, 16);
  std::memcpy(tbs.data() + 16, ephid_pub.dh.data(), 32);
  std::memcpy(tbs.data() + 48, ephid_pub.sig.data(), 32);
  tbs[80] = flags;
  tbs[81] = static_cast<std::uint8_t>(lifetime);
  return tbs;
}

// ---- Control sealing --------------------------------------------------------

Bytes seal_control(const HostAsKeys& keys, std::uint64_t nonce_counter,
                   bool from_host, ByteSpan plaintext) {
  wire::MsgWriter w(8 + plaintext.size() + crypto::ChaCha20Poly1305::kTagSize);
  seal_control_into(w, keys, nonce_counter, from_host, plaintext);
  return w.take();
}

Result<Bytes> open_control(const HostAsKeys& keys, bool from_host,
                           ByteSpan sealed) {
  wire::MsgWriter scratch(sealed.size());
  auto pt = open_control_into(scratch, keys, from_host, sealed);
  if (!pt) return pt.error();
  return Bytes(pt->begin(), pt->end());
}

// ---- Shutoff ------------------------------------------------------------------

Bytes EphIdRevokeRequest::revoke_tbs(const EphId& ephid) {
  Writer w(32);
  w.str("apna-voluntary-revoke");
  w.raw(ephid.bytes);
  return w.take();
}

// ---- Codec (MsgWriter / Reader) --------------------------------------------
//
// One encode/decode pair per message; tests/codec_golden_test.cpp pins the
// bytes.

void BootstrapRequest::encode(wire::MsgWriter& w) const {
  w.u32(subscriber_id);
  w.var(credential);
  w.raw(host_pub);
}

Result<BootstrapRequest> BootstrapRequest::decode(Reader& r) {
  BootstrapRequest m;
  auto sid = r.u32();
  if (!sid) return sid.error();
  m.subscriber_id = *sid;
  auto cred = r.var();
  if (!cred) return cred.error();
  m.credential.assign(cred->begin(), cred->end());
  auto pub = r.arr<32>();
  if (!pub) return pub.error();
  m.host_pub = *pub;
  return m;
}

void BootstrapResponse::encode(wire::MsgWriter& w) const {
  w.u32(hid);
  w.raw(ctrl_ephid.bytes);
  w.u32(ctrl_exp_time);
  w.raw(id_info_sig);
  ms_cert.encode(w);
  dns_cert.encode(w);
  w.u32(aid);
  w.raw(aa_ephid.bytes);
}

Result<BootstrapResponse> BootstrapResponse::decode(Reader& r) {
  BootstrapResponse m;
  auto hid = r.u32();
  if (!hid) return hid.error();
  m.hid = *hid;
  auto ctrl = r.arr<16>();
  if (!ctrl) return ctrl.error();
  m.ctrl_ephid.bytes = *ctrl;
  auto exp = r.u32();
  if (!exp) return exp.error();
  m.ctrl_exp_time = *exp;
  auto sig = r.arr<64>();
  if (!sig) return sig.error();
  m.id_info_sig = *sig;
  auto ms = EphIdCertificate::decode(r);
  if (!ms) return ms.error();
  m.ms_cert = ms.take();
  auto dns = EphIdCertificate::decode(r);
  if (!dns) return dns.error();
  m.dns_cert = dns.take();
  auto aid = r.u32();
  if (!aid) return aid.error();
  m.aid = *aid;
  auto aa = r.arr<16>();
  if (!aa) return aa.error();
  m.aa_ephid.bytes = *aa;
  return m;
}

void EphIdRequest::encode(wire::MsgWriter& w) const {
  w.raw(ephid_pub.dh);
  w.raw(ephid_pub.sig);
  w.u8(flags);
  w.u8(static_cast<std::uint8_t>(lifetime));
  w.raw(pop_sig);
}

Result<EphIdRequest> EphIdRequest::decode(Reader& r) {
  EphIdRequest m;
  auto dh = r.arr<32>();
  if (!dh) return dh.error();
  m.ephid_pub.dh = *dh;
  auto sig = r.arr<32>();
  if (!sig) return sig.error();
  m.ephid_pub.sig = *sig;
  auto flags = r.u8();
  if (!flags) return flags.error();
  m.flags = *flags;
  auto lt = r.u8();
  if (!lt) return lt.error();
  if (*lt > static_cast<std::uint8_t>(EphIdLifetime::long_term))
    return Result<EphIdRequest>(Errc::malformed, "bad lifetime class");
  m.lifetime = static_cast<EphIdLifetime>(*lt);
  auto pop = r.arr<64>();
  if (!pop) return pop.error();
  m.pop_sig = *pop;
  return m;
}

void EphIdResponse::encode(wire::MsgWriter& w) const { cert.encode(w); }

Result<EphIdResponse> EphIdResponse::decode(Reader& r) {
  auto cert = EphIdCertificate::decode(r);
  if (!cert) return cert.error();
  EphIdResponse m;
  m.cert = cert.take();
  return m;
}

void HandshakeInit::encode(wire::MsgWriter& w) const {
  client_cert.encode(w);
  w.u64(client_nonce);
  w.u8(static_cast<std::uint8_t>(suite));
  w.var(early_data);
}

Result<HandshakeInit> HandshakeInit::decode(Reader& r) {
  HandshakeInit m;
  auto cert = EphIdCertificate::decode(r);
  if (!cert) return cert.error();
  m.client_cert = cert.take();
  auto nonce = r.u64();
  if (!nonce) return nonce.error();
  m.client_nonce = *nonce;
  auto suite = r.u8();
  if (!suite) return suite.error();
  if (!known_suite(*suite))
    return Result<HandshakeInit>(Errc::malformed, "unknown AEAD suite");
  m.suite = static_cast<crypto::AeadSuite>(*suite);
  auto early = r.var();
  if (!early) return early.error();
  m.early_data.assign(early->begin(), early->end());
  return m;
}

void HandshakeResponse::encode(wire::MsgWriter& w) const {
  serving_cert.encode(w);
  w.u64(server_nonce);
  w.u8(static_cast<std::uint8_t>(suite));
}

Result<HandshakeResponse> HandshakeResponse::decode(Reader& r) {
  HandshakeResponse m;
  auto cert = EphIdCertificate::decode(r);
  if (!cert) return cert.error();
  m.serving_cert = cert.take();
  auto nonce = r.u64();
  if (!nonce) return nonce.error();
  m.server_nonce = *nonce;
  auto suite = r.u8();
  if (!suite) return suite.error();
  if (!known_suite(*suite))
    return Result<HandshakeResponse>(Errc::malformed, "unknown AEAD suite");
  m.suite = static_cast<crypto::AeadSuite>(*suite);
  return m;
}

void DnsQuery::encode(wire::MsgWriter& w) const { w.str(name); }

Result<DnsQuery> DnsQuery::decode(Reader& r) {
  auto name = r.str();
  if (!name) return name.error();
  DnsQuery q;
  q.name = name.take();
  return q;
}

void DnsRecord::tbs_into(wire::MsgWriter& w) const {
  w.str(name);
  cert.encode(w);
  w.u32(ipv4);
}

void DnsRecord::encode(wire::MsgWriter& w) const {
  tbs_into(w);  // wire form = signed fields ‖ signature, single-sourced
  w.raw(sig);
}

Result<DnsRecord> DnsRecord::decode(Reader& r) {
  DnsRecord rec;
  auto name = r.str();
  if (!name) return name.error();
  rec.name = name.take();
  auto cert = EphIdCertificate::decode(r);
  if (!cert) return cert.error();
  rec.cert = cert.take();
  auto ip = r.u32();
  if (!ip) return ip.error();
  rec.ipv4 = *ip;
  auto sig = r.arr<64>();
  if (!sig) return sig.error();
  rec.sig = *sig;
  return rec;
}

void DnsResponse::encode(wire::MsgWriter& w) const {
  w.u8(status);
  w.u8(record.has_value() ? 1 : 0);
  if (record) record->encode(w);
}

Result<DnsResponse> DnsResponse::decode(Reader& r) {
  DnsResponse resp;
  auto status = r.u8();
  if (!status) return status.error();
  resp.status = *status;
  auto has = r.u8();
  if (!has) return has.error();
  if (*has) {
    auto rec = DnsRecord::decode(r);
    if (!rec) return rec.error();
    resp.record = rec.take();
  }
  return resp;
}

void DnsPublish::encode(wire::MsgWriter& w) const {
  w.str(name);
  cert.encode(w);
  w.u32(ipv4);
}

Result<DnsPublish> DnsPublish::decode(Reader& r) {
  DnsPublish p;
  auto name = r.str();
  if (!name) return name.error();
  p.name = name.take();
  auto cert = EphIdCertificate::decode(r);
  if (!cert) return cert.error();
  p.cert = cert.take();
  auto ip = r.u32();
  if (!ip) return ip.error();
  p.ipv4 = *ip;
  return p;
}

void ShutoffRequest::encode(wire::MsgWriter& w) const {
  w.var(offending_packet);
  w.raw(sig);
  dst_cert.encode(w);
}

Result<ShutoffRequest> ShutoffRequest::decode(Reader& r) {
  ShutoffRequest m;
  auto pkt = r.var();
  if (!pkt) return pkt.error();
  m.offending_packet.assign(pkt->begin(), pkt->end());
  auto sig = r.arr<64>();
  if (!sig) return sig.error();
  m.sig = *sig;
  auto cert = EphIdCertificate::decode(r);
  if (!cert) return cert.error();
  m.dst_cert = cert.take();
  return m;
}

void EphIdRevokeRequest::encode(wire::MsgWriter& w) const {
  w.raw(ephid.bytes);
  w.raw(sig);
  cert.encode(w);
}

Result<EphIdRevokeRequest> EphIdRevokeRequest::decode(Reader& r) {
  EphIdRevokeRequest m;
  auto eph = r.arr<16>();
  if (!eph) return eph.error();
  m.ephid.bytes = *eph;
  auto sig = r.arr<64>();
  if (!sig) return sig.error();
  m.sig = *sig;
  auto cert = EphIdCertificate::decode(r);
  if (!cert) return cert.error();
  m.cert = cert.take();
  return m;
}

void ShutoffResponse::encode(wire::MsgWriter& w) const { w.u8(status); }

Result<ShutoffResponse> ShutoffResponse::decode(Reader& r) {
  auto status = r.u8();
  if (!status) return status.error();
  ShutoffResponse m;
  m.status = *status;
  return m;
}

void IcmpMessage::encode(wire::MsgWriter& w) const {
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(code);
  w.var(data);
}

Result<IcmpMessage> IcmpMessage::decode(Reader& r) {
  IcmpMessage m;
  auto type = r.u8();
  if (!type) return type.error();
  if (*type > static_cast<std::uint8_t>(IcmpType::packet_too_big))
    return Result<IcmpMessage>(Errc::malformed, "unknown ICMP type");
  m.type = static_cast<IcmpType>(*type);
  auto code = r.u32();
  if (!code) return code.error();
  m.code = *code;
  auto data = r.var();
  if (!data) return data.error();
  m.data.assign(data->begin(), data->end());
  return m;
}

void seal_control_into(wire::MsgWriter& out, const HostAsKeys& keys,
                       std::uint64_t nonce_counter, bool from_host,
                       ByteSpan plaintext) {
  // Stack-constructed AEAD (no Aead::create unique_ptr) sealing straight
  // into the writer's pooled tail: zero heap traffic per call.
  const crypto::ChaCha20Poly1305 aead(
      ByteSpan(keys.enc.data(), keys.enc.size()));
  std::uint8_t nonce[12] = {};
  nonce[0] = from_host ? 0x01 : 0x02;
  store_be64(nonce + 4, nonce_counter);
  out.u64(nonce_counter);
  MutByteSpan dst = out.append_uninitialized(
      plaintext.size() + crypto::ChaCha20Poly1305::kTagSize);
  aead.seal_into(ByteSpan(nonce, 12), {}, plaintext, dst);
}

Result<ByteSpan> open_control_into(wire::MsgWriter& scratch,
                                   const HostAsKeys& keys, bool from_host,
                                   ByteSpan sealed) {
  Reader r(sealed);
  auto counter = r.u64();
  if (!counter) return Result<ByteSpan>(counter.error());
  const ByteSpan ct_tag = r.rest();
  if (ct_tag.size() < crypto::ChaCha20Poly1305::kTagSize)
    return Result<ByteSpan>(Errc::decrypt_failed, "control payload short");
  const crypto::ChaCha20Poly1305 aead(
      ByteSpan(keys.enc.data(), keys.enc.size()));
  std::uint8_t nonce[12] = {};
  nonce[0] = from_host ? 0x01 : 0x02;
  store_be64(nonce + 4, *counter);
  scratch.clear();
  MutByteSpan pt = scratch.append_uninitialized(
      ct_tag.size() - crypto::ChaCha20Poly1305::kTagSize);
  if (!aead.open_into(ByteSpan(nonce, 12), {}, ct_tag, pt))
    return Result<ByteSpan>(Errc::decrypt_failed, "control payload rejected");
  return ByteSpan(pt.data(), pt.size());
}

}  // namespace apna::core
