#include "dns/dns_service.h"

#include "core/packet_auth.h"
#include "dns/dns_wire.h"
#include "wire/msg_codec.h"

namespace apna::dns {

core::DnsRecord DnsService::sign_record(const std::string& name,
                                        const core::EphIdCertificate& cert,
                                        std::uint32_t ipv4) const {
  core::DnsRecord rec;
  rec.name = name;
  rec.cert = cert;
  rec.ipv4 = ipv4;
  wire::MsgWriter tbs(256);
  rec.tbs_into(tbs);
  rec.sig = ident_.kp.sign(tbs.span());
  return rec;
}

Result<core::DnsResponse> DnsService::resolve(const core::DnsQuery& q) {
  counters_.add<&Stats::queries>();
  core::DnsResponse resp;
  const Resolver::Answer a = resolver_.resolve(q.name, loop_.now_seconds());
  switch (a.status) {
    case Resolver::Status::ok: {
      resp.status = 0;
      resp.record = a.record;
      // Validating-resolver model: the zone entry was signed by the DNS
      // service that accepted the publication; the serving resolver
      // re-signs so clients verify against the key of the server they
      // actually speak to (the DNSSEC chain stand-in ends at the
      // resolver). Ed25519 is deterministic, so a cached answer re-signs
      // byte-identically to an uncached one.
      wire::MsgWriter tbs(256);
      resp.record->tbs_into(tbs);
      resp.record->sig = ident_.kp.sign(tbs.span());
      break;
    }
    case Resolver::Status::nxdomain:
      counters_.add<&Stats::nxdomain>();
      resp.status = 1;
      break;
    case Resolver::Status::blocked:
      counters_.add<&Stats::blocked>();
      resp.status = 2;
      break;
    case Resolver::Status::servfail:
    case Resolver::Status::invalid:
      counters_.add<&Stats::rejected>();
      resp.status = 3;
      break;
  }
  return resp;
}

Result<void> DnsService::publish(const core::DnsPublish& p) {
  // The published certificate must be valid and issued by a known AS; the
  // DNS then re-signs the record (the DNSSEC chain).
  const core::ExpTime now = loop_.now_seconds();
  if (auto ok = core::validate_peer_cert(p.cert, directory_, now); !ok) {
    counters_.add<&Stats::rejected>();
    return ok;
  }
  // Records land in the zone in canonical form so lookups and policy see
  // one spelling per name.
  const std::string canon = canonical_name(p.name);
  if (auto ok = resolver_.admit_publish(canon, p.cert.ephid, now); !ok) {
    if (ok.code() == Errc::unauthorized)
      counters_.add<&Stats::blocked>();
    else
      counters_.add<&Stats::rejected>();
    return ok;
  }
  resolver_.zone().put(sign_record(canon, p.cert, p.ipv4));
  counters_.add<&Stats::publications>();
  return Result<void>::success();
}

Result<Bytes> DnsService::handle_op(ByteSpan plaintext) {
  wire::MsgReader r(plaintext);
  auto op = r.u8();
  if (!op) return op.error();
  switch (static_cast<DnsOp>(*op)) {
    case DnsOp::query: {
      auto q = core::decode_msg<core::DnsQuery>(r.rest());
      if (!q) return q.error();
      auto resp = resolve(*q);
      if (!resp) return resp.error();
      wire::MsgWriter w(400);
      w.u8(static_cast<std::uint8_t>(DnsOp::response));
      resp->encode(w);
      return w.take();
    }
    case DnsOp::publish: {
      auto p = core::decode_msg<core::DnsPublish>(r.rest());
      if (!p) return p.error();
      const auto result = publish(*p);
      wire::MsgWriter w(2);
      w.u8(static_cast<std::uint8_t>(DnsOp::response));
      w.u8(static_cast<std::uint8_t>(result.code()));
      return w.take();
    }
    case DnsOp::response:
      break;
  }
  return Result<Bytes>(Errc::malformed, "unexpected DNS op");
}

wire::PacketBuf DnsService::make_reply(const wire::PacketView& req,
                                       wire::NextProto proto,
                                       ByteSpan payload) const {
  wire::PacketWriter pw(as_.aid, ident_.cert.ephid.bytes, req.src_aid(),
                        req.src_ephid(), proto, std::nullopt, payload.size());
  pw.raw(payload);
  wire::PacketBuf out = pw.finish();
  core::stamp_packet_mac(*ident_.cmac, out);
  return out;
}

Result<wire::PacketBuf> DnsService::handle_packet(
    const wire::PacketView& pkt) {
  const core::ExpTime now = loop_.now_seconds();

  if (pkt.proto() == wire::NextProto::handshake) {
    // Handshake payloads carry a one-byte kind prefix (0 = init, 1 = resp).
    wire::MsgReader hr(pkt);
    auto kind = hr.u8();
    if (!kind || *kind != 0) {
      counters_.add<&Stats::rejected>();
      return Result<wire::PacketBuf>(Errc::malformed,
                                     "expected handshake init");
    }
    auto init = core::HandshakeInit::decode(hr);
    if (!init || !hr.done()) {
      counters_.add<&Stats::rejected>();
      return Result<wire::PacketBuf>(Errc::malformed, "bad handshake init");
    }
    // The DNS service serves directly from its service EphID.
    auto hs = core::handshake_respond(*init, directory_, now, ident_.kp,
                                      ident_.cert, ident_.kp, ident_.cert,
                                      rng_.next_u64());
    if (!hs) {
      counters_.add<&Stats::rejected>();
      return Result<wire::PacketBuf>(hs.error());
    }
    core::EphId client;
    client.bytes = pkt.src_ephid();
    sessions_.erase(client);
    sessions_.emplace(client, std::move(hs->session));
    counters_.add<&Stats::sessions>();

    // The handshake response encodes directly into the reply packet.
    wire::PacketWriter pw(as_.aid, ident_.cert.ephid.bytes, pkt.src_aid(),
                          pkt.src_ephid(), wire::NextProto::handshake);
    pw.u8(1);  // handshake response kind
    hs->response.encode(pw);
    wire::PacketBuf out = pw.finish();
    core::stamp_packet_mac(*ident_.cmac, out);
    return out;
  }

  if (pkt.proto() == wire::NextProto::data) {
    core::EphId client;
    client.bytes = pkt.src_ephid();
    auto it = sessions_.find(client);
    if (it == sessions_.end()) {
      counters_.add<&Stats::rejected>();
      return Result<wire::PacketBuf>(Errc::not_found, "no session for client");
    }
    auto pt = it->second.open(pkt.payload());
    if (!pt) {
      counters_.add<&Stats::rejected>();
      return Result<wire::PacketBuf>(pt.error());
    }
    auto reply = handle_op(*pt);
    if (!reply) {
      counters_.add<&Stats::rejected>();
      return Result<wire::PacketBuf>(reply.error());
    }
    const Bytes sealed = it->second.seal(*reply);
    return make_reply(pkt, wire::NextProto::data, sealed);
  }

  counters_.add<&Stats::rejected>();
  return Result<wire::PacketBuf>(Errc::malformed, "DNS expects handshake/data");
}

}  // namespace apna::dns
