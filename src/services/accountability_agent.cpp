#include "services/accountability_agent.h"

#include "core/as_persist.h"
#include "core/packet_auth.h"
#include "wire/msg_codec.h"

namespace apna::services {

Result<void> AccountabilityAgent::process(const core::ShutoffRequest& req,
                                          core::ExpTime now) {
  // Bind the offending packet's wire image first — everything hinges on
  // it. Zero-copy: all later field reads go through the view.
  auto pkt = wire::PacketView::bind(req.offending_packet);
  if (!pkt) {
    counters_.add<&Stats::rejected_malformed>();
    return Result<void>(Errc::malformed, "offending packet unparseable");
  }

  // 1. verifyCert(C_EphID_d) against the requester AS's published key.
  const auto requester_as = directory_.lookup(req.dst_cert.aid);
  if (!requester_as) {
    counters_.add<&Stats::rejected_bad_cert>();
    return Result<void>(Errc::bad_certificate, "unknown requester AS");
  }
  if (auto ok = req.dst_cert.verify(requester_as->sign_pub, now); !ok) {
    counters_.add<&Stats::rejected_bad_cert>();
    return ok;
  }

  // 2. verifySig(K+_EphID_d, {pkt}) — requester holds EphID_d's key.
  if (!crypto::ed25519_verify(req.dst_cert.pub.sig, req.offending_packet,
                              req.sig)) {
    counters_.add<&Stats::rejected_bad_sig>();
    return Result<void>(Errc::bad_signature, "requester signature invalid");
  }

  // 4 (cheap, so before the MAC): authorization — the requester must be the
  // packet's recipient (§IV-E: "we only authorize the recipient of a packet
  // to initiate a shutoff request"), or — §VIII-C extension — an on-path
  // AS whose AID the packet's path stamp records.
  core::EphId pkt_dst;
  pkt_dst.bytes = pkt->dst_ephid();
  const bool is_recipient =
      pkt_dst == req.dst_cert.ephid && pkt->dst_aid() == req.dst_cert.aid;
  bool is_onpath = false;
  if (!is_recipient && req.dst_cert.service() && pkt->has_path_stamp()) {
    for (std::size_t i = 0; i < pkt->path_stamp_count(); ++i) {
      if (pkt->path_stamp_at(i) == req.dst_cert.aid) {
        is_onpath = true;
        break;
      }
    }
  }
  if (!is_recipient && !is_onpath) {
    counters_.add<&Stats::rejected_unauthorized>();
    return Result<void>(Errc::unauthorized,
                        "requester is neither recipient nor on-path AS");
  }
  if (is_onpath) counters_.add<&Stats::onpath_accepted>();

  // 3. (HID_S, T) = E^-1_kA(EphID_s); T ≥ now; HID_S ∈ host_info.
  core::EphId src_ephid;
  src_ephid.bytes = pkt->src_ephid();
  auto plain = as_.codec.open(src_ephid);
  if (!plain) {
    counters_.add<&Stats::rejected_not_our_host>();
    return Result<void>(Errc::decrypt_failed, "source EphID not ours");
  }
  if (plain->exp_time < now) {
    counters_.add<&Stats::rejected_not_our_host>();
    return Result<void>(Errc::expired, "source EphID already expired");
  }
  const auto host = as_.host_db.find(plain->hid);
  if (!host) {
    counters_.add<&Stats::rejected_not_our_host>();
    return Result<void>(Errc::unknown_host, "source HID not registered");
  }

  // 5. verifyMAC(k_HSAS, pkt) — proof our customer actually sent it.
  if (!core::verify_packet_mac(*host->cmac, *pkt)) {
    counters_.add<&Stats::rejected_bad_mac>();
    return Result<void>(Errc::bad_mac, "packet not authenticated by source");
  }

  // 6. Instruct border routers to revoke EphID_s.
  if (auto r = instruct_revocation(src_ephid, plain->exp_time, plain->hid); !r)
    return r;

  counters_.add<&Stats::accepted>();
  return Result<void>::success();
}

Result<void> AccountabilityAgent::instruct_revocation(const core::EphId& ephid,
                                                      core::ExpTime exp_time,
                                                      core::Hid hid) {
  // MAC_kAS(revoke EphID_s) — build the instruction as the AA ...
  wire::MsgWriter w(32);
  w.str("revoke");
  w.raw(ephid.bytes);
  w.u32(exp_time);
  const ByteSpan instruction = w.span();
  const auto mac = as_.infra_mac.mac(instruction);

  // ... and verify it as the border routers do (Fig 5 bottom) before it
  // takes effect.
  if (!as_.infra_mac.verify(instruction, ByteSpan(mac.data(), mac.size())))
    return Result<void>(Errc::internal, "infra MAC self-check failed");
  counters_.add<&Stats::revocation_instructions>();

  // A replayed request has passed every check above but changes nothing:
  // it journals no record, bumps no epoch and cannot escalate again.
  if (!as_.revoked.revoke_ephid(ephid, exp_time, hid))
    return Result<void>::success();
  core::emit_revoke_ephid(persist_, ephid, exp_time, hid);

  // §VIII-G2 escalation: too many revocations ⇒ revoke the HID itself.
  if (as_.revoked.over_limit(hid)) {
    as_.revoked.revoke_hid(hid);
    as_.host_db.erase(hid);
    core::emit_revoke_hid(persist_, hid);
    core::emit_host_erase(persist_, hid);
    counters_.add<&Stats::hid_escalations>();
  }
  return Result<void>::success();
}

Result<void> AccountabilityAgent::process_revoke(
    const core::EphIdRevokeRequest& req, core::ExpTime now) {
  // The certificate must be one WE issued, for exactly this EphID.
  if (req.cert.aid != as_.aid || !(req.cert.ephid == req.ephid)) {
    counters_.add<&Stats::rejected_bad_cert>();
    return Result<void>(Errc::bad_certificate, "certificate mismatch");
  }
  if (auto ok = req.cert.verify(as_.secrets.sign.pub, now); !ok) {
    counters_.add<&Stats::rejected_bad_cert>();
    return ok;
  }
  // Ownership: signed with the EphID's own key.
  if (!crypto::ed25519_verify(req.cert.pub.sig,
                              core::EphIdRevokeRequest::revoke_tbs(req.ephid),
                              req.sig)) {
    counters_.add<&Stats::rejected_bad_sig>();
    return Result<void>(Errc::bad_signature, "revoke signature invalid");
  }
  auto plain = as_.codec.open(req.ephid);
  if (!plain) {
    counters_.add<&Stats::rejected_not_our_host>();
    return Result<void>(Errc::decrypt_failed, "EphID not ours");
  }
  if (auto r = instruct_revocation(req.ephid, plain->exp_time, plain->hid); !r)
    return r;
  counters_.add<&Stats::voluntary_revocations>();
  return Result<void>::success();
}

Result<void> AccountabilityAgent::enforce_domain_policy(
    std::string_view name, const core::EphId& ephid, core::ExpTime now) {
  const DomainPolicy* policy = policy_;
  if (policy == nullptr) return Result<void>::success();
  std::string matched;
  if (!policy->blocked(name, &matched)) return Result<void>::success();
  counters_.add<&Stats::domain_blocks>();
  // Revoke through the same MAC_kAS tail as a granted shutoff request —
  // but only for EphIDs WE issued; a record published under a foreign
  // AS's EphID is blocked at the resolver, not revoked here.
  if (auto plain = as_.codec.open(ephid);
      plain && plain->exp_time >= now) {
    if (auto r = instruct_revocation(ephid, plain->exp_time, plain->hid); !r)
      return r;
  }
  return Result<void>(Errc::unauthorized, "domain blocked by policy");
}

core::ShutoffRequest AccountabilityAgent::make_onpath_request(
    const wire::PacketView& observed) const {
  core::ShutoffRequest req;
  req.offending_packet.assign(observed.bytes().begin(),
                              observed.bytes().end());
  req.sig = ident_.kp.sign(req.offending_packet);
  req.dst_cert = ident_.cert;  // a kCertService certificate
  return req;
}

Result<wire::PacketBuf> AccountabilityAgent::handle_packet(
    const wire::PacketView& pkt) {
  if (pkt.proto() != wire::NextProto::shutoff)
    return Result<wire::PacketBuf>(Errc::malformed,
                                   "AA expects shutoff packets");

  wire::MsgReader r(pkt);
  auto kind = r.u8();

  core::ShutoffResponse resp_msg;
  if (!kind) {
    counters_.add<&Stats::rejected_malformed>();
    resp_msg.status = static_cast<std::uint8_t>(Errc::malformed);
  } else if (*kind ==
             static_cast<std::uint8_t>(core::ShutoffKind::shutoff_request)) {
    auto req = core::ShutoffRequest::decode(r);
    if (!req || !r.done()) {
      counters_.add<&Stats::rejected_malformed>();
      resp_msg.status = static_cast<std::uint8_t>(Errc::malformed);
    } else {
      resp_msg.status =
          static_cast<std::uint8_t>(process(*req, loop_.now_seconds()).code());
    }
  } else if (*kind ==
             static_cast<std::uint8_t>(core::ShutoffKind::revoke_request)) {
    auto req = core::EphIdRevokeRequest::decode(r);
    if (!req || !r.done()) {
      counters_.add<&Stats::rejected_malformed>();
      resp_msg.status = static_cast<std::uint8_t>(Errc::malformed);
    } else {
      resp_msg.status = static_cast<std::uint8_t>(
          process_revoke(*req, loop_.now_seconds()).code());
    }
  } else {
    counters_.add<&Stats::rejected_malformed>();
    resp_msg.status = static_cast<std::uint8_t>(Errc::malformed);
  }

  wire::PacketWriter pw(as_.aid, ident_.cert.ephid.bytes, pkt.src_aid(),
                        pkt.src_ephid(), wire::NextProto::shutoff,
                        std::nullopt, 8);
  pw.u8(static_cast<std::uint8_t>(core::ShutoffKind::response));
  resp_msg.encode(pw);
  wire::PacketBuf out = pw.finish();
  core::stamp_packet_mac(*ident_.cmac, out);
  return out;
}

}  // namespace apna::services
