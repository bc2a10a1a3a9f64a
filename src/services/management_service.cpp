#include "services/management_service.h"

#include <limits>

#include "core/packet_auth.h"
#include "crypto/ed25519.h"

namespace apna::services {

Result<void> ManagementService::begin_issue(const core::EphId& ctrl_ephid,
                                            ByteSpan sealed_request,
                                            core::ExpTime now,
                                            PreparedIssue& prep) {
  // (HID, T1) = E^-1_kA(EphID_ctrl); abort if T1 < currTime (Fig 3).
  auto plain = as_.codec.open(ctrl_ephid);
  if (!plain) {
    counters_.add<&Stats::rejected_bad_payload>();
    return Result<void>(plain.error());
  }
  if (plain->exp_time < now) {
    counters_.add<&Stats::rejected_expired>();
    return Result<void>(Errc::expired, "control EphID expired");
  }
  // abort if HID ∉ host_info (also covers revoked HIDs — they are erased).
  if (as_.revoked.is_hid_revoked(plain->hid)) {
    counters_.add<&Stats::rejected_revoked>();
    return Result<void>(Errc::revoked, "HID revoked");
  }
  auto host = as_.host_db.find(plain->hid);
  if (!host) {
    counters_.add<&Stats::rejected_unknown_host>();
    return Result<void>(Errc::unknown_host, "HID not registered");
  }

  // K+_EphID = E^-1_kHA(request) — authenticated decryption into pooled
  // scratch; the decoded request is copied out, so the scratch dies here.
  wire::MsgWriter scratch(256);
  auto payload = core::open_control_into(scratch, host->keys,
                                         /*from_host=*/true, sealed_request);
  if (!payload) {
    counters_.add<&Stats::rejected_bad_payload>();
    return Result<void>(payload.error());
  }
  auto request = core::decode_msg<core::EphIdRequest>(*payload);
  if (!request) {
    counters_.add<&Stats::rejected_bad_payload>();
    return Result<void>(request.error());
  }

  prep.hid = plain->hid;
  prep.host = std::move(*host);
  prep.request = *request;
  prep.pop_tbs = prep.request.pop_tbs();
  return Result<void>::success();
}

Result<void> ManagementService::finish_issue(const PreparedIssue& prep,
                                             bool pop_ok, core::ExpTime now,
                                             std::uint64_t reply_nonce,
                                             wire::MsgWriter& out) {
  // The reply nonce is the IV counter: past 2^32 - 1 every IV of kA has
  // been used once, and a second use would XOR two HIDs together.
  if (reply_nonce > std::numeric_limits<std::uint32_t>::max()) {
    counters_.add<&Stats::rejected_iv_exhausted>();
    return Result<void>(Errc::exhausted, "EphID IV space of kA used up");
  }
  // Never certify a public key the requester cannot use: the PoP signature
  // proves possession of the new EphID's Ed25519 secret.
  if (!pop_ok) {
    counters_.add<&Stats::rejected_bad_pop>();
    return Result<void>(Errc::bad_signature, "EphID proof-of-possession");
  }
  const core::EphIdRequest& request = prep.request;

  // EphID = E_kA(HID, ExpTime); C_EphID = {...} signed K-_AS.
  const core::ExpTime exp = now + policy_.seconds_for(request.lifetime);
  core::EphIdCertificate cert;
  cert.ephid = as_.codec.issue_counted(
      prep.hid, exp, static_cast<std::uint32_t>(reply_nonce));
  cert.exp_time = exp;
  cert.pub = request.ephid_pub;
  cert.aid = as_.aid;
  cert.aa_ephid = ident_.cert.aa_ephid;
  cert.flags = (request.flags & core::kRequestReceiveOnly)
                   ? core::kCertReceiveOnly
                   : 0;
  cert.sign_with(as_.secrets.sign);

  // E_kHA(C_EphID): the reply is encrypted so observers cannot relate the
  // fresh EphID to the control EphID (§IV-C last paragraph). The response
  // encodes into pooled scratch, and the stack-AEAD seal encrypts straight
  // into `out` — the whole reply build touches one recycled buffer and the
  // heap not at all (asserted <= 4 allocs/request by bench_e1).
  wire::MsgWriter scratch(256);
  core::EphIdResponse resp;
  resp.cert = std::move(cert);
  resp.encode(scratch);
  core::seal_control_into(out, prep.host.keys, reply_nonce,
                          /*from_host=*/false, scratch.span());
  counters_.add<&Stats::issued>();
  return Result<void>::success();
}

Result<void> ManagementService::issue_into(const core::EphId& ctrl_ephid,
                                           ByteSpan sealed_request,
                                           core::ExpTime now,
                                           std::uint64_t reply_nonce,
                                           wire::MsgWriter& out) {
  PreparedIssue prep;
  if (auto begun = begin_issue(ctrl_ephid, sealed_request, now, prep); !begun)
    return begun;
  const bool pop_ok = crypto::ed25519_verify(
      prep.request.ephid_pub.sig, prep.pop_tbs, prep.request.pop_sig);
  return finish_issue(prep, pop_ok, now, reply_nonce, out);
}

Result<Bytes> ManagementService::issue_sealed(const core::EphId& ctrl_ephid,
                                              ByteSpan sealed_request,
                                              core::ExpTime now) {
  const std::uint64_t nonce = reserve_reply_nonces(1);
  wire::MsgWriter out(320);
  if (auto r = issue_into(ctrl_ephid, sealed_request, now, nonce, out); !r)
    return Result<Bytes>(r.error());
  return out.take();
}

Result<wire::PacketBuf> ManagementService::handle_packet(
    const wire::PacketView& req) {
  if (req.proto() != wire::NextProto::control)
    return Result<wire::PacketBuf>(Errc::malformed,
                                   "MS expects control packets");

  core::EphId ctrl;
  ctrl.bytes = req.src_ephid();
  // The sealed response encodes DIRECTLY into the reply packet's payload
  // region; finish() patches the length and the MAC is stamped in place.
  wire::PacketWriter pw(as_.aid, ident_.cert.ephid.bytes, req.src_aid(),
                        req.src_ephid(), wire::NextProto::control);
  auto issued = issue_into(ctrl, req.payload(), loop_.now_seconds(),
                           reserve_reply_nonces(1), pw);
  if (!issued) return Result<wire::PacketBuf>(issued.error());
  wire::PacketBuf out = pw.finish();
  core::stamp_packet_mac(*ident_.cmac, out);
  return out;
}

}  // namespace apna::services
