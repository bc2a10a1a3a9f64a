#include "services/registry_service.h"

#include "core/as_persist.h"
#include "crypto/x25519.h"

namespace apna::services {

Result<core::BootstrapResponse> RegistryService::bootstrap(
    const core::BootstrapRequest& req) {
  // "RS authenticates Host" — against the subscriber database.
  if (!subs_.authenticate(req.subscriber_id, req.credential)) {
    counters_.add<&Stats::rejected_auth>();
    return Result<core::BootstrapResponse>(Errc::unauthorized,
                                           "subscriber authentication failed");
  }

  // kHA = DH(K-_AS, K+_H), then two derived keys (Fig 2).
  const auto dh = crypto::x25519_shared(as_.secrets.dh.priv, req.host_pub);
  const auto keys = core::HostAsKeys::derive(dh);

  // Identity-minting defence (§VI-A): a fresh HID revokes the previous one
  // and everything issued under it.
  const core::Hid hid = allocate_hid();
  if (const core::Hid old = subs_.bind_hid(req.subscriber_id, hid); old != 0) {
    as_.host_db.erase(old);
    as_.revoked.revoke_hid(old);
    core::emit_host_erase(persist_, old);
    core::emit_revoke_hid(persist_, old);
    counters_.add<&Stats::hid_rotations>();
  }

  // m1 = E_kA(HID, kHA) to every AS entity — in-process the shared AsState
  // IS that database; we count the provisioning event.
  core::HostRecord rec;
  rec.hid = hid;
  rec.keys = keys;
  rec.host_pub = req.host_pub;
  rec.subscriber_id = req.subscriber_id;
  as_.host_db.upsert(rec);
  core::emit_host_upsert(persist_, rec);
  counters_.add<&Stats::infra_updates>();

  // Control EphID with its long lifetime, plus signed id_info.
  core::BootstrapResponse resp;
  resp.hid = hid;
  resp.ctrl_exp_time = loop_.now_seconds() + cfg_.ctrl_lifetime_s;
  resp.ctrl_ephid = as_.codec.issue(hid, resp.ctrl_exp_time, rng_);
  resp.id_info_sig = as_.secrets.sign.sign(resp.id_info_tbs());
  resp.ms_cert = ms_cert_;
  resp.dns_cert = dns_cert_;
  resp.aid = as_.aid;
  resp.aa_ephid = aa_ephid_;

  counters_.add<&Stats::bootstrapped>();
  return resp;
}

}  // namespace apna::services
