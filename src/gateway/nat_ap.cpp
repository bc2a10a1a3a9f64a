#include "gateway/nat_ap.h"

#include "core/packet_auth.h"
#include "wire/msg_codec.h"

namespace apna::gw {

NatAccessPoint::NatAccessPoint(Config cfg, AutonomousSystem& parent,
                               core::AsDirectory& directory)
    : cfg_(std::move(cfg)),
      parent_(parent),
      directory_(directory),
      rng_(cfg_.rng_seed != 0 ? cfg_.rng_seed : 0xA9000000ULL + cfg_.private_aid),
      loop_(parent.loop()) {
  // --- Host side: the AP is an ordinary customer of the parent AS. ----------
  const auto account = parent_.enroll_subscriber();
  host::Host::Config hc;
  hc.name = cfg_.name;
  hc.subscriber_id = account.subscriber_id;
  hc.credential = account.credential;
  ap_host_ = std::make_unique<host::Host>(std::move(hc), directory_, loop_);

  auto attachment = parent_.make_attachment();
  ap_host_->set_uplink(attachment.uplink);
  const auto boot = ap_host_->bootstrap(attachment.bootstrap);
  (void)boot;
  // Intercept everything delivered to the AP's HID: inner traffic is
  // dispatched by EphID_info, the rest goes to the AP's own stack.
  parent_.attach_port(ap_host_->hid(), [this](wire::PacketBuf pkt) {
    on_downlink(std::move(pkt));
  });

  // --- Inner realm. -----------------------------------------------------------
  inner_as_ = std::make_unique<core::AsState>(
      cfg_.private_aid, core::AsSecrets::generate(rng_));
  inner_rs_ = std::make_unique<services::RegistryService>(
      *inner_as_, inner_subs_, loop_, rng_);

  inner_ms_ = services::make_service_identity(
      *inner_as_, inner_rs_->allocate_hid(),
      loop_.now_seconds() + 24 * 3600, 0, nullptr, rng_);
  // Inner bootstrap hands out: the AP's inner MS, the PARENT's DNS (data
  // path goes through the AP like any other traffic), and the parent's AA.
  core::EphId parent_aa;
  if (const auto info = directory_.lookup(parent_.aid()))
    parent_aa = info->aa_ephid;
  inner_rs_->set_service_info(inner_ms_.cert, ap_host_->dns_cert(),
                              parent_aa);

  // Register the private realm so inner hosts can validate their bootstrap
  // and the inner MS certificate.
  core::AsPublicInfo inner_info;
  inner_info.aid = cfg_.private_aid;
  inner_info.sign_pub = inner_as_->secrets.sign.pub;
  inner_info.dh_pub = inner_as_->secrets.dh.pub;
  inner_info.aa_ephid = parent_aa;
  directory_.register_as(inner_info);
}

host::Host& NatAccessPoint::add_inner_host(const std::string& name,
                                           host::Granularity granularity) {
  const std::uint32_t subscriber = next_inner_subscriber_++;
  const Bytes credential = rng_.bytes(16);
  inner_subs_.add_subscriber(subscriber, credential);

  host::Host::Config hc;
  hc.name = name;
  hc.subscriber_id = subscriber;
  hc.credential = credential;
  hc.granularity = granularity;
  auto h = std::make_unique<host::Host>(std::move(hc), directory_, loop_);
  host::Host* ptr = h.get();

  ptr->set_uplink([this](wire::PacketBuf pkt) {
    loop_.schedule_in(cfg_.inner_hop_latency_us,
                      [this, pkt = std::move(pkt)]() mutable {
                        on_inner_uplink(std::move(pkt));
                      });
  });
  const auto boot = ptr->bootstrap([this](const core::BootstrapRequest& req) {
    return inner_rs_->bootstrap(req);
  });
  (void)boot;
  if (ptr->bootstrapped()) inner_ports_[ptr->hid()] = ptr;
  inner_hosts_.push_back(std::move(h));
  return *ptr;
}

Result<core::Hid> NatAccessPoint::identify(const core::EphId& ephid) const {
  auto it = ephid_info_.find(ephid);
  if (it == ephid_info_.end())
    return Result<core::Hid>(Errc::not_found, "EphID not issued via this AP");
  return it->second;
}

void NatAccessPoint::deliver_to_inner(core::Hid inner_hid,
                                      wire::PacketBuf pkt) {
  auto it = inner_ports_.find(inner_hid);
  if (it == inner_ports_.end()) return;
  host::Host* h = it->second;
  loop_.schedule_in(cfg_.inner_hop_latency_us,
                    [h, pkt = std::move(pkt)]() mutable {
                      h->on_packet(std::move(pkt));
                    });
}

void NatAccessPoint::on_inner_uplink(wire::PacketBuf pkt) {
  // Internal destination? (inner control EphIDs decode under the AP's kA.)
  core::EphId dst;
  dst.bytes = pkt.view().dst_ephid();
  if (auto plain = inner_as_->codec.open(dst); plain.ok()) {
    if (plain->hid == inner_ms_.hid) {
      handle_inner_ms_request(pkt.view());
      return;
    }
    // Inner-to-inner traffic stays behind the AP.
    if (inner_ports_.contains(plain->hid)) {
      ++stats_.intra_ap;
      deliver_to_inner(plain->hid, std::move(pkt));
      return;
    }
  }
  // EphID_info lookup also covers inner→inner via real-AS EphIDs.
  if (auto it = ephid_info_.find(dst); it != ephid_info_.end()) {
    ++stats_.intra_ap;
    deliver_to_inner(it->second, std::move(pkt));
    return;
  }

  // Egress: the source EphID must have been issued via this AP, and the
  // packet must carry a valid MAC under the INNER host's key ("in addition
  // to verifying the MAC in the packets using the shared keys with its
  // hosts").
  core::EphId src;
  src.bytes = pkt.view().src_ephid();
  const auto owner = ephid_info_.find(src);
  if (owner == ephid_info_.end()) {
    ++stats_.drop_unknown_ephid;
    return;
  }
  const auto inner_rec = inner_as_->host_db.find(owner->second);
  if (!inner_rec || !core::verify_packet_mac(*inner_rec->cmac, pkt.view())) {
    ++stats_.drop_bad_inner_mac;
    return;
  }
  // NAT step: present the packet as the AP's own traffic — real AID
  // (rewritten in place at its fixed offset) and the AP's kHA MAC
  // (re-stamped in place by forward_as_own). Same buffer end to end.
  pkt.set_src_aid(parent_.aid());
  ++stats_.inner_out;
  ap_host_->forward_as_own(std::move(pkt));
}

void NatAccessPoint::on_downlink(wire::PacketBuf pkt) {
  core::EphId dst;
  dst.bytes = pkt.view().dst_ephid();
  if (auto it = ephid_info_.find(dst); it != ephid_info_.end()) {
    ++stats_.inner_in;
    deliver_to_inner(it->second, std::move(pkt));
    return;
  }
  // Not an inner EphID: the AP's own traffic (EphID replies, DNS, ...).
  ap_host_->on_packet(std::move(pkt));
}

void NatAccessPoint::handle_inner_ms_request(const wire::PacketView& pkt) {
  // Validate exactly like a real MS (Fig 3), against the INNER realm.
  core::EphId ctrl;
  ctrl.bytes = pkt.src_ephid();
  auto plain = inner_as_->codec.open(ctrl);
  if (!plain || plain->exp_time < loop_.now_seconds()) return;
  const auto inner_rec = inner_as_->host_db.find(plain->hid);
  if (!inner_rec) return;

  auto payload = core::open_control(inner_rec->keys, /*from_host=*/true,
                                    pkt.payload());
  if (!payload) return;
  auto request = core::decode_msg<core::EphIdRequest>(*payload);
  if (!request) return;

  // Proxy upstream with the INNER host's public key (§VII-B difference 1),
  // then record the binding and answer the inner host. Only the reply
  // address survives the async hop — no packet copy is captured.
  const core::Hid inner_hid = plain->hid;
  const core::Aid reply_aid = pkt.src_aid();
  const wire::EphIdBytes reply_ephid = pkt.src_ephid();
  ap_host_->request_ephid_for(
      request->ephid_pub, request->pop_sig, request->lifetime, request->flags,
      [this, inner_hid, reply_aid, reply_ephid,
       inner_keys = inner_rec->keys](Result<core::EphIdCertificate> cert) {
        if (!cert.ok()) return;
        // Difference 2: the AP tracks EphID → inner host as a list, since
        // the EphID decrypts to the AP's HID, not the inner host's.
        ephid_info_[cert->ephid] = inner_hid;
        ++stats_.proxied_ephids;

        core::EphIdResponse resp;
        resp.cert = cert.take();
        wire::MsgWriter plain(192);
        resp.encode(plain);
        wire::PacketWriter pw(cfg_.private_aid, inner_ms_.cert.ephid.bytes,
                              reply_aid, reply_ephid,
                              wire::NextProto::control);
        core::seal_control_into(pw, inner_keys, inner_ms_nonce_++,
                                /*from_host=*/false, plain.span());
        wire::PacketBuf out = pw.finish();
        core::stamp_packet_mac(*inner_ms_.cmac, out);
        deliver_to_inner(inner_hid, std::move(out));
      });
}

}  // namespace apna::gw
