// NAT-mode Access Point (§VII-B).
//
// "the AP creates a small domain of its own while acting as a host to the
// AS network. That is, the AP performs the protocol described in Section IV
// as a host to the AS while playing the roles of a RS, an MS, a router, and
// an accountability agent on behalf of its clients."
//
// Concretely:
//  * as RS     — bootstraps inner hosts into the AP's private realm
//                (its own kA, HIDs and control EphIDs);
//  * as MS     — proxies EphID requests to the real AS's MS using the
//                key supplied by the inner host; the resulting certificates
//                are issued and signed by the REAL AS, so inner hosts
//                interoperate with the whole Internet unchanged;
//  * as router — keeps EphID_info (EphID → inner host), verifies inner
//                packet MACs and re-MACs outgoing traffic under its own
//                kHA ("the AP replaces the MAC using its shared key with
//                the AS before forwarding"), one packet per event as inner
//                hosts transmit, in place on the same buffer;
//  * as AA     — identify() maps a misbehaving EphID back to the inner
//                host ("the AS holds the AP accountable for misbehaving
//                EphIDs. Then, the AP determines the host").
//
// §VIII-E (APNA-as-a-Service) reuses this class: a downstream AS is exactly
// a connection-sharing device from the upstream ISP's point of view.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "apna/autonomous_system.h"
#include "core/as_state.h"
#include "host/host.h"
#include "services/registry_service.h"
#include "services/service_identity.h"

namespace apna::gw {

class NatAccessPoint {
 public:
  struct Config {
    std::string name = "ap";
    /// The AP's private realm identifier (like an RFC1918 network); it is
    /// registered in the directory so inner bootstrap validates, but never
    /// appears in data-plane packets (the AP rewrites to the real AID).
    core::Aid private_aid = 0xFF000001;
    std::uint64_t rng_seed = 0;
    net::TimeUs inner_hop_latency_us = 20;
  };

  struct Stats {
    std::uint64_t inner_out = 0;        // inner → Internet packets
    std::uint64_t inner_in = 0;         // Internet → inner packets
    std::uint64_t proxied_ephids = 0;   // certificates obtained upstream
    std::uint64_t drop_bad_inner_mac = 0;
    std::uint64_t drop_unknown_ephid = 0;
    std::uint64_t intra_ap = 0;         // inner ↔ inner, never left the AP
  };

  NatAccessPoint(Config cfg, AutonomousSystem& parent,
                 core::AsDirectory& directory);

  /// Bootstraps an inner host into the AP's realm. The host object behaves
  /// exactly like a directly attached one (same class, same API).
  host::Host& add_inner_host(
      const std::string& name,
      host::Granularity granularity = host::Granularity::per_flow);

  /// AA role: which inner host owns this (real-AS-issued) EphID?
  Result<core::Hid> identify(const core::EphId& ephid) const;

  /// Raw injection on the inner wire — what any device on the AP's LAN
  /// segment can transmit (used by spoofing tests; the AP must drop
  /// packets that fail the inner MAC check).
  void inject_inner(wire::PacketBuf pkt) { on_inner_uplink(std::move(pkt)); }

  /// The AP's own host-side identity at the parent AS.
  host::Host& ap_host() { return *ap_host_; }
  core::Aid parent_aid() const { return parent_.aid(); }
  const Stats& stats() const { return stats_; }
  std::size_t ephid_info_size() const { return ephid_info_.size(); }

 private:
  // The four roles.
  void on_inner_uplink(wire::PacketBuf pkt);              // router (egress)
  void on_downlink(wire::PacketBuf pkt);                  // router (ingress)
  void handle_inner_ms_request(const wire::PacketView& pkt);  // MS proxy
  void deliver_to_inner(core::Hid inner_hid, wire::PacketBuf pkt);

  Config cfg_;
  AutonomousSystem& parent_;
  core::AsDirectory& directory_;
  crypto::ChaChaRng rng_;
  net::EventLoop& loop_;

  // Host side: the AP as a customer of the parent AS.
  std::unique_ptr<host::Host> ap_host_;

  // Inner realm: private AsState + RS + inner "MS" endpoint.
  std::unique_ptr<core::AsState> inner_as_;
  services::SubscriberRegistry inner_subs_;
  std::unique_ptr<services::RegistryService> inner_rs_;
  services::ServiceIdentity inner_ms_;
  std::uint64_t inner_ms_nonce_ = 1;

  // EphID_info: real-AS EphID → inner host (§VII-B — "the AP keeps track of
  // the EphIDs that are assigned to the hosts as a list").
  std::unordered_map<core::EphId, core::Hid, core::EphIdHash> ephid_info_;

  // Inner hosts by inner HID.
  std::unordered_map<core::Hid, host::Host*> inner_ports_;
  std::vector<std::unique_ptr<host::Host>> inner_hosts_;
  std::uint32_t next_inner_subscriber_ = 1;

  Stats stats_;
};

}  // namespace apna::gw
