// AutonomousSystem — one AS's complete APNA deployment (Fig 1):
// Registry Service, Management Service, Accountability Agent, DNS service,
// border router, intra-domain switch, plus the customer hosts attached to
// it. Wires everything to the simulated network and registers the AS's
// public keys in the directory (RPKI stand-in).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/as_directory.h"
#include "core/as_state.h"
#include "host/host.h"
#include "net/network.h"
#include "net/sim.h"
#include "net/topology.h"
#include "dns/dns_service.h"
#include "dns/resolver.h"
#include "persist/sink.h"
#include "router/border_router.h"
#include "services/accountability_agent.h"
#include "services/dns_zone.h"
#include "services/management_service.h"
#include "services/registry_service.h"
#include "services/service_runtime.h"
#include "services/subscriber_registry.h"

namespace apna {

class AutonomousSystem {
 public:
  struct Config {
    core::Aid aid = 0;
    std::string name;
    std::uint64_t rng_seed = 0;  // 0 = derived from aid
    net::TimeUs intra_hop_latency_us = 50;
    services::ManagementService::LifetimePolicy lifetimes{};
    router::BorderRouter::Config br{};
    services::RegistryService::Config rs{};
    dns::Resolver::Config dns{};
  };

  AutonomousSystem(Config cfg, net::EventLoop& loop, net::Topology& topo,
                   net::InterAsNetwork& network, core::AsDirectory& directory,
                   services::DnsZone& zone);

  AutonomousSystem(const AutonomousSystem&) = delete;
  AutonomousSystem& operator=(const AutonomousSystem&) = delete;

  /// Enrolls a subscriber, creates its host, bootstraps it (Fig 2) and
  /// attaches it to the intra-domain switch.
  host::Host& add_host(const std::string& name,
                       host::Granularity granularity = host::Granularity::per_flow,
                       crypto::AeadSuite suite =
                           crypto::AeadSuite::chacha20_poly1305);

  /// Attaches an externally created node (e.g. an access point) as if it
  /// were a host: enrolls a subscriber and returns the bootstrap hook plus
  /// uplink. Used by the gateway module (§VII-B).
  struct Attachment {
    host::Host::BootstrapFn bootstrap;
    host::Host::SendFn uplink;
  };
  Attachment make_attachment();

  /// Enrolls a new subscriber account (for externally constructed hosts,
  /// access points and gateways). Returns the login credentials.
  struct SubscriberAccount {
    std::uint32_t subscriber_id;
    Bytes credential;
  };
  SubscriberAccount enroll_subscriber() {
    SubscriberAccount acc;
    acc.subscriber_id = next_subscriber_++;
    acc.credential = rng_.bytes(16);
    subs_.add_subscriber(acc.subscriber_id, acc.credential);
    return acc;
  }

  /// Registers a packet handler for an already-bootstrapped HID.
  void attach_port(core::Hid hid, net::PacketHandler handler);

  /// Wires the durability hook through every control-plane mutation site
  /// this AS owns (RS bootstrap, AA revocation, zone put/erase, resolver
  /// domain blocks; MS issuance journals nothing, see ManagementService).
  /// nullptr detaches — the default, so the hot paths keep their
  /// allocation gates. The shared DnsZone is included: in multi-AS
  /// deployments attach persistence to ONE AS (the zone's operator) or
  /// records duplicate.
  void set_persist_sink(persist::Sink* sink);

  /// Routes a packet originating inside this AS (host or service uplink).
  /// Consumes the buffer — it moves through the BR unchanged.
  void route_from_inside(wire::PacketBuf pkt);

  core::Aid aid() const { return cfg_.aid; }
  core::AsState& state() { return *state_; }
  const core::AsState& state() const { return *state_; }
  services::RegistryService& rs() { return *rs_; }
  services::ManagementService& ms() { return *ms_; }
  services::AccountabilityAgent& aa() { return *aa_; }
  dns::DnsService& dns() { return *dns_; }
  /// This AS's resolver: shared-zone lookups through the per-AS cache and
  /// domain policy (wired into the AA's DomainPolicy hook).
  dns::Resolver& resolver() { return *resolver_; }
  /// The control-plane fabric: routes inbound control packets to the
  /// service owning the destination EphID (MS, AA, DNS).
  services::ServiceDispatcher& dispatcher() { return *dispatcher_; }
  router::BorderRouter& br() { return *br_; }
  net::IntraSwitch& intra_switch() { return *switch_; }
  services::SubscriberRegistry& subscribers() { return subs_; }
  net::EventLoop& loop() { return loop_; }
  core::AsDirectory& directory_ref() { return directory_; }
  crypto::Rng& rng() { return rng_; }
  const std::vector<std::unique_ptr<host::Host>>& hosts() const {
    return hosts_;
  }

 private:
  Config cfg_;
  net::EventLoop& loop_;
  net::Topology& topo_;
  net::InterAsNetwork& network_;
  core::AsDirectory& directory_;
  crypto::ChaChaRng rng_;

  std::unique_ptr<core::AsState> state_;
  services::SubscriberRegistry subs_;
  std::unique_ptr<net::IntraSwitch> switch_;
  std::unique_ptr<services::RegistryService> rs_;
  std::unique_ptr<services::ManagementService> ms_;
  std::unique_ptr<services::AccountabilityAgent> aa_;
  std::unique_ptr<dns::Resolver> resolver_;
  std::unique_ptr<dns::DnsService> dns_;
  std::unique_ptr<services::ServiceDispatcher> dispatcher_;
  std::unique_ptr<router::BorderRouter> br_;

  std::vector<std::unique_ptr<host::Host>> hosts_;
  std::uint32_t next_subscriber_ = 1000;
};

}  // namespace apna
