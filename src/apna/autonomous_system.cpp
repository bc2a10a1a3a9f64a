#include "apna/autonomous_system.h"

namespace apna {

AutonomousSystem::AutonomousSystem(Config cfg, net::EventLoop& loop,
                                   net::Topology& topo,
                                   net::InterAsNetwork& network,
                                   core::AsDirectory& directory,
                                   services::DnsZone& zone)
    : cfg_(std::move(cfg)),
      loop_(loop),
      topo_(topo),
      network_(network),
      directory_(directory),
      rng_(cfg_.rng_seed != 0 ? cfg_.rng_seed
                              : 0x5eed0000ULL + cfg_.aid) {
  state_ = std::make_unique<core::AsState>(
      cfg_.aid, core::AsSecrets::generate(rng_));
  switch_ = std::make_unique<net::IntraSwitch>(loop_,
                                               cfg_.intra_hop_latency_us);
  rs_ = std::make_unique<services::RegistryService>(*state_, subs_, loop_,
                                                    rng_, cfg_.rs);

  // Service identities. The AA comes first so its EphID can be embedded in
  // every certificate (§IV-C).
  const core::ExpTime service_exp =
      loop_.now_seconds() + cfg_.lifetimes.long_s;
  auto aa_ident = services::make_service_identity(
      *state_, rs_->allocate_hid(), service_exp, 0, nullptr, rng_);
  const core::EphId aa_ephid = aa_ident.cert.ephid;
  auto ms_ident = services::make_service_identity(
      *state_, rs_->allocate_hid(), service_exp, 0, &aa_ephid, rng_);
  auto dns_ident = services::make_service_identity(
      *state_, rs_->allocate_hid(), service_exp, 0, &aa_ephid, rng_);
  auto br_ident = services::make_service_identity(
      *state_, rs_->allocate_hid(), service_exp, 0, &aa_ephid, rng_);

  rs_->set_service_info(ms_ident.cert, dns_ident.cert, aa_ephid);

  ms_ = std::make_unique<services::ManagementService>(
      *state_, loop_, rng_, std::move(ms_ident), cfg_.lifetimes);
  aa_ = std::make_unique<services::AccountabilityAgent>(
      *state_, directory_, loop_, std::move(aa_ident));
  resolver_ = std::make_unique<dns::Resolver>(zone, loop_, cfg_.dns);
  resolver_->set_accountability(aa_.get());
  // The AA consumes the resolver's trie-backed policy through its hook, so
  // per-domain shutoff rules ride the Fig-5 revocation path.
  aa_->set_domain_policy(&resolver_->policy());
  dns_ = std::make_unique<dns::DnsService>(
      *state_, directory_, loop_, rng_, std::move(dns_ident), *resolver_);

  router::BorderRouter::Callbacks br_cb;
  br_cb.send_external = [this](wire::PacketBuf pkt) -> Result<void> {
    auto nh = topo_.next_hop(cfg_.aid, pkt.view().dst_aid());
    if (!nh) return Result<void>(nh.error());
    return network_.send(cfg_.aid, *nh, std::move(pkt));
  };
  br_cb.deliver_internal = [this](core::Hid hid,
                                  wire::PacketBuf pkt) -> Result<void> {
    return switch_->deliver(hid, std::move(pkt));
  };
  br_cb.now = [this] { return loop_.now_seconds(); };
  br_ = std::make_unique<router::BorderRouter>(*state_, std::move(br_cb),
                                               cfg_.br);
  router::RouterIdentity rid;
  rid.ephid = br_ident.cert.ephid;
  rid.aid = cfg_.aid;
  rid.mac_key = br_ident.keys.mac;
  br_->set_identity(rid);

  network_.register_border_router(cfg_.aid, [this](wire::PacketBuf pkt) {
    br_->on_ingress(std::move(pkt));
  });
  topo_.add_as(cfg_.aid);

  // The control-plane fabric: one dispatcher routes every inbound control
  // packet to the service owning its destination EphID, and each service's
  // reply is routed back through the AS fabric like any host's packet.
  dispatcher_ = std::make_unique<services::ServiceDispatcher>(
      [this](wire::PacketBuf reply) { route_from_inside(std::move(reply)); });
  dispatcher_->add(*ms_);
  dispatcher_->add(*aa_);
  dispatcher_->add(*dns_);
  for (services::ControlService* svc :
       {static_cast<services::ControlService*>(ms_.get()),
        static_cast<services::ControlService*>(aa_.get()),
        static_cast<services::ControlService*>(dns_.get())}) {
    switch_->attach(svc->service_hid(), [this](wire::PacketBuf pkt) {
      dispatcher_->dispatch(std::move(pkt));
    });
  }

  // Publish the AS's public parameters (RPKI stand-in).
  core::AsPublicInfo info;
  info.aid = cfg_.aid;
  info.sign_pub = state_->secrets.sign.pub;
  info.dh_pub = state_->secrets.dh.pub;
  info.aa_ephid = aa_ephid;
  directory_.register_as(info);
}

void AutonomousSystem::route_from_inside(wire::PacketBuf pkt) {
  if (pkt.view().dst_aid() == cfg_.aid) {
    // Intra-domain: destination checks + delivery by HID (the BR ingress
    // branch implements exactly the Fig 4 top pipeline).
    br_->on_ingress(std::move(pkt));
  } else {
    br_->on_outgoing(std::move(pkt));
  }
}

host::Host& AutonomousSystem::add_host(const std::string& name,
                                       host::Granularity granularity,
                                       crypto::AeadSuite suite) {
  const std::uint32_t subscriber = next_subscriber_++;
  const Bytes credential = rng_.bytes(16);
  subs_.add_subscriber(subscriber, credential);

  host::Host::Config cfg;
  cfg.name = name;
  cfg.subscriber_id = subscriber;
  cfg.credential = credential;
  cfg.granularity = granularity;
  cfg.suite = suite;

  auto h = std::make_unique<host::Host>(std::move(cfg), directory_, loop_);
  host::Host* ptr = h.get();

  // Uplink: first intra-AS hop, then the fabric routing decision. The
  // sealed buffer moves through the scheduled event — no copy per hop.
  ptr->set_uplink([this](wire::PacketBuf pkt) {
    loop_.schedule_in(cfg_.intra_hop_latency_us,
                      [this, pkt = std::move(pkt)]() mutable {
                        route_from_inside(std::move(pkt));
                      });
  });

  const auto boot = ptr->bootstrap(
      [this](const core::BootstrapRequest& req) { return rs_->bootstrap(req); });
  (void)boot;  // surfaced via host.bootstrapped()

  if (ptr->bootstrapped()) {
    switch_->attach(ptr->hid(), [ptr](wire::PacketBuf pkt) {
      ptr->on_packet(std::move(pkt));
    });
  }
  hosts_.push_back(std::move(h));
  return *ptr;
}

AutonomousSystem::Attachment AutonomousSystem::make_attachment() {
  Attachment a;
  a.bootstrap = [this](const core::BootstrapRequest& req) {
    return rs_->bootstrap(req);
  };
  a.uplink = [this](wire::PacketBuf pkt) {
    loop_.schedule_in(cfg_.intra_hop_latency_us,
                      [this, pkt = std::move(pkt)]() mutable {
                        route_from_inside(std::move(pkt));
                      });
  };
  return a;
}

void AutonomousSystem::attach_port(core::Hid hid, net::PacketHandler handler) {
  switch_->attach(hid, std::move(handler));
}

void AutonomousSystem::set_persist_sink(persist::Sink* sink) {
  rs_->set_persist_sink(sink);
  aa_->set_persist_sink(sink);
  resolver_->set_persist_sink(sink);
  resolver_->zone().set_persist_sink(sink);
}

}  // namespace apna
