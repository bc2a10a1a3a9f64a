#include "scenario/scenario.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "core/as_persist.h"
#include "core/packet_auth.h"
#include "services/service_identity.h"

namespace apna::scenario {

namespace {

using WallClock = std::chrono::steady_clock;

double seconds_since(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

std::uint64_t aa_rejected_sum(const services::AccountabilityAgent::Stats& s) {
  return s.rejected_bad_cert + s.rejected_bad_sig + s.rejected_unauthorized +
         s.rejected_not_our_host + s.rejected_bad_mac + s.rejected_malformed;
}

}  // namespace

// ---- Phase DSL ---------------------------------------------------------------

Phase Phase::register_hosts(std::string name, std::uint64_t n) {
  Phase p;
  p.kind = Kind::register_hosts;
  p.name = std::move(name);
  p.joins = n;
  return p;
}

Phase Phase::churn(std::string name, std::uint64_t joins, std::uint64_t leaves,
                   std::uint64_t bursts, std::uint64_t burst_packets) {
  Phase p;
  p.kind = Kind::churn;
  p.name = std::move(name);
  p.joins = joins;
  p.leaves = leaves;
  p.bursts = bursts;
  p.burst_packets = burst_packets;
  return p;
}

Phase Phase::flash_crowd(std::string name, std::uint64_t joins,
                         std::uint64_t bursts, std::uint64_t burst_packets) {
  Phase p;
  p.kind = Kind::flash_crowd;
  p.name = std::move(name);
  p.joins = joins;
  p.bursts = bursts;
  p.burst_packets = burst_packets;
  return p;
}

Phase Phase::traffic(std::string name, std::uint64_t bursts,
                     std::uint64_t burst_packets, double zipf_s) {
  Phase p;
  p.kind = Kind::traffic;
  p.name = std::move(name);
  p.bursts = bursts;
  p.burst_packets = burst_packets;
  p.zipf_s = zipf_s;
  return p;
}

Phase Phase::flood(std::string name, std::uint64_t bursts,
                   std::uint64_t burst_packets, double bogus_fraction,
                   double garbage_fraction) {
  Phase p;
  p.kind = Kind::flood;
  p.name = std::move(name);
  p.bursts = bursts;
  p.burst_packets = burst_packets;
  p.bogus_fraction = bogus_fraction;
  p.garbage_fraction = garbage_fraction;
  return p;
}

Phase Phase::shutoff_storm(std::string name, std::uint64_t requests) {
  Phase p;
  p.kind = Kind::shutoff_storm;
  p.name = std::move(name);
  p.requests = requests;
  return p;
}

Phase Phase::revocation_wave(std::string name, std::uint64_t revocations,
                             std::uint64_t waves, std::uint64_t bursts,
                             std::uint64_t burst_packets) {
  Phase p;
  p.kind = Kind::revocation_wave;
  p.name = std::move(name);
  p.revocations = revocations;
  p.waves = waves == 0 ? 1 : waves;
  p.bursts = bursts;
  p.burst_packets = burst_packets;
  return p;
}

Phase Phase::replay_tamper(std::string name, std::uint64_t bursts,
                           std::uint64_t burst_packets) {
  Phase p;
  p.kind = Kind::replay_tamper;
  p.name = std::move(name);
  p.bursts = bursts;
  p.burst_packets = burst_packets;
  return p;
}

Phase Phase::dns_storm(std::string name, std::uint64_t names,
                       std::uint64_t junk_lookups, std::uint64_t bursts,
                       std::uint64_t burst_packets) {
  Phase p;
  p.kind = Kind::dns_storm;
  p.name = std::move(name);
  p.joins = names;
  p.requests = junk_lookups;
  p.bursts = bursts;
  p.burst_packets = burst_packets;
  return p;
}

Phase Phase::kill_recover(std::string name, std::uint64_t revocations,
                          std::uint64_t domain_blocks, std::uint64_t dns_names,
                          std::uint64_t probes) {
  Phase p;
  p.kind = Kind::kill_recover;
  p.name = std::move(name);
  p.revocations = revocations;
  p.requests = domain_blocks;
  p.joins = dns_names;
  p.bursts = probes;
  return p;
}

const char* Phase::kind_name() const {
  switch (kind) {
    case Kind::register_hosts: return "register_hosts";
    case Kind::churn: return "churn";
    case Kind::flash_crowd: return "flash_crowd";
    case Kind::traffic: return "traffic";
    case Kind::flood: return "flood";
    case Kind::shutoff_storm: return "shutoff_storm";
    case Kind::revocation_wave: return "revocation_wave";
    case Kind::replay_tamper: return "replay_tamper";
    case Kind::dns_storm: return "dns_storm";
    case Kind::kill_recover: return "kill_recover";
  }
  return "?";
}

// ---- Engine internals --------------------------------------------------------

/// One reusable legitimate packet: the sealed zero-copy image the pool
/// classifies, the raw wire bytes send_raw injects, and the identity it was
/// built from (revocation waves target working-set flows by EphID).
struct Engine::SealedFlow {
  core::Hid hid = 0;
  core::EphId ephid;
  wire::PacketBuf buf;
  Bytes raw;
};

/// Inverse-CDF Zipf over [0, n): P(k) ∝ 1/(k+1)^s. Self-seeded so a
/// phase's traffic stream is one deterministic function of the engine RNG
/// state at phase entry. (bench_util.h has the benchmark twin; the library
/// cannot depend on bench/.)
class Engine::ZipfPicker {
 public:
  ZipfPicker(std::size_t n, double s, std::uint64_t seed) : cdf_(n), rng_(seed) {
    double total = 0;
    for (std::size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  std::size_t next() {
    const double u = rng_.uniform_double();
    return static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
  crypto::ChaChaRng rng_;
};

Engine::Engine(const Config& cfg) : cfg_(cfg), rng_(cfg.seed) {
  as_ = std::make_unique<core::AsState>(cfg.aid,
                                        core::AsSecrets::generate(rng_));
  remote_ = std::make_unique<core::AsState>(cfg.remote_aid,
                                            core::AsSecrets::generate(rng_));
  for (core::AsState* s : {as_.get(), remote_.get()}) {
    core::AsPublicInfo info;
    info.aid = s->aid;
    info.sign_pub = s->secrets.sign.pub;
    info.dh_pub = s->secrets.dh.pub;
    dir_.register_as(info);
  }
  subs_.add_subscriber(1, to_bytes("scenario"));
  rs_ = std::make_unique<services::RegistryService>(*as_, subs_, loop_, rng_);
  auto aa_ident = services::make_service_identity(
      *as_, rs_->allocate_hid(), loop_.now_seconds() + 30 * 86400, 0, nullptr,
      rng_);
  aa_ = std::make_unique<services::AccountabilityAgent>(*as_, dir_, loop_,
                                                        std::move(aa_ident));

  router::BorderRouter::Callbacks cb;
  // Count-only edges: consume (and pool-recycle) the handed-off buffers
  // like a transmit queue with no simulator behind it.
  cb.send_external = [](wire::PacketBuf) { return Result<void>::success(); };
  cb.deliver_internal = [](core::Hid, wire::PacketBuf) {
    return Result<void>::success();
  };
  cb.now = [this] { return now_; };
  br_ = std::make_unique<router::BorderRouter>(*as_, std::move(cb));

  router::ForwardingPool::Config pc;
  pc.threads = cfg.threads;
  pool_ = std::make_unique<router::ForwardingPool>(*br_, pc);

  attacker_tx_ = std::make_unique<net::SimTransport>(loop_);
  router_rx_ = std::make_unique<net::SimTransport>(loop_);
  to_router_ = attacker_tx_->add_peer(*router_rx_);
  router_rx_->add_peer(*attacker_tx_);
  router_rx_->set_rx([this](net::PeerId, wire::PacketBuf pkt) {
    rx_staging_.push_back(std::move(pkt));
  });

  now_ = net::kEpochSeconds;

  victim_kp_ = core::EphIdKeyPair::generate(rng_);
  victim_cert_.ephid = remote_->codec.issue(9, now_ + 86400, rng_);
  victim_cert_.exp_time = now_ + 86400;
  victim_cert_.pub = victim_kp_.pub;
  victim_cert_.aid = remote_->aid;
  victim_cert_.aa_ephid = victim_cert_.ephid;
  victim_cert_.sign_with(remote_->secrets.sign);

  if (cfg_.persist) {
    // In-memory "disk": deterministic, and it survives the kill_recover
    // phase's destruction of the world above it.
    vfs_ = std::make_unique<persist::MemVfs>();
    attach_persistence();
  }
}

void Engine::attach_persistence(core::ServiceRecords services) {
  services::PersistCoordinator::Config pc;
  pc.seed = cfg_.seed;
  pc.git_sha = "scenario-engine";  // fixed provenance — JSON stays seed-pure
  persist_coord_ = std::make_unique<services::PersistCoordinator>(
      *vfs_, "as-" + std::to_string(cfg_.aid), *as_, pc);
  persist_coord_->seed(std::move(services));
  // MemVfs cannot fail; a failed start on a real Vfs would leave the
  // engine running non-durably, which is the degraded contract anyway.
  (void)persist_coord_->start();
  persist_sink_ = persist_coord_.get();
  rs_->set_persist_sink(persist_sink_);
  aa_->set_persist_sink(persist_sink_);
  if (dns_zone_) dns_zone_->set_persist_sink(persist_sink_);
  if (dns_resolver_) dns_resolver_->set_persist_sink(persist_sink_);
}

core::HostAsKeys Engine::host_keys(core::Hid hid) const {
  // Per-host keys are a pure function of (seed, hid): SplitMix64-style
  // stream selection into a dedicated ChaCha stream. No per-host key
  // storage — at 10⁶ hosts a parallel key vector would dwarf the database
  // under measurement.
  std::uint64_t x = cfg_.seed ^ (0x9e3779b97f4a7c15ull * (hid + 1));
  crypto::ChaChaRng r(x);
  core::HostAsKeys k;
  r.fill(MutByteSpan(k.enc.data(), k.enc.size()));
  r.fill(MutByteSpan(k.mac.data(), k.mac.size()));
  return k;
}

void Engine::do_register(std::uint64_t n, PhaseReport& r) {
  for (std::uint64_t i = 0; i < n; ++i) {
    const core::Hid hid = next_hid_++;
    core::HostRecord rec;
    rec.hid = hid;
    rec.keys = host_keys(hid);
    rec.subscriber_id = 1;
    as_->host_db.upsert(rec);
    core::emit_host_upsert(persist_sink_, rec);
  }
  r.joins += n;
}

void Engine::do_leave(std::uint64_t n, PhaseReport& r) {
  // Diurnal model: the oldest registrations leave first.
  for (std::uint64_t i = 0; i < n && first_hid_ < next_hid_; ++i) {
    as_->host_db.erase(first_hid_);
    core::emit_host_erase(persist_sink_, first_hid_);
    ++first_hid_;
  }
  r.leaves += n;
}

std::vector<Engine::SealedFlow> Engine::build_working_set(std::size_t flows) {
  const std::uint64_t live = next_hid_ - first_hid_;
  flows = static_cast<std::size_t>(
      std::min<std::uint64_t>(flows, live));
  std::vector<SealedFlow> out;
  out.reserve(flows);
  for (std::size_t i = 0; i < flows; ++i) {
    SealedFlow f;
    f.hid = first_hid_ + static_cast<core::Hid>((live * i) / flows);
    f.ephid = as_->codec.issue(f.hid, now_ + 7200, rng_);
    wire::Packet pkt;
    pkt.src_aid = cfg_.aid;
    pkt.dst_aid = cfg_.remote_aid;
    pkt.src_ephid = f.ephid.bytes;
    rng_.fill(MutByteSpan(pkt.dst_ephid.data(), 16));
    pkt.proto = wire::NextProto::data;
    pkt.payload = rng_.bytes(64);
    core::stamp_packet_mac(
        crypto::AesCmac(ByteSpan(host_keys(f.hid).mac.data(), 16)), pkt);
    f.buf = pkt.seal();
    f.raw = pkt.serialize();
    out.push_back(std::move(f));
  }
  return out;
}

void Engine::do_traffic(const Phase& p, PhaseReport& r) {
  if (next_hid_ == first_hid_ || p.bursts == 0 || p.burst_packets == 0) return;
  const auto ws = build_working_set(cfg_.active_flows);
  ZipfPicker zipf(ws.size(), p.zipf_s, rng_.next_u64());
  std::vector<wire::PacketView> burst(p.burst_packets);
  for (std::uint64_t b = 0; b < p.bursts; ++b) {
    for (auto& v : burst) v = ws[zipf.next()].buf.view();
    pool_->process_outgoing(burst, now_);
    r.packets += burst.size();
    ++now_;
  }
}

void Engine::do_flood(const Phase& p, PhaseReport& r) {
  if (next_hid_ == first_hid_ || p.bursts == 0 || p.burst_packets == 0) return;
  const auto ws = build_working_set(cfg_.active_flows);
  const std::uint32_t garbage_mark =
      static_cast<std::uint32_t>(p.garbage_fraction * 1000.0);
  const std::uint32_t bogus_mark =
      garbage_mark + static_cast<std::uint32_t>(p.bogus_fraction * 1000.0);
  std::vector<wire::PacketView> views;
  for (std::uint64_t b = 0; b < p.bursts; ++b) {
    rx_staging_.clear();
    for (std::uint64_t i = 0; i < p.burst_packets; ++i) {
      const std::uint32_t u = rng_.next_u32() % 1000;
      if (u < garbage_mark) {
        // Unparseable frame: dies at PacketView::bind (rx_rejected), never
        // reaches the router, never allocates on the RX path.
        const Bytes junk = rng_.bytes(8 + rng_.next_u32() % 24);
        attacker_tx_->send_raw(to_router_, ByteSpan(junk.data(), junk.size()));
      } else if (u < bogus_mark) {
        // Well-formed frame with a forged EphID: passes bind, reaches
        // classification, drops at authenticated EphID decryption — and
        // must never be inserted into any worker's FlowCache.
        wire::Packet pkt;
        pkt.src_aid = cfg_.aid;
        pkt.dst_aid = cfg_.remote_aid;
        rng_.fill(MutByteSpan(pkt.src_ephid.data(), 16));
        rng_.fill(MutByteSpan(pkt.dst_ephid.data(), 16));
        rng_.fill(MutByteSpan(pkt.mac.data(), pkt.mac.size()));
        pkt.proto = wire::NextProto::data;
        pkt.payload = rng_.bytes(32);
        const Bytes raw = pkt.serialize();
        attacker_tx_->send_raw(to_router_, ByteSpan(raw.data(), raw.size()));
      } else {
        const SealedFlow& f = ws[rng_.next_u32() % ws.size()];
        attacker_tx_->send_raw(to_router_, ByteSpan(f.raw.data(), f.raw.size()));
      }
    }
    router_rx_->poll();
    views.clear();
    for (const wire::PacketBuf& buf : rx_staging_) views.push_back(buf.view());
    pool_->process_outgoing(views, now_);
    r.packets += views.size();
    ++now_;
  }
  rx_staging_.clear();
}

core::ShutoffRequest Engine::make_storm_request(core::Hid attacker,
                                                std::uint32_t serial) {
  wire::Packet pkt;
  pkt.src_aid = cfg_.aid;
  pkt.src_ephid = as_->codec.issue(attacker, now_ + 900, rng_).bytes;
  pkt.dst_aid = remote_->aid;
  pkt.dst_ephid = victim_cert_.ephid.bytes;
  pkt.proto = wire::NextProto::data;
  pkt.payload = to_bytes("storm#" + std::to_string(serial));
  core::stamp_packet_mac(
      crypto::AesCmac(ByteSpan(host_keys(attacker).mac.data(), 16)), pkt);
  core::ShutoffRequest req;
  req.offending_packet = pkt.serialize();
  req.sig = victim_kp_.sign(ByteSpan(req.offending_packet.data(),
                                     req.offending_packet.size()));
  req.dst_cert = victim_cert_;
  return req;
}

void Engine::do_shutoff_storm(const Phase& p, PhaseReport& r) {
  const std::uint64_t live = next_hid_ - first_hid_;
  if (live == 0 || p.requests == 0) return;
  // A small attacker pool: enough requests per host to trip the §VIII-G2
  // escalation threshold mid-storm.
  const std::uint64_t attackers = std::min<std::uint64_t>(8, live);
  std::vector<double> lat_us;
  lat_us.reserve(p.requests);
  for (std::uint64_t q = 0; q < p.requests; ++q) {
    const core::Hid attacker =
        first_hid_ + static_cast<core::Hid>(q % attackers);
    const auto req = make_storm_request(attacker,
                                        static_cast<std::uint32_t>(q));
    const auto t0 = WallClock::now();
    (void)aa_->process(req, now_);
    lat_us.push_back(seconds_since(t0) * 1e6);
  }
  r.shutoff_requests += p.requests;
  std::sort(lat_us.begin(), lat_us.end());
  r.wall_shutoff_p50_us = lat_us[lat_us.size() / 2];
  r.wall_shutoff_p99_us = lat_us[lat_us.size() * 99 / 100];
}

void Engine::do_revocation_wave(const Phase& p, PhaseReport& r) {
  const std::uint64_t live = next_hid_ - first_hid_;
  if (live == 0 || p.revocations == 0) return;
  const auto ws = build_working_set(cfg_.active_flows);
  ZipfPicker zipf(ws.size(), p.zipf_s, rng_.next_u64());
  std::vector<wire::PacketView> burst(p.burst_packets);
  const std::uint64_t per_wave = std::max<std::uint64_t>(
      1, p.revocations / p.waves);
  std::uint64_t applied = 0;
  for (std::uint64_t w = 0; w < p.waves && applied < p.revocations; ++w) {
    for (std::uint64_t i = 0; i < per_wave && applied < p.revocations; ++i) {
      core::EphId ephid;
      core::Hid hid;
      if (i == 0 && w < ws.size()) {
        // Each wave also kills one ACTIVE working-set flow, so the
        // following bursts show real drop_revoked traffic, not just the
        // epoch-invalidation miss storm.
        ephid = ws[w].ephid;
        hid = ws[w].hid;
      } else {
        hid = first_hid_ + static_cast<core::Hid>(rng_.next_u64() % live);
        ephid = as_->codec.issue(hid, now_ + 7200, rng_);
      }
      as_->revoked.revoke_ephid(ephid, now_ + 7200, hid);
      core::emit_revoke_ephid(persist_sink_, ephid, now_ + 7200, hid);
      ++applied;
    }
    // The wave bumped VerdictEpoch `per_wave` times: every cached verdict
    // in every worker is now stale. These bursts measure the collapse and
    // the re-verification recovery.
    for (std::uint64_t b = 0; b < p.bursts; ++b) {
      for (auto& v : burst) v = ws[zipf.next()].buf.view();
      pool_->process_outgoing(burst, now_);
      r.packets += burst.size();
    }
    ++now_;
  }
  r.revocations_applied += applied;
}

void Engine::do_replay_tamper(const Phase& p, PhaseReport& r) {
  if (next_hid_ == first_hid_ || p.bursts == 0 || p.burst_packets == 0) return;
  // A dedicated replay-filter router (§VIII-D egress filtering) over the
  // same AS state; the main pool stays filter-free so flood/traffic phases
  // measure the Fig 4 pipeline alone.
  router::BorderRouter::Callbacks cb;
  cb.send_external = [](wire::PacketBuf) { return Result<void>::success(); };
  cb.deliver_internal = [](core::Hid, wire::PacketBuf) {
    return Result<void>::success();
  };
  cb.now = [this] { return now_; };
  router::BorderRouter::Config rc;
  rc.replay_filter = true;
  router::BorderRouter rbr(*as_, std::move(cb), rc);

  const auto ws = build_working_set(std::min<std::size_t>(cfg_.active_flows, 64));
  std::vector<std::uint64_t> next_nonce(ws.size(), 1);
  std::vector<wire::PacketBuf> bufs;
  std::vector<wire::PacketView> views;
  std::vector<router::BorderRouter::Verdict> verdicts;
  for (std::uint64_t b = 0; b < p.bursts; ++b) {
    bufs.clear();
    views.clear();
    for (std::uint64_t i = 0; i < p.burst_packets; ++i) {
      const std::size_t fi = rng_.next_u32() % ws.size();
      const SealedFlow& f = ws[fi];
      const std::uint32_t kind = rng_.next_u32() % 4;
      wire::Packet pkt;
      pkt.src_aid = cfg_.aid;
      pkt.dst_aid = cfg_.remote_aid;
      pkt.src_ephid = f.ephid.bytes;
      rng_.fill(MutByteSpan(pkt.dst_ephid.data(), 16));
      pkt.proto = wire::NextProto::data;
      pkt.payload = rng_.bytes(48);
      // kind 0/2: fresh nonce. kind 1: replay the flow's previous nonce.
      // kind 3: fresh nonce, then tamper after stamping (drop_bad_mac).
      const std::uint64_t nonce =
          (kind == 1 && next_nonce[fi] > 1) ? next_nonce[fi] - 1
                                            : next_nonce[fi]++;
      pkt.set_nonce(nonce);
      core::stamp_packet_mac(
          crypto::AesCmac(ByteSpan(host_keys(f.hid).mac.data(), 16)), pkt);
      if (kind == 3 && !pkt.payload.empty()) pkt.payload[0] ^= 0x5a;
      bufs.push_back(pkt.seal());
    }
    for (const wire::PacketBuf& buf : bufs) views.push_back(buf.view());
    verdicts.assign(views.size(), router::BorderRouter::Verdict{});
    rbr.classify_outgoing_burst(views, now_, verdicts, replay_extra_);
    for (const auto& v : verdicts)
      if (v.err == Errc::ok) ++replay_extra_.forwarded_out;
    r.packets += views.size();
    ++now_;
  }
}

void Engine::ensure_dns() {
  if (dns_resolver_) return;
  dns_zone_ = std::make_unique<services::DnsZone>();
  dns::Resolver::Config rc;
  // Deliberately much smaller than the published working set can grow: the
  // storm has to contend for slots or the bounds being proven are vacuous.
  rc.cache.capacity = 1 << 14;
  dns_resolver_ = std::make_unique<dns::Resolver>(*dns_zone_, loop_, rc);
  if (persist_sink_ != nullptr) {
    dns_zone_->set_persist_sink(persist_sink_);
    dns_resolver_->set_persist_sink(persist_sink_);
  }
}

namespace {
std::string scenario_dns_name(std::uint64_t i) {
  return "h" + std::to_string(i) + ".svc.apna.example";
}
}  // namespace

void Engine::do_dns_storm(const Phase& p, PhaseReport& r) {
  ensure_dns();
  // Top up the positive working set (records carry an unsigned cert — the
  // resolver path under test does not verify publication signatures).
  for (std::uint64_t i = dns_names_; i < p.joins; ++i) {
    core::DnsRecord rec;
    rec.name = scenario_dns_name(i);
    rec.ipv4 = static_cast<std::uint32_t>(i + 1);
    rec.cert.aid = cfg_.aid;
    rec.cert.exp_time = now_ + 86400;
    dns_zone_->put(rec);
  }
  dns_names_ = std::max(dns_names_, p.joins);

  const auto before = dns_resolver_->stats();
  ZipfPicker zipf(static_cast<std::size_t>(dns_names_), p.zipf_s,
                  rng_.next_u64());
  auto positive_pass = [&] {
    for (std::uint64_t b = 0; b < p.bursts; ++b) {
      for (std::uint64_t k = 0; k < p.burst_packets; ++k)
        dns_resolver_->resolve(scenario_dns_name(zipf.next()), now_);
      ++now_;
    }
  };
  positive_pass();  // warm the cache with the legitimate distribution

  // The storm: random junk names, every one an NXDOMAIN. These MUST land in
  // the negative cache's bounded slice — never evict positives past it.
  for (std::uint64_t i = 0; i < p.requests; ++i) {
    char junk[20];
    std::snprintf(junk, sizeof junk, "x%016llx",
                  static_cast<unsigned long long>(rng_.next_u64()));
    dns_resolver_->resolve(std::string(junk) + ".flood.example", now_);
  }

  // Recovery: the same positive distribution again — its hit rate is the
  // "cache survived the storm" signal.
  const auto mid = dns_resolver_->stats();
  positive_pass();
  const auto after = dns_resolver_->stats();

  r.packets += after.lookups - before.lookups;
  r.dns_lookups = after.lookups - before.lookups;
  r.dns_cache_hits = after.cache_hits - before.cache_hits;
  r.dns_negative_hits = after.negative_hits - before.negative_hits;
  r.dns_zone_hits = after.zone_hits - before.zone_hits;
  r.dns_nxdomain = after.nxdomain - before.nxdomain;
  r.dns_negative_entries = dns_resolver_->cache().negative_size();
  r.dns_negative_capacity = dns_resolver_->cache().negative_capacity();
  const std::uint64_t rec_lookups = after.lookups - mid.lookups;
  const std::uint64_t rec_hits = after.cache_hits - mid.cache_hits;
  r.dns_recovery_hit_rate =
      rec_lookups ? static_cast<double>(rec_hits) / rec_lookups : 0.0;
}

void Engine::do_kill_recover(const Phase& p, PhaseReport& r) {
  if (!persist_coord_) return;  // requires Config::persist
  const std::uint64_t live = next_hid_ - first_hid_;

  // --- Pre-kill mutations, straddling a snapshot --------------------------
  // A revocation wave lands in the CURRENT generation's journal...
  std::vector<std::pair<core::EphId, core::Hid>> revoked;
  revoked.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(p.revocations, 1024)));
  for (std::uint64_t i = 0; i < p.revocations && live > 0; ++i) {
    const core::Hid hid =
        first_hid_ + static_cast<core::Hid>(rng_.next_u64() % live);
    const core::EphId ephid = as_->codec.issue(hid, now_ + 7200, rng_);
    as_->revoked.revoke_ephid(ephid, now_ + 7200, hid);
    core::emit_revoke_ephid(persist_sink_, ephid, now_ + 7200, hid);
    if (revoked.size() < 1024) revoked.emplace_back(ephid, hid);
    ++r.revocations_applied;
  }

  // ... then the snapshot rotates the journal, so everything below lives
  // only in the journal SUFFIX — recovery has to get both paths right.
  (void)persist_coord_->write_snapshot();

  ensure_dns();
  for (std::uint64_t i = dns_names_; i < p.joins; ++i) {
    core::DnsRecord rec;
    rec.name = scenario_dns_name(i);
    rec.ipv4 = static_cast<std::uint32_t>(i + 1);
    rec.cert.aid = cfg_.aid;
    rec.cert.exp_time = now_ + 86400;
    dns_zone_->put(rec);  // journaled through the zone's sink
  }
  dns_names_ = std::max(dns_names_, p.joins);

  // Fig-5 domain blocks over the freshly published head: each installs a
  // policy rule (journaled) and sweeps the record out of the zone (the
  // erase is journaled too).
  for (std::uint64_t i = 0; i < p.requests && i < dns_names_; ++i)
    dns_resolver_->block_domain(scenario_dns_name(i), now_);

  (void)persist_coord_->commit();  // the durability line the kill tests

  // --- Probe the pre-kill world -------------------------------------------
  const std::uint64_t probes = std::max<std::uint64_t>(1, p.bursts);

  // Forwarding probes: sealed packets from sampled live hosts, every 4th
  // one from a just-revoked EphID so both forward and drop verdicts cross
  // the kill. Built once; the same wire images classify on both sides.
  std::vector<wire::PacketBuf> fwd_bufs;
  const std::size_t fwd_n = static_cast<std::size_t>(
      std::min<std::uint64_t>(probes, 256));
  for (std::size_t i = 0; i < fwd_n && live > 0; ++i) {
    core::Hid hid;
    core::EphId ephid;
    if (i % 4 == 3 && !revoked.empty()) {
      const auto& [re, rh] = revoked[i % revoked.size()];
      ephid = re;
      hid = rh;
    } else {
      hid = first_hid_ + static_cast<core::Hid>((live * i) / fwd_n);
      ephid = as_->codec.issue(hid, now_ + 7200, rng_);
    }
    wire::Packet pkt;
    pkt.src_aid = cfg_.aid;
    pkt.dst_aid = cfg_.remote_aid;
    pkt.src_ephid = ephid.bytes;
    rng_.fill(MutByteSpan(pkt.dst_ephid.data(), 16));
    pkt.proto = wire::NextProto::data;
    pkt.payload = rng_.bytes(48);
    core::stamp_packet_mac(
        crypto::AesCmac(ByteSpan(host_keys(hid).mac.data(), 16)), pkt);
    fwd_bufs.push_back(pkt.seal());
  }

  // One deterministic answer blob per probe; pre and post must be equal
  // element-wise. Probes: host records (presence + kHA keys), revocation
  // verdicts, DNS zone bytes + policy verdicts, forwarding Errc stream.
  const auto build_probes = [&] {
    std::vector<Bytes> out;
    for (std::uint64_t i = 0; i < probes && live > 0; ++i) {
      const core::Hid hid =
          first_hid_ + static_cast<core::Hid>((live * i) / probes);
      Bytes b;
      if (auto h = as_->host_db.find(hid)) {
        b.push_back(1);
        b.insert(b.end(), h->keys.enc.begin(), h->keys.enc.end());
        b.insert(b.end(), h->keys.mac.begin(), h->keys.mac.end());
      } else {
        b.push_back(0);  // §VIII-G2 escalation may have erased it
      }
      b.push_back(as_->revoked.is_hid_revoked(hid) ? 1 : 0);
      out.push_back(std::move(b));
    }
    for (const auto& [ephid, hid] : revoked) {
      (void)hid;
      out.push_back(Bytes{as_->revoked.is_revoked(ephid)
                              ? std::uint8_t{1}
                              : std::uint8_t{0}});
    }
    const std::uint64_t dn = std::min<std::uint64_t>(dns_names_, probes);
    for (std::uint64_t i = 0; i < dn; ++i) {
      const std::string name = scenario_dns_name(i);
      Bytes b;
      b.push_back(dns_resolver_->policy().blocked(name, nullptr) ? 1 : 0);
      if (auto rec = dns_zone_->get(name)) {
        b.push_back(1);
        wire::MsgWriter rw(320);
        rec->encode(rw);
        append(b, rw.span());
      } else {
        b.push_back(0);  // swept by a block, or never published
      }
      out.push_back(std::move(b));
    }
    {
      // Classify through a fresh checks-only router each time so the
      // verdicts come straight from AsState, never a warmed cache.
      router::BorderRouter::Callbacks cb;
      cb.send_external = [](wire::PacketBuf) { return Result<void>::success(); };
      cb.deliver_internal = [](core::Hid, wire::PacketBuf) {
        return Result<void>::success();
      };
      cb.now = [this] { return now_; };
      router::BorderRouter probe_br(*as_, std::move(cb));
      std::vector<wire::PacketView> views;
      views.reserve(fwd_bufs.size());
      for (const wire::PacketBuf& buf : fwd_bufs) views.push_back(buf.view());
      std::vector<router::BorderRouter::Verdict> verdicts(views.size());
      router::BorderRouter::Stats scratch;
      probe_br.classify_outgoing_burst(views, now_, verdicts, scratch);
      Bytes fp;
      fp.reserve(verdicts.size());
      for (const auto& v : verdicts)
        fp.push_back(static_cast<std::uint8_t>(v.err));
      out.push_back(std::move(fp));
    }
    return out;
  };
  const std::vector<Bytes> pre = build_probes();

  const auto pre_stats = persist_coord_->stats();
  r.persist_records_appended = pre_stats.journal.appended;
  r.persist_snapshots_written = pre_stats.snapshots_written;

  // --- Kill: drop every in-memory structure above the Vfs -----------------
  persist_coord_.reset();
  persist_sink_ = nullptr;
  pool_.reset();
  br_.reset();
  aa_.reset();
  rs_.reset();
  dns_resolver_.reset();
  dns_zone_.reset();
  as_.reset();

  // --- Recover ------------------------------------------------------------
  auto recovered =
      core::AsState::recover(*vfs_, "as-" + std::to_string(cfg_.aid));
  core::AsStateRecovery rv;
  if (recovered) {
    rv = recovered.take();
    as_ = std::move(rv.as);
  } else {
    // Must not happen — rebuild an empty world so the engine stays usable
    // and let the mismatch count flag the failure loudly.
    as_ = std::make_unique<core::AsState>(cfg_.aid,
                                          core::AsSecrets::generate(rng_));
  }
  r.persist_snapshot_generation = rv.snapshot_generation;
  r.journal_records_replayed = rv.journal_records_replayed;
  r.journal_bytes_discarded = rv.journal_bytes_discarded;
  r.recovered_hosts = as_->host_db.size();
  r.recovered_revocations = as_->revoked.size();
  r.recovered_dns_records = rv.services.dns.size();
  r.recovered_domain_blocks = rv.services.blocked_domains.size();

  // Rebuild the infrastructure over the recovered state — the same
  // sequence as construction, so the rebuilt world is deterministic.
  rs_ = std::make_unique<services::RegistryService>(*as_, subs_, loop_, rng_);
  auto aa_ident = services::make_service_identity(
      *as_, rs_->allocate_hid(), loop_.now_seconds() + 30 * 86400, 0, nullptr,
      rng_);
  aa_ = std::make_unique<services::AccountabilityAgent>(*as_, dir_, loop_,
                                                        std::move(aa_ident));
  router::BorderRouter::Callbacks cb;
  cb.send_external = [](wire::PacketBuf) { return Result<void>::success(); };
  cb.deliver_internal = [](core::Hid, wire::PacketBuf) {
    return Result<void>::success();
  };
  cb.now = [this] { return now_; };
  br_ = std::make_unique<router::BorderRouter>(*as_, std::move(cb));
  router::ForwardingPool::Config fpc;
  fpc.threads = cfg_.threads;
  pool_ = std::make_unique<router::ForwardingPool>(*br_, fpc);

  // Reinstall the recovered above-core state into a fresh DNS world (no
  // sink yet — these are restorations, not new mutations to journal).
  ensure_dns();
  for (const auto& [name, rec] : rv.services.dns) dns_zone_->put(rec);
  for (const std::string& d : rv.services.blocked_domains)
    dns_resolver_->policy().block(d);

  // New coordinator over the recovered world: seeds carry the pre-crash
  // domain blocks and zone records, and start() publishes the post-recovery
  // snapshot generation.
  attach_persistence(std::move(rv.services));
  r.persist_snapshots_written += persist_coord_->stats().snapshots_written;

  // The rebuilt pool/AA counters start from zero — rebase the per-phase
  // delta baselines or the next phase's deltas underflow.
  last_router_ = {};
  last_cache_ = {};
  last_aa_ = {};

  // --- Re-probe and compare ----------------------------------------------
  const std::vector<Bytes> post = build_probes();
  r.verdict_probes = pre.size();
  const std::size_t n = std::min(pre.size(), post.size());
  for (std::size_t i = 0; i < n; ++i)
    if (pre[i] != post[i]) ++r.verdict_mismatches;
  r.verdict_mismatches += pre.size() > post.size() ? pre.size() - post.size()
                                                   : post.size() - pre.size();
}

void Engine::snapshot_world(PhaseReport& r) const {
  r.epoch = as_->epoch.current();
  r.live_hosts = as_->host_db.size();
  r.revoked_entries = as_->revoked.size();
  const auto mem = as_->host_db.memory_stats();
  r.host_db_bytes = mem.total();
  r.host_db_bytes_per_host = mem.bytes_per_host();
  r.revocation_bytes = as_->revoked.memory_bytes();
}

PhaseReport Engine::run_phase(const Phase& p) {
  PhaseReport r;
  r.name = p.name;
  r.kind = p.kind_name();
  const auto t0 = WallClock::now();
  switch (p.kind) {
    case Phase::Kind::register_hosts:
      do_register(p.joins, r);
      break;
    case Phase::Kind::churn:
    case Phase::Kind::flash_crowd:
      do_register(p.joins, r);
      do_leave(p.leaves, r);
      do_traffic(p, r);
      break;
    case Phase::Kind::traffic:
      do_traffic(p, r);
      break;
    case Phase::Kind::flood:
      do_flood(p, r);
      break;
    case Phase::Kind::shutoff_storm:
      do_shutoff_storm(p, r);
      break;
    case Phase::Kind::revocation_wave:
      do_revocation_wave(p, r);
      break;
    case Phase::Kind::replay_tamper:
      do_replay_tamper(p, r);
      break;
    case Phase::Kind::dns_storm:
      do_dns_storm(p, r);
      break;
    case Phase::Kind::kill_recover:
      do_kill_recover(p, r);
      break;
  }
  // Phase boundary = durability boundary: everything the phase journaled
  // is committed before its report exists.
  if (persist_coord_) (void)persist_coord_->commit();
  r.wall_seconds = seconds_since(t0);
  if (r.packets > 0 && r.wall_seconds > 0)
    r.wall_pps = static_cast<double>(r.packets) / r.wall_seconds;

  // Per-phase deltas of the monotone counter sets.
  auto cur_router = pool_->stats();
  auto cur_cache = pool_->flow_cache_stats();
  const auto cur_aa = aa_->stats();
  const auto cur_rx = router_rx_->stats();
  r.router = cur_router;
  r.router -= last_router_;
  last_router_ = cur_router;
  r.router += replay_extra_;  // replay phases classify outside the pool
  replay_extra_ = {};
  r.cache = cur_cache;
  r.cache -= last_cache_;
  // cross_worker_duplicates is a GAUGE over current cache contents, not a
  // monotone counter — report the current value, not a delta.
  r.cache.cross_worker_duplicates = cur_cache.cross_worker_duplicates;
  last_cache_ = cur_cache;
  r.aa_accepted = cur_aa.accepted - last_aa_.accepted;
  r.aa_rejected = aa_rejected_sum(cur_aa) - aa_rejected_sum(last_aa_);
  r.aa_hid_escalations = cur_aa.hid_escalations - last_aa_.hid_escalations;
  last_aa_ = cur_aa;
  r.rx_rejected = cur_rx.rx_rejected - last_rx_.rx_rejected;
  r.rx_delivered = cur_rx.rx_packets - last_rx_.rx_packets;
  last_rx_ = cur_rx;

  snapshot_world(r);
  ++now_;  // phase boundary tick
  return r;
}

std::vector<PhaseReport> Engine::run_script(const std::vector<Phase>& script) {
  std::vector<PhaseReport> out;
  out.reserve(script.size());
  for (const Phase& p : script) out.push_back(run_phase(p));
  return out;
}

// ---- Canned scripts ----------------------------------------------------------

std::vector<Phase> internet_scale_script(std::uint64_t hosts,
                                         std::uint64_t traffic_bursts) {
  // Joins total 117% of `hosts`, leaves 7% — the population ends ≥ `hosts`
  // live after a full diurnal cycle.
  const std::uint64_t b = std::max<std::uint64_t>(1, traffic_bursts);
  return {
      Phase::register_hosts("provision_base", hosts),
      Phase::traffic("morning_traffic", b, 256),
      Phase::churn("diurnal_day", hosts / 10, hosts / 20, b / 2 + 1, 256),
      Phase::flash_crowd("flash_crowd", hosts / 20, b, 512),
      Phase::churn("diurnal_night", hosts / 50, hosts / 50, b / 2 + 1, 256),
      Phase::traffic("steady_state", b, 256),
  };
}

std::vector<Phase> attack_storms_script(std::uint64_t hosts, bool smoke) {
  const std::uint64_t b = smoke ? 8 : 64;
  const std::uint64_t storm_requests = smoke ? 160 : 4000;
  const std::uint64_t wave_revocations = smoke ? 10'000 : 100'000;
  return {
      Phase::register_hosts("provision", hosts),
      Phase::traffic("baseline_traffic", b, 256),
      Phase::flood("bogus_ephid_flood", b, 512, 0.80, 0.10),
      Phase::traffic("recovery_after_flood", b, 256),
      Phase::shutoff_storm("fig5_shutoff_storm", storm_requests),
      Phase::revocation_wave("mass_revocation", wave_revocations, 8, b / 4 + 1,
                             256),
      Phase::traffic("recovery_after_revocation", b, 256),
      Phase::replay_tamper("replay_tamper", b, 256),
  };
}

std::vector<Phase> dns_storm_script(std::uint64_t names, bool smoke) {
  const std::uint64_t b = smoke ? 8 : 64;
  const std::uint64_t junk = smoke ? 50'000 : 2'000'000;
  return {
      // Baseline: publish + warm with no storm (recovery rate here is the
      // healthy reference).
      Phase::dns_storm("dns_baseline", names, 0, b, 512),
      // The storm proper: junk NXDOMAIN flood between the two positive
      // passes.
      Phase::dns_storm("dns_nxdomain_storm", names, junk, b, 512),
      // Post-storm steady state: bounds held, hit rate back to baseline.
      Phase::dns_storm("dns_recovery", names, 0, b, 512),
  };
}

std::vector<Phase> kill_recover_script(std::uint64_t hosts, bool smoke) {
  const std::uint64_t b = smoke ? 8 : 32;
  return {
      Phase::register_hosts("provision", hosts),
      Phase::traffic("warm_traffic", b, 256),
      // Fig-5 storm first: §VIII-G2 escalations erase HostDb entries, so
      // recovery has to reproduce absences as well as records.
      Phase::shutoff_storm("fig5_storm", smoke ? 80 : 800),
      Phase::kill_recover("kill_recover",
                          /*revocations=*/smoke ? 5'000 : 50'000,
                          /*domain_blocks=*/smoke ? 50 : 500,
                          /*dns_names=*/smoke ? 2'000 : 20'000,
                          /*probes=*/smoke ? 512 : 4'096),
      // The recovered world must still forward: same traffic shape as the
      // warm phase, classified by the rebuilt pool over recovered state.
      Phase::traffic("post_recovery_traffic", b, 256),
  };
}

// ---- Multi-AS sweep ----------------------------------------------------------

MultiAsReport run_multi_as(const MultiAsConfig& cfg) {
  const auto t0 = WallClock::now();
  crypto::ChaChaRng rng(cfg.seed);
  constexpr core::Hid kFirstHid = 65536;
  constexpr core::ExpTime kNow = net::kEpochSeconds;

  // The handful of hosts per AS that also source/sink traffic (only these
  // need their kHA MAC keys kept around). They are the YOUNGEST of the
  // initial population, so diurnal churn (which retires the oldest) never
  // invalidates a flow endpoint.
  const std::uint64_t flows_per_as = std::min<std::uint64_t>(
      32, std::max<std::uint64_t>(1, cfg.hosts_per_as));
  std::uint64_t churn_per_as = static_cast<std::uint64_t>(
      static_cast<double>(cfg.hosts_per_as) * cfg.churn_fraction);
  if (churn_per_as + flows_per_as > cfg.hosts_per_as)
    churn_per_as = cfg.hosts_per_as - flows_per_as;

  struct AsNode {
    std::unique_ptr<core::AsState> as;
    std::unique_ptr<router::BorderRouter> br;
    std::vector<core::HostAsKeys> flow_keys;  // flow_base + i ↔ flow_keys[i]
    core::Hid flow_base = 0;
    core::Hid first = kFirstHid, next = kFirstHid;
  };

  auto add_host = [&rng](AsNode& n) {
    core::HostRecord rec;
    rec.hid = n.next++;
    rng.fill(MutByteSpan(rec.keys.enc.data(), rec.keys.enc.size()));
    rng.fill(MutByteSpan(rec.keys.mac.data(), rec.keys.mac.size()));
    rec.subscriber_id = 1;
    n.as->host_db.upsert(rec);
    return rec.keys;
  };

  std::vector<AsNode> nodes(cfg.as_count);
  for (std::size_t k = 0; k < cfg.as_count; ++k) {
    AsNode& n = nodes[k];
    n.as = std::make_unique<core::AsState>(
        static_cast<core::Aid>(1000 + k), core::AsSecrets::generate(rng), 16,
        cfg.shard_count);
    router::BorderRouter::Callbacks cb;  // checks-only: no edges installed
    cb.now = [] { return kNow; };
    n.br = std::make_unique<router::BorderRouter>(*n.as, std::move(cb));
    n.flow_base = kFirstHid +
                  static_cast<core::Hid>(cfg.hosts_per_as - flows_per_as);
    for (std::uint64_t i = 0; i < cfg.hosts_per_as; ++i) {
      const auto keys = add_host(n);
      if (n.next - 1 >= n.flow_base) n.flow_keys.push_back(keys);
    }
  }

  MultiAsReport rep;
  rep.as_count = cfg.as_count;

  // Diurnal churn: a fraction of each AS's oldest hosts leave (each erase
  // bumps that AS's VerdictEpoch) and a same-size cohort of new ones joins
  // under fresh HIDs (§VI-A forbids reusing a HID for a new customer).
  for (AsNode& n : nodes) {
    for (std::uint64_t i = 0; i < churn_per_as && n.first < n.next; ++i)
      n.as->host_db.erase(n.first++);
    for (std::uint64_t i = 0; i < churn_per_as; ++i) add_host(n);
    rep.churned += 2 * churn_per_as;
  }

  // Inter-AS traffic: source egress (Fig 4 bottom) at the source AS,
  // AID-only transit at a mid-path AS, ingress (Fig 4 top) at the
  // destination. Counted from the verdicts — checks-only, no edges.
  if (cfg.as_count >= 2) {
    std::vector<wire::PacketBuf> bufs;
    std::vector<wire::PacketView> views;
    std::vector<router::BorderRouter::Verdict> verdicts;
    router::BorderRouter::Stats sink;
    for (std::uint64_t b = 0; b < cfg.bursts; ++b) {
      AsNode& src = nodes[b % cfg.as_count];
      AsNode& dst = nodes[(b + 1 + rng.next_u32() % (cfg.as_count - 1)) %
                          cfg.as_count];
      if (&src == &dst) continue;
      AsNode& mid = nodes[(b + cfg.as_count / 2) % cfg.as_count];
      bufs.clear();
      views.clear();
      for (std::uint64_t i = 0; i < cfg.burst_packets; ++i) {
        const std::size_t fi = rng.next_u32() % src.flow_keys.size();
        wire::Packet pkt;
        pkt.src_aid = src.as->aid;
        pkt.dst_aid = dst.as->aid;
        pkt.src_ephid =
            src.as->codec
                .issue(src.flow_base + static_cast<core::Hid>(fi), kNow + 900,
                       rng)
                .bytes;
        pkt.dst_ephid =
            dst.as->codec
                .issue(dst.flow_base + static_cast<core::Hid>(
                                           rng.next_u32() %
                                           dst.flow_keys.size()),
                       kNow + 900, rng)
                .bytes;
        pkt.proto = wire::NextProto::data;
        pkt.payload = rng.bytes(48);
        core::stamp_packet_mac(
            crypto::AesCmac(ByteSpan(src.flow_keys[fi].mac.data(), 16)), pkt);
        bufs.push_back(pkt.seal());
        views.push_back(bufs.back().view());
      }
      verdicts.assign(views.size(), router::BorderRouter::Verdict{});
      src.br->classify_outgoing_burst(views, kNow, verdicts, sink);
      for (const auto& v : verdicts) {
        if (v.err == Errc::ok) ++rep.forwarded_out;
        else ++rep.total_drops;
      }
      verdicts.assign(views.size(), router::BorderRouter::Verdict{});
      mid.br->classify_ingress_burst(views, kNow, verdicts, sink);
      for (const auto& v : verdicts)
        if (v.err == Errc::ok && !v.local) ++rep.transited;
      verdicts.assign(views.size(), router::BorderRouter::Verdict{});
      dst.br->classify_ingress_burst(views, kNow, verdicts, sink);
      for (const auto& v : verdicts) {
        if (v.err == Errc::ok && v.local) ++rep.delivered_in;
        else if (v.err != Errc::ok) ++rep.total_drops;
      }
    }
  }

  for (const AsNode& n : nodes) {
    const auto mem = n.as->host_db.memory_stats();
    rep.total_hosts += mem.hosts;
    rep.total_host_db_bytes += mem.total();
    rep.max_bytes_per_host =
        std::max(rep.max_bytes_per_host, mem.bytes_per_host());
  }
  rep.mean_bytes_per_host =
      rep.total_hosts == 0
          ? 0.0
          : static_cast<double>(rep.total_host_db_bytes) /
                static_cast<double>(rep.total_hosts);
  rep.wall_seconds = seconds_since(t0);
  return rep;
}

}  // namespace apna::scenario
