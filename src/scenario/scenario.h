// Scenario engine — deterministic, seed-driven Internet-scale scripts over
// the in-process APNA world (ROADMAP item: "Internet-scale scenario
// engine").
//
// The paper's accountability story only matters at scale: an AS keeps
// per-host state for MILLIONS of registered hosts (§VIII sizes the load
// against a national ISP's peak) while absorbing bogus-EphID floods and
// Fig-5 shutoff storms. The integration examples top out at a couple dozen
// clients, so the scale-sensitive invariants — never-cache-negatives under
// floods, epoch-invalidation cost under mass revocation, HostDb footprint —
// were asserted nowhere. This layer runs them.
//
// A scenario is a SCRIPT: an ordered vector of Phase specs (the DSL). The
// Engine owns one AS's full infrastructure — AsState (compact HostDb +
// revocation tables), BorderRouter + ForwardingPool (flow-hash steered
// rings with per-ring FlowCaches), RegistryService, AccountabilityAgent,
// and a SimTransport pair for wire-level injection — and executes phases in
// order, returning one PhaseReport per phase.
//
// Phase kinds and what they model:
//   register_hosts   population bootstrap (a provisioning wave)
//   churn            diurnal join/leave: new hosts enroll, old ones
//                    de-register (each leave bumps VerdictEpoch), with
//                    legitimate traffic interleaved
//   flash_crowd      churn with a join spike and a traffic surge
//   traffic          steady Zipf-distributed legitimate load
//   flood            bogus-EphID DDoS through Transport::send_raw: garbage
//                    frames die at PacketView::bind (rx_rejected), well-
//                    formed forged-EphID packets reach classify and drop at
//                    authenticated decryption — and must NEVER enter any
//                    worker's FlowCache
//   shutoff_storm    Fig-5 requests hammering the AccountabilityAgent,
//                    driving revocations and §VIII-G2 HID escalations
//   revocation_wave  mass revocation hammering VerdictEpoch, interleaved
//                    with classify bursts to expose the hit collapse
//   replay_tamper    duplicate + tampered copies of legitimate packets
//                    against a replay-filter router (§VIII-D)
//   dns_storm        random-name lookup flood against the DNS resolver
//                    (src/dns): NXDOMAIN storms must stay inside the
//                    negative cache's bounded slice and the positive hit
//                    rate must recover after the storm (§VII-A at scale)
//   kill_recover     crash-safety: journal a revocation wave, snapshot,
//                    journal DNS publications + Fig-5 domain blocks on
//                    top, probe the world's verdicts, DROP every
//                    in-memory structure, recover from the persisted
//                    image (core/as_persist.h) and re-probe — recovered
//                    verdicts must be bit-identical (requires
//                    Config::persist)
//
// Determinism contract (asserted by the driver's --verify-determinism and
// the `scenario` ctest entries): every workload decision flows from
// Config::seed through ChaChaRng; the virtual clock advances by fixed
// steps; phase counters (drops, hits, epoch, memory bytes) are therefore
// exact functions of (script, seed) — same seed ⇒ byte-identical scenario
// JSON. Wall-clock figures (pps, shutoff latency percentiles) are
// inherently machine-dependent and go to stdout only, never into the
// deterministic JSON.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/as_directory.h"
#include "core/as_state.h"
#include "core/flow_cache.h"
#include "dns/resolver.h"
#include "net/sim.h"
#include "net/transport.h"
#include "persist/sink.h"
#include "persist/vfs.h"
#include "router/border_router.h"
#include "services/persist_coordinator.h"
#include "router/forwarding_pool.h"
#include "services/accountability_agent.h"
#include "services/registry_service.h"
#include "services/subscriber_registry.h"
#include "wire/packet_buf.h"

namespace apna::scenario {

/// One step of a scenario script (the DSL statement). Use the factories —
/// the raw fields are kind-specific magnitudes.
struct Phase {
  enum class Kind {
    register_hosts,
    churn,
    flash_crowd,
    traffic,
    flood,
    shutoff_storm,
    revocation_wave,
    replay_tamper,
    dns_storm,
    kill_recover,
  };

  Kind kind = Kind::traffic;
  std::string name;
  std::uint64_t joins = 0;        // register_hosts / churn / flash_crowd
  std::uint64_t leaves = 0;       // churn / flash_crowd
  std::uint64_t bursts = 0;       // traffic-driving phases
  std::uint64_t burst_packets = 256;
  std::uint64_t requests = 0;     // shutoff_storm / dns_storm (junk lookups)
  std::uint64_t revocations = 0;  // revocation_wave
  std::uint64_t waves = 1;        // revocation_wave: revocations split over
                                  // this many epoch-bumping waves
  double bogus_fraction = 0.8;    // flood: forged-EphID share of each burst
  double garbage_fraction = 0.1;  // flood: unparseable-frame share
  double zipf_s = 1.1;            // flow locality of legitimate traffic

  static Phase register_hosts(std::string name, std::uint64_t n);
  static Phase churn(std::string name, std::uint64_t joins,
                     std::uint64_t leaves, std::uint64_t bursts,
                     std::uint64_t burst_packets = 256);
  static Phase flash_crowd(std::string name, std::uint64_t joins,
                           std::uint64_t bursts,
                           std::uint64_t burst_packets = 512);
  static Phase traffic(std::string name, std::uint64_t bursts,
                       std::uint64_t burst_packets = 256,
                       double zipf_s = 1.1);
  static Phase flood(std::string name, std::uint64_t bursts,
                     std::uint64_t burst_packets = 256,
                     double bogus_fraction = 0.8,
                     double garbage_fraction = 0.1);
  static Phase shutoff_storm(std::string name, std::uint64_t requests);
  static Phase revocation_wave(std::string name, std::uint64_t revocations,
                               std::uint64_t waves, std::uint64_t bursts,
                               std::uint64_t burst_packets = 256);
  static Phase replay_tamper(std::string name, std::uint64_t bursts,
                             std::uint64_t burst_packets = 256);
  /// `names` positive records published to the zone (topped up, never
  /// shrunk), `junk_lookups` random NXDOMAIN lookups between two identical
  /// Zipf positive passes of bursts × burst_packets lookups each (warm /
  /// recovery).
  static Phase dns_storm(std::string name, std::uint64_t names,
                         std::uint64_t junk_lookups, std::uint64_t bursts,
                         std::uint64_t burst_packets = 256);
  /// Crash-safety phase: `revocations` journaled before the snapshot,
  /// `dns_names` published and `domain_blocks` Fig-5 rules journaled
  /// after it, ~`probes` verdict probes per category compared across the
  /// kill. No-op unless the engine was built with Config::persist.
  static Phase kill_recover(std::string name, std::uint64_t revocations,
                            std::uint64_t domain_blocks,
                            std::uint64_t dns_names, std::uint64_t probes);

  const char* kind_name() const;
};

/// Everything one phase did and left behind. All fields except the
/// `wall_*` ones are deterministic functions of (script, seed).
struct PhaseReport {
  std::string name;
  const char* kind = "";

  // Workload shape.
  std::uint64_t packets = 0;        // classified through the pool
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t shutoff_requests = 0;
  std::uint64_t revocations_applied = 0;

  // Router outcome deltas (this phase only).
  router::BorderRouter::Stats router;
  // Merged per-worker flow-cache deltas (this phase only).
  core::FlowCache::Stats cache;
  // Transport deltas (flood phases inject through SimTransport::send_raw).
  std::uint64_t rx_rejected = 0;    // frames PacketView::bind refused
  std::uint64_t rx_delivered = 0;   // frames that reached classification

  // AA deltas (shutoff storms).
  std::uint64_t aa_accepted = 0;
  std::uint64_t aa_rejected = 0;
  std::uint64_t aa_hid_escalations = 0;

  // DNS resolver deltas (dns_storm phases only; zero elsewhere and omitted
  // from the scenario JSON for other phase kinds).
  std::uint64_t dns_lookups = 0;
  std::uint64_t dns_cache_hits = 0;
  std::uint64_t dns_negative_hits = 0;
  std::uint64_t dns_zone_hits = 0;
  std::uint64_t dns_nxdomain = 0;
  std::uint64_t dns_negative_entries = 0;   // gauge AFTER the phase
  std::uint64_t dns_negative_capacity = 0;  // gauge: the cache's hard cap
  /// Positive-pass hit rate after the storm — the recovery signal.
  double dns_recovery_hit_rate = 0.0;

  // Persistence / recovery (kill_recover phases only; zero elsewhere and
  // omitted from the scenario JSON for other phase kinds).
  std::uint64_t persist_records_appended = 0;  // journaled before the kill
  std::uint64_t persist_snapshots_written = 0;
  std::uint64_t persist_snapshot_generation = 0;  // the one recovery loaded
  std::uint64_t journal_records_replayed = 0;
  std::uint64_t journal_bytes_discarded = 0;  // torn-tail bytes dropped
  std::uint64_t recovered_hosts = 0;
  std::uint64_t recovered_revocations = 0;
  std::uint64_t recovered_dns_records = 0;
  std::uint64_t recovered_domain_blocks = 0;
  /// Verdict probes compared across the kill (host records, revocation
  /// checks, forwarding classifications, DNS zone + policy answers).
  std::uint64_t verdict_probes = 0;
  /// Probes whose post-recovery answer differed. MUST be 0.
  std::uint64_t verdict_mismatches = 0;

  // World state AFTER the phase.
  std::uint64_t epoch = 0;          // VerdictEpoch generation
  std::uint64_t live_hosts = 0;
  std::uint64_t revoked_entries = 0;
  std::uint64_t host_db_bytes = 0;  // HostDb::memory_stats().total()
  double host_db_bytes_per_host = 0.0;
  std::uint64_t revocation_bytes = 0;

  // Wall-clock (NON-deterministic — stdout only, never in scenario JSON).
  double wall_seconds = 0.0;
  double wall_pps = 0.0;            // packets / wall_seconds (0 if no pkts)
  double wall_shutoff_p50_us = 0.0;
  double wall_shutoff_p99_us = 0.0;
};

/// The world a script runs against. One Engine = one source AS with its
/// full infrastructure plus a remote AS (victim certificates for Fig-5
/// requests come from somewhere) and a wire-level attacker endpoint.
class Engine {
 public:
  /// The AS state, DNS zone and ForwardingPool run at their library
  /// defaults: kDefaultShardCount stripes, the §VIII-G2 escalation
  /// threshold of 16 revocations per host (shutoff storms trip it on
  /// purpose) and 4096-entry flow caches.
  struct Config {
    std::uint64_t seed = 1;
    core::Aid aid = 64512;
    core::Aid remote_aid = 64513;
    /// ForwardingPool processing threads (flow-hash steered). Counter
    /// determinism holds for any value: a flow's packets stay in one ring,
    /// in burst order, and each ring runs on one thread at a time.
    std::size_t threads = 2;
    /// Sealed legitimate-flow working set per phase (distinct EphIDs).
    std::size_t active_flows = 256;
    /// Attach the durability pipeline (MemVfs-backed snapshot + journal —
    /// in-memory so scenario JSON stays an exact function of script +
    /// seed). Required for kill_recover phases; off by default so other
    /// scripts' counters are untouched.
    bool persist = false;
  };

  explicit Engine(const Config& cfg);

  /// Executes one phase, returning its report.
  PhaseReport run_phase(const Phase& phase);

  /// Executes a whole script in order.
  std::vector<PhaseReport> run_script(const std::vector<Phase>& script);

  // World access (tests poke at the internals).
  core::AsState& as() { return *as_; }
  router::ForwardingPool& pool() { return *pool_; }
  services::AccountabilityAgent& aa() { return *aa_; }
  core::ExpTime now() const { return now_; }
  std::uint64_t live_hosts() const { return as_->host_db.size(); }

  /// The deterministic per-host kHA keys of scenario host `hid` (the engine
  /// stores no per-host key material — at 10⁶ hosts a parallel key vector
  /// would dwarf the database being measured).
  core::HostAsKeys host_keys(core::Hid hid) const;

  /// The dns_storm infrastructure (null until the first dns_storm phase).
  dns::Resolver* resolver() { return dns_resolver_.get(); }

  /// The durability pipeline (null unless Config::persist).
  services::PersistCoordinator* persist() { return persist_coord_.get(); }

 private:
  struct SealedFlow;  // one reusable sealed legitimate packet
  class ZipfPicker;   // inverse-CDF Zipf over the working set

  void do_register(std::uint64_t n, PhaseReport& r);
  void do_leave(std::uint64_t n, PhaseReport& r);
  void do_traffic(const Phase& p, PhaseReport& r);
  void do_flood(const Phase& p, PhaseReport& r);
  void do_shutoff_storm(const Phase& p, PhaseReport& r);
  void do_revocation_wave(const Phase& p, PhaseReport& r);
  void do_replay_tamper(const Phase& p, PhaseReport& r);
  void do_dns_storm(const Phase& p, PhaseReport& r);
  void do_kill_recover(const Phase& p, PhaseReport& r);
  /// Lazily builds the DNS zone + resolver — only dns_storm scripts pay for
  /// them.
  void ensure_dns();
  /// (Re)builds the PersistCoordinator over the current AsState, seeds
  /// its above-core records, writes the initial snapshot generation and
  /// wires every mutation site's sink.
  void attach_persistence(core::ServiceRecords services = {});

  /// Rebuilds the sealed legitimate working set over the CURRENT live host
  /// range (churn moves it).
  std::vector<SealedFlow> build_working_set(std::size_t flows);
  core::ShutoffRequest make_storm_request(core::Hid attacker,
                                          std::uint32_t serial);
  void snapshot_world(PhaseReport& r) const;

  Config cfg_;
  crypto::ChaChaRng rng_;
  net::EventLoop loop_;
  std::unique_ptr<core::AsState> as_;
  std::unique_ptr<core::AsState> remote_;
  core::AsDirectory dir_;
  services::SubscriberRegistry subs_;
  std::unique_ptr<services::RegistryService> rs_;
  std::unique_ptr<services::AccountabilityAgent> aa_;
  std::unique_ptr<router::BorderRouter> br_;
  std::unique_ptr<router::ForwardingPool> pool_;
  // Wire-level injection: attacker endpoint -> router RX endpoint.
  std::unique_ptr<net::SimTransport> attacker_tx_;
  std::unique_ptr<net::SimTransport> router_rx_;
  net::PeerId to_router_ = 0;
  std::vector<wire::PacketBuf> rx_staging_;  // what the rx handler caught

  core::ExpTime now_;
  /// Live scenario hosts are the contiguous HID range [first_hid_,
  /// next_hid_): joins extend the top, diurnal leaves retire the bottom
  /// (oldest first). Infrastructure HIDs live below kFirstScenarioHid.
  static constexpr core::Hid kFirstScenarioHid = 65536;
  core::Hid first_hid_ = kFirstScenarioHid;
  core::Hid next_hid_ = kFirstScenarioHid;

  // Victim identity at the remote AS (Fig-5 requester).
  core::EphIdKeyPair victim_kp_;
  core::EphIdCertificate victim_cert_;

  // Deltas are computed against these running snapshots.
  /// replay_tamper classifies through a dedicated replay-filter router, not
  /// the pool; its stats accumulate here and merge into that phase's delta.
  router::BorderRouter::Stats replay_extra_;
  router::BorderRouter::Stats last_router_;
  core::FlowCache::Stats last_cache_;
  services::AccountabilityAgent::Stats last_aa_;
  net::TransportStats last_rx_;

  // dns_storm world (lazy — see ensure_dns).
  std::unique_ptr<services::DnsZone> dns_zone_;
  std::unique_ptr<dns::Resolver> dns_resolver_;
  std::uint64_t dns_names_ = 0;  // positive records published so far

  // Durability pipeline (Config::persist). The MemVfs outlives the
  // coordinator across a kill_recover phase — it IS the surviving disk.
  std::unique_ptr<persist::MemVfs> vfs_;
  std::unique_ptr<services::PersistCoordinator> persist_coord_;
  persist::Sink* persist_sink_ = nullptr;
};

// ---- Canned scripts (what the driver and ctest run) --------------------------

/// ≥ 10⁶ hosts in one AS: provisioning waves, diurnal churn, a flash
/// crowd, steady traffic — the memory-footprint and churn story.
std::vector<Phase> internet_scale_script(std::uint64_t hosts,
                                         std::uint64_t traffic_bursts);

/// The adversary reel: bogus-EphID flood, Fig-5 shutoff storm,
/// mass-revocation waves, replay/tamper injection — with recovery traffic
/// after each attack so hit-rate collapse AND recovery are both recorded.
std::vector<Phase> attack_storms_script(std::uint64_t hosts, bool smoke);

/// The §VII-A resolver under fire: publish `names` records, warm the
/// cache, flood it with random NXDOMAIN lookups, and measure the recovery
/// — negative entries must stay inside the cache's bounded slice and the
/// positive hit rate must come back.
std::vector<Phase> dns_storm_script(std::uint64_t names, bool smoke);

/// Crash-and-recover: provision `hosts`, drive traffic and a Fig-5
/// storm, then a kill_recover phase (journal + snapshot + journal
/// suffix, drop the world, reload) followed by post-recovery traffic.
/// Requires Engine::Config::persist.
std::vector<Phase> kill_recover_script(std::uint64_t hosts, bool smoke);

/// Population spread across many ASes, each with its own AsState +
/// BorderRouter; inter-AS traffic classified at source egress, transit and
/// destination ingress. Answers the "100s of ASes" half of the tentpole
/// without paying a full Engine per AS.
struct MultiAsConfig {
  std::uint64_t seed = 1;
  std::size_t as_count = 100;
  std::uint64_t hosts_per_as = 1000;
  std::uint64_t bursts = 8;
  std::uint64_t burst_packets = 128;
  /// Fraction of each AS's population churned (left + rejoined) mid-run.
  double churn_fraction = 0.1;
  std::size_t shard_count = 4;  // small ASes: fewer stripes, less overhead
};

struct MultiAsReport {
  std::size_t as_count = 0;
  std::uint64_t total_hosts = 0;
  std::uint64_t total_host_db_bytes = 0;
  double mean_bytes_per_host = 0.0;
  double max_bytes_per_host = 0.0;
  std::uint64_t forwarded_out = 0;   // source-AS egress passes
  std::uint64_t transited = 0;       // mid-path AS transit forwards
  std::uint64_t delivered_in = 0;    // destination-AS local deliveries
  std::uint64_t total_drops = 0;
  std::uint64_t churned = 0;         // hosts de- and re-registered
  double wall_seconds = 0.0;         // stdout only
};

MultiAsReport run_multi_as(const MultiAsConfig& cfg);

}  // namespace apna::scenario
