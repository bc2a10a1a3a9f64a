// Control-plane workload: control_mix.
//
// One AS with its hosts and a published DNS zone. Fig 3 EphID issuance runs
// through services::ServicePool (PoP batch verification per chunk), every
// issuance is journaled through services::PersistCoordinator on
// persist::MemVfs (commit after each burst, one snapshot per segment), and
// DNS lookups run through dns::ResolverPool, Zipf over the names with 5%
// NXDOMAIN, with one publish (admission + DnsZone::put, which bumps the
// zone epoch) per 100 lookups.
//
// Each cycle of a run (bench.h) has a saturation segment (closed loop): a
// snapshot, a fixed number of issuances, then kLookupsPerIssue lookups per
// issuance with their publishes, each stage timed on its own; and a paced
// segment (open loop): both streams at fixed offered rates on one driver
// thread, latency running from each request's due time to its reply. Every
// saturation segment pays exactly one snapshot, and the fastest of them is
// part of the reported rate. Saturation work is fixed rather than timed, so the state the run
// keeps (issued EphIDs, journal, snapshots) does not grow with its speed.
#include <cstring>
#include <memory>
#include <string>

#include "core/as_persist.h"
#include "core/as_state.h"
#include "core/messages.h"
#include "crypto/rng.h"
#include "dns/resolver.h"
#include "net/sim.h"
#include "persist/vfs.h"
#include "services/dns_zone.h"
#include "services/management_service.h"
#include "services/persist_coordinator.h"
#include "services/service_identity.h"
#include "services/service_runtime.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace apna;

constexpr core::Aid kAid = 64512;
constexpr core::ExpTime kLifetime = 86400;
constexpr core::Hid kServiceHid = 0x00f00000;  // above every host HID
constexpr std::size_t kIssueBurst = 64;        // saturation issuance burst
constexpr std::size_t kLookupBurst = 256;      // saturation lookup burst
constexpr std::size_t kPacedIssueMax = 16;
constexpr std::size_t kPacedLookupMax = 256;
constexpr std::uint64_t kLookupsPerPublish = 100;
constexpr std::size_t kSampleEvery = 64;        // replies opened host-side
constexpr double kNxShare = 0.05;
constexpr double kNameZipfS = 1.0;
constexpr std::size_t kIssueThreads = 2;        // ServicePool
constexpr std::size_t kResolveThreads = 1;      // ResolverPool
constexpr std::size_t kSpanCapacity = 1u << 22;
const char* const kDir = "/as";

struct Params {
  std::size_t hosts = 1024;
  std::size_t names = 100'000;
  std::size_t requests = 1024;  // distinct sealed requests, replayed
  std::size_t ring = 1u << 18;  // lookup schedule length
  double issue_per_s = kIssuePacedPerS;
  double lookup_per_s = kLookupPacedPerS;
};

std::string nth_name(std::size_t i) { return "h" + std::to_string(i) + ".svc.apna.example"; }

struct World {
  Params p;
  crypto::ChaChaRng rng;
  net::EventLoop loop;
  core::ExpTime now;
  core::AsState as;
  persist::MemVfs vfs;
  services::ServiceIdentity aa_ident;
  std::unique_ptr<services::ManagementService> ms;
  std::unique_ptr<services::PersistCoordinator> persist;
  std::unique_ptr<services::ServicePool> issue_pool;

  std::vector<core::EphId> ctrl;         // [hid - 1] control EphIDs
  std::vector<core::HostAsKeys> keys;    // [hid - 1]
  std::vector<Bytes> sealed;             // issuance requests
  std::vector<core::Hid> req_host;
  std::vector<core::EphIdPublicKeys> req_pub;

  services::DnsZone zone;
  std::unique_ptr<dns::Resolver> resolver;
  std::unique_ptr<dns::ResolverPool> resolver_pool;
  core::DnsRecord tmpl;
  std::vector<std::string> names;
  std::vector<std::uint32_t> ipv4;       // the zone's current answer per name
  std::vector<std::string> lookups;      // the lookup schedule
  std::vector<std::int32_t> lookup_idx;  // name index, -1 = NXDOMAIN

  World(const Params& params, std::uint64_t seed)
      : p(params),
        rng(seed),
        now(loop.now_seconds()),
        as(kAid, core::AsSecrets::generate(rng)),
        aa_ident(services::make_service_identity(as, kServiceHid, now + kLifetime, 0,
                                                 nullptr, rng)) {
    ms = std::make_unique<services::ManagementService>(
        as, loop, rng,
        services::make_service_identity(as, kServiceHid + 1, now + kLifetime, 0,
                                        &aa_ident.cert.ephid, rng));
    register_hosts();
    make_requests();
    publish_zone();
    make_lookups();

    services::PersistCoordinator::Config pc;
    pc.journal.fsync = persist::FsyncPolicy::every_commit;
    pc.seed = seed;
    persist = std::make_unique<services::PersistCoordinator>(vfs, kDir, as, pc);
    if (!persist->start()) std::fprintf(stderr, "perfbench: persist start failed\n");
    ms->set_persist_sink(persist.get());
    zone.set_persist_sink(persist.get());

    services::ServicePool::Config sc;
    sc.threads = kIssueThreads;
    issue_pool = std::make_unique<services::ServicePool>(*ms, nullptr, sc);
    dns::ResolverPool::Config rc;
    rc.threads = kResolveThreads;
    resolver_pool = std::make_unique<dns::ResolverPool>(*resolver, rc);
  }

  void register_hosts() {
    for (core::Hid h = 1; h <= p.hosts; ++h) {
      crypto::SharedSecret seed{};
      rng.fill(MutByteSpan(seed.data(), seed.size()));
      core::HostRecord rec;
      rec.hid = h;
      rec.keys = core::HostAsKeys::derive(seed);
      rec.subscriber_id = h;
      as.host_db.upsert(rec);
      keys.push_back(rec.keys);
      ctrl.push_back(as.codec.issue(h, now + kLifetime, rng));
    }
  }

  /// Client-side Fig 3 work, done once: a fresh EphID key pair, its
  /// proof-of-possession signature, sealed under the host's kHA.
  void make_requests() {
    for (std::size_t i = 0; i < p.requests; ++i) {
      const auto h = static_cast<core::Hid>(1 + i % p.hosts);
      const core::EphIdKeyPair kp = core::EphIdKeyPair::generate(rng);
      core::EphIdRequest req;
      req.ephid_pub = kp.pub;
      req.lifetime = core::EphIdLifetime::short_term;
      req.pop_sig = kp.sign(req.pop_tbs());
      wire::MsgWriter plain(160);
      req.encode(plain);
      sealed.push_back(core::seal_control(keys[h - 1], i + 1, true, plain.span()));
      req_host.push_back(h);
      req_pub.push_back(kp.pub);
    }
  }

  void publish_zone() {
    dns::Resolver::Config cfg;
    cfg.cache.capacity = std::size_t{1} << 17;
    resolver = std::make_unique<dns::Resolver>(zone, loop, cfg);
    // One record template with per-name fields stamped in: signing 10^5
    // records would measure Ed25519, not the resolver.
    tmpl.cert.ephid = as.codec.issue(1, now + kLifetime, rng);
    tmpl.cert.exp_time = now + kLifetime;
    tmpl.cert.aid = kAid;
    tmpl.cert.flags = core::kCertReceiveOnly;
    rng.fill(MutByteSpan(tmpl.cert.pub.dh.data(), tmpl.cert.pub.dh.size()));
    rng.fill(MutByteSpan(tmpl.cert.pub.sig.data(), tmpl.cert.pub.sig.size()));
    rng.fill(MutByteSpan(tmpl.sig.data(), tmpl.sig.size()));
    names.reserve(p.names);
    ipv4.reserve(p.names);
    for (std::size_t i = 0; i < p.names; ++i) {
      names.push_back(nth_name(i));
      ipv4.push_back(static_cast<std::uint32_t>(i + 1));
      tmpl.name = names.back();
      tmpl.ipv4 = ipv4.back();
      zone.put(tmpl);
    }
  }

  void make_lookups() {
    const ZipfTable zipf(p.names, kNameZipfS);
    std::vector<std::uint32_t> perm(p.names);
    for (std::uint32_t i = 0; i < p.names; ++i) perm[i] = i;
    for (std::size_t i = p.names; i > 1; --i)
      std::swap(perm[i - 1], perm[rng.next_u64() % i]);
    lookups.reserve(p.ring);
    lookup_idx.reserve(p.ring);
    for (std::size_t i = 0; i < p.ring; ++i) {
      if (rng.uniform_double() < kNxShare) {
        lookups.push_back("nx" + std::to_string(rng.next_u32() % (p.names / 10)) +
                          ".svc.apna.example");
        lookup_idx.push_back(-1);
      } else {
        const std::uint32_t n = perm[zipf.pick(rng.uniform_double())];
        lookups.push_back(names[n]);
        lookup_idx.push_back(static_cast<std::int32_t>(n));
      }
    }
  }
};

class Driver {
 public:
  Driver(World& w, const Options& o, Report& rep)
      : w_(w), o_(o), rep_(rep), tr_(o.trace, kSpanCapacity) {
    jobs_.resize(kIssueBurst);
    results_.assign(kIssueBurst, Result<Bytes>(Errc::internal));
    answers_.resize(kLookupBurst);
    issue_lat_.reserve(1u << 16);
    lookup_lat_.reserve(1u << 22);
    gen_lag_.reserve(1u << 21);
  }

  void run();

 private:
  /// One issuance burst of `n` requests from the replayed pool; returns
  /// the time its replies were ready (after the journal commit).
  std::uint64_t issue_round(std::size_t n) {
    const std::uint32_t id = round_id_++;
    Tracer::Scope root(tr_, kRoot, id, static_cast<std::uint32_t>(n));
    std::size_t first = 0;
    {
      Tracer::Scope g(tr_, kGen, id, static_cast<std::uint32_t>(n));
      first = req_pos_;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t r = (req_pos_++) % w_.sealed.size();
        jobs_[i] = {w_.ctrl[w_.req_host[r] - 1],
                    ByteSpan(w_.sealed[r].data(), w_.sealed[r].size())};
      }
    }
    {
      Tracer::Scope s(tr_, kIssue, id, static_cast<std::uint32_t>(n));
      w_.issue_pool->process_issuance({jobs_.data(), n}, w_.now, {results_.data(), n});
    }
    {
      Tracer::Scope s(tr_, kCommit, id, static_cast<std::uint32_t>(n));
      if (!w_.persist->commit()) rep_.fail("journal commit");
    }
    issued_ += n;
    const std::uint64_t done = now_ns();
    Tracer::Scope c(tr_, kCheck, id, static_cast<std::uint32_t>(n));
    rep_.attempted += n;
    for (std::size_t i = 0; i < n; ++i) {
      if (!results_[i].ok()) {
        rep_.fail("issuance request failed");
        continue;
      }
      if ((first + i) % kSampleEvery == 0) check_reply((first + i) % w_.sealed.size(), *results_[i]);
    }
    return done;
  }

  /// Host side of Fig 3 on a sampled reply: open it under kHA, verify the
  /// certificate signature, and check it certifies the requested key for
  /// the requesting host.
  void check_reply(std::size_t r, const Bytes& reply) {
    const core::Hid h = w_.req_host[r];
    auto plain = core::open_control(w_.keys[h - 1], false, ByteSpan(reply.data(), reply.size()));
    if (!plain) return rep_.fail("reply does not open under kHA");
    auto resp = core::decode_msg<core::EphIdResponse>(ByteSpan(plain->data(), plain->size()));
    if (!resp) return rep_.fail("reply does not decode");
    if (!resp->cert.verify(w_.as.secrets.sign.pub, w_.now))
      return rep_.fail("certificate signature");
    if (!(resp->cert.pub == w_.req_pub[r])) return rep_.fail("certificate key");
    auto opened = w_.as.codec.open(resp->cert.ephid);
    if (!opened || opened->hid != h) rep_.fail("certified EphID names another host");
  }

  /// One lookup burst of `n` names from the schedule, then the publishes
  /// that fall due (one per kLookupsPerPublish lookups). Returns the time
  /// the answers were ready.
  std::uint64_t lookup_round(std::size_t n) {
    const std::uint32_t id = round_id_++;
    Tracer::Scope root(tr_, kRoot, id, static_cast<std::uint32_t>(n));
    const std::size_t at = lookup_pos_ % w_.lookups.size();
    const std::size_t m = std::min(n, w_.lookups.size() - at);  // no wrap in a burst
    {
      Tracer::Scope s(tr_, kResolve, id, static_cast<std::uint32_t>(m));
      w_.resolver_pool->process_lookups({w_.lookups.data() + at, m}, w_.now,
                                        {answers_.data(), m});
    }
    const std::uint64_t done = now_ns();
    {
      Tracer::Scope c(tr_, kCheck, id, static_cast<std::uint32_t>(m));
      rep_.attempted += m;
      for (std::size_t i = 0; i < m; ++i) {
        const std::int32_t idx = w_.lookup_idx[at + i];
        const dns::Resolver::Answer& a = answers_[i];
        if (idx < 0) {
          if (a.status != dns::Resolver::Status::nxdomain) rep_.fail("NXDOMAIN answer");
        } else if (a.status != dns::Resolver::Status::ok ||
                   a.record.ipv4 != w_.ipv4[static_cast<std::size_t>(idx)] ||
                   !(a.record.cert.ephid == w_.tmpl.cert.ephid)) {
          rep_.fail("answer differs from the zone");
        }
      }
    }
    lookup_pos_ += m;
    lookups_ += m;
    while (publishes_ < lookups_ / kLookupsPerPublish) publish(id);
    last_m_ = m;
    return done;
  }

  /// §VII-A publication: admission, then the zone write (bumps its epoch).
  void publish(std::uint32_t id) {
    const std::size_t n = static_cast<std::size_t>(w_.rng.next_u64() % w_.names.size());
    w_.ipv4[n] = static_cast<std::uint32_t>(w_.names.size() + 1 + publishes_);
    Tracer::Scope s(tr_, kPublish, id, 1);
    if (!w_.resolver->admit_publish(w_.names[n], w_.tmpl.cert.ephid, w_.now)) {
      rep_.fail("publish refused");
      return;
    }
    core::DnsRecord rec = w_.tmpl;
    rec.name = w_.names[n];
    rec.ipv4 = w_.ipv4[n];
    w_.zone.put(rec);
    ++publishes_;
    ++rep_.attempted;
  }

  std::uint64_t journal_size() {
    return w_.vfs.file_size(core::journal_path(kDir, w_.persist->stats().generation));
  }

  /// A snapshot, which starts the next journal generation.
  void snapshot() {
    journal_bytes_ += journal_size();
    Tracer::Scope s(tr_, kSnapshot, round_id_, 0);
    if (!w_.persist->write_snapshot()) rep_.fail("snapshot");
  }

  void saturation_segment(std::size_t ops, bool measured);
  void paced_segment(std::uint64_t p_end);
  void finish();

  World& w_;
  const Options& o_;
  Report& rep_;
  Tracer tr_;
  std::vector<services::ServicePool::IssueJob> jobs_;
  std::vector<Result<Bytes>> results_;
  std::vector<dns::Resolver::Answer> answers_;
  std::size_t ops_ = 0;  // control ops per saturation segment
  std::uint32_t round_id_ = 0;
  std::size_t req_pos_ = 0;
  std::size_t lookup_pos_ = 0;
  std::size_t last_m_ = 0;
  std::uint64_t issued_ = 0, journal_bytes_ = 0;
  std::uint64_t lookups_ = 0, publishes_ = 0;
  std::vector<double> issue_lat_, lookup_lat_, gen_lag_;
  std::vector<std::size_t> issue_ends_, lookup_ends_;  // where each cycle ends
  std::uint64_t backlog_max_ = 0;
  bool saturated_ = false;
  CycleBudget budget_;
  CpuRotation cpus_;
  SegmentRates issue_rates_, lookup_rates_;    // per saturation segment
  SegmentRates issue_slices_, lookup_slices_;  // per slice of one
  std::uint64_t snapshot_best_ns_ = ~std::uint64_t{0};
  Throughput untraced_, traced_;
  std::uint64_t paced_issue_calls_ = 0, paced_issued_ = 0;
  std::uint64_t dns_lookups_ = 0, dns_hits_ = 0, dns_negative_hits_ = 0;
  services::PersistCoordinator::Stats ps0_;
};

void Driver::run() {
  // Saturation work per segment: about what the commit that introduced
  // the benchmark ran in 45% of a cycle. The paced segments take half the
  // run.
  ops_ = std::max<std::size_t>(
      kIssueBurst, static_cast<std::size_t>(kControlSatOpsPerS * 0.45 * o_.seconds / kCycles));
  const std::size_t ops = ops_;
  const auto paced_ns = static_cast<std::uint64_t>(0.5 * o_.seconds / kCycles * 1e9);

  tr_.pause(true);
  tr_.set_phase(kWarm);
  saturation_segment(ops, false);

  ps0_ = w_.persist->stats();
  for (int c = 0; c < kCycles; ++c) {
    cpus_.next();
    const bool traced =
        traced_cycle(o_.trace, c) && budget_.room(tr_.spans().size(), tr_.capacity());
    tr_.pause(!traced);
    tr_.set_phase(kSaturated);
    const std::uint64_t t0 = now_ns();
    saturation_segment(ops, true);
    const std::uint64_t t1 = now_ns();
    (traced ? traced_ : untraced_).add(t0, t1, 0, ops);

    tr_.set_phase(kPaced);
    paced_segment(now_ns() + paced_ns);
  }
  cpus_.unpin();
  finish();
}

/// One closed-loop segment of `ops` control operations: a snapshot, `ops`
/// issuances in bursts, then ops * kLookupsPerIssue lookups in bursts with
/// their publishes. The issuances and the lookups are each run in
/// kSlicesPerSegment slices, a CPU each. A `measured` segment adds to the
/// rates.
void Driver::saturation_segment(std::size_t ops, bool measured) {
  const std::uint64_t t0 = now_ns();
  snapshot();
  const std::uint64_t ts = now_ns();
  const std::uint64_t n0 = issued_;
  const std::size_t bursts = (ops + kIssueBurst - 1) / kIssueBurst;
  for (std::size_t k = 0, b = 0; k < kSlicesPerSegment; ++k) {
    if (measured) cpus_.next();
    const std::uint64_t a = now_ns();
    const std::uint64_t i0 = issued_;
    for (; b < bursts * (k + 1) / kSlicesPerSegment; ++b)
      issue_round(std::min(kIssueBurst, ops - b * kIssueBurst));
    if (measured) issue_slices_.add(a, now_ns(), i0, issued_);
  }
  const std::uint64_t t1 = now_ns();

  const dns::Resolver::Stats s0 = w_.resolver->stats();
  const std::uint64_t l0 = lookups_;
  const std::size_t want = ops * kLookupsPerIssue;
  for (std::size_t k = 0, done = 0; k < kSlicesPerSegment; ++k) {
    if (measured) cpus_.next();
    const std::uint64_t a = now_ns();
    const std::uint64_t q0 = lookups_;
    const std::size_t until = want * (k + 1) / kSlicesPerSegment;
    for (; done < until; done += last_m_) lookup_round(std::min(kLookupBurst, until - done));
    if (measured) lookup_slices_.add(a, now_ns(), q0, lookups_);
  }
  const std::uint64_t t2 = now_ns();
  if (!measured) return;
  snapshot_best_ns_ = std::min(snapshot_best_ns_, ts - t0);
  issue_rates_.add(t0, t1, n0, issued_);
  lookup_rates_.add(t1, t2, l0, lookups_);
  const dns::Resolver::Stats s1 = w_.resolver->stats();
  dns_lookups_ += s1.lookups - s0.lookups;
  dns_hits_ += s1.cache_hits - s0.cache_hits;
  dns_negative_hits_ += s1.negative_hits - s0.negative_hits;
}

/// Both request streams on their own schedules, on this one thread.
void Driver::paced_segment(std::uint64_t p_end) {
  const std::uint64_t p0 = now_ns();
  Pacer issue(p0, w_.p.issue_per_s);
  Pacer lookup(p0, w_.p.lookup_per_s);
  std::uint64_t slice = kSlicesPerSegment;  // none yet
  for (;;) {
    const std::uint64_t t = now_ns();
    if (t >= p_end) break;
    if (slice_of(p0, p_end, t) != slice) {
      slice = slice_of(p0, p_end, t);
      cpus_.next();
    }
    std::uint64_t n = 0;
    const std::uint64_t first = issue.take(t, kPacedIssueMax, n);
    if (n > 0) {
      const std::uint64_t done = issue_round(n);
      ++paced_issue_calls_;
      paced_issued_ += n;
      for (std::uint64_t i = 0; i < n; ++i)
        issue_lat_.push_back(static_cast<double>(done - issue.due_ns(first + i)) / 1e3);
    }
    const std::uint64_t t2 = now_ns();
    std::uint64_t k = 0;
    std::uint64_t lfirst = lookup.take(t2, kPacedLookupMax, k);
    while (k > 0) {  // a burst never wraps the schedule; finish the rest
      const std::uint64_t done = lookup_round(k);
      for (std::uint64_t i = 0; i < last_m_; ++i)
        lookup_lat_.push_back(static_cast<double>(done - lookup.due_ns(lfirst + i)) / 1e3);
      lfirst += last_m_;
      k -= last_m_;
    }
  }
  for (Pacer* pc : {&issue, &lookup}) {
    const std::uint64_t left = pc->backlog(p_end);
    if (left > std::max<std::uint64_t>(kSaturatedBacklog, (pc->taken() + left) / 100))
      saturated_ = true;
    backlog_max_ = std::max(backlog_max_, pc->backlog_max());
    gen_lag_.insert(gen_lag_.end(), pc->lag_us().begin(), pc->lag_us().end());
    std::vector<double>& lat = pc == &issue ? issue_lat_ : lookup_lat_;
    for (std::uint64_t i = 0; i < left; ++i)
      lat.push_back(static_cast<double>(p_end - pc->due_ns(pc->taken() + i)) / 1e3);
  }
  issue_ends_.push_back(issue_lat_.size());
  lookup_ends_.push_back(lookup_lat_.size());
}

void Driver::finish() {
  Report& r = rep_;
  if (!w_.persist->commit()) r.fail("final journal commit");
  journal_bytes_ += journal_size();

  issue_rates_.describe("issuance");
  lookup_rates_.describe("lookup");
  // A control op is one issuance, kLookupsPerIssue lookups and a 1/ops
  // share of its segment's snapshot. Its time is the sum of each stage's
  // best: the fastest snapshot, and the fastest slice's time per issuance
  // and per lookup, each taken where the host let it run fastest.
  const double issue_best = issue_slices_.best_rate();
  const double lookup_best = lookup_slices_.best_rate();
  const double op_s = static_cast<double>(snapshot_best_ns_) / 1e9 / static_cast<double>(ops_) +
                      1.0 / issue_best + kLookupsPerIssue / lookup_best;
  r.set("ops_per_s", issue_best > 0 && lookup_best > 0 ? 1.0 / op_s : 0);
  r.set("p50_us", best_slice_quantile(issue_lat_, issue_ends_, 0.50));
  r.set("p90_us", best_slice_quantile(issue_lat_, issue_ends_, 0.90));
  describe_slices("issuance latency", issue_lat_, issue_ends_, 0.50);
  describe_slices("issuance latency", issue_lat_, issue_ends_, 0.90);
  describe("issuance latency", issue_lat_);
  describe("lookup latency", lookup_lat_);

  SpanTotals t;
  t.add(tr_);
  r.set("services.issue_per_s", issue_rates_.best_rate());
  r.set("services.issue_ns_per_req", t.self_per_item(kIssue, kSaturated));
  r.set("services.issue_burst_mean",
        paced_issue_calls_ > 0
            ? static_cast<double>(paced_issued_) / static_cast<double>(paced_issue_calls_)
            : 0);
  const services::ManagementService::Stats ms = w_.ms->stats();
  r.set("services.ms_rejected",
        static_cast<double>(ms.rejected_expired + ms.rejected_unknown_host +
                            ms.rejected_bad_payload + ms.rejected_revoked +
                            ms.rejected_bad_pop));
  r.set("services.pool_failed_jobs", static_cast<double>(w_.issue_pool->stats().failed_jobs));

  const services::PersistCoordinator::Stats ps = w_.persist->stats();
  r.set("persist.commit_us", t.self_per_call(kCommit, kSaturated) / 1e3);
  r.set("persist.snapshot_ms", t.self_per_call(kSnapshot, kSaturated) / 1e6);
  const std::uint64_t commits = ps.journal.commits - ps0_.journal.commits;
  r.set("persist.records_per_commit",
        commits > 0 ? static_cast<double>(ps.journal.appended - ps0_.journal.appended) /
                          static_cast<double>(commits)
                    : 0);
  r.set("persist.journal_bytes_per_issue",
        issued_ > 0 ? static_cast<double>(journal_bytes_) / static_cast<double>(issued_) : 0);
  r.set("persist.dropped", static_cast<double>(ps.journal.dropped));
  if (ps.journal.dropped != 0 || ps.snapshot_failures != 0) r.fail("journal degraded");

  r.set("dns.resolve_ns_per_lookup", t.self_per_item(kResolve, kSaturated));
  const auto lk = static_cast<double>(dns_lookups_);
  r.set("dns.cache_hit_rate", lk > 0 ? static_cast<double>(dns_hits_) / lk : 0);
  r.set("dns.negative_hit_rate", lk > 0 ? static_cast<double>(dns_negative_hits_) / lk : 0);
  r.set("dns.publish_us", t.self_per_call(kPublish, kSaturated) / 1e3);
  r.set("dns.cache_bytes_per_name", w_.resolver->cache().memory_stats().bytes_per_name());
  r.set("dns.resolve_per_s", lookup_rates_.best_rate());
  r.set("dns.resolve_p50_us", best_slice_quantile(lookup_lat_, lookup_ends_, 0.50));
  r.set("dns.resolve_p90_us", best_slice_quantile(lookup_lat_, lookup_ends_, 0.90));

  r.set("bench.span_coverage", o_.trace ? t.coverage(kSaturated, traced_.ns) : 0);
  r.set("bench.trace_overhead", trace_overhead(untraced_, traced_));
  r.set("bench.gen_lag_p99_us", quantile(gen_lag_, 0.99));
  r.set("bench.backlog_max", static_cast<double>(backlog_max_));
  r.set("bench.latency_samples", static_cast<double>(issue_lat_.size()));
  r.set("bench.paced_saturated", saturated_ ? 1 : 0);

  r.note("pool_threads", "{\"issuance\": " + std::to_string(kIssueThreads) +
                             ", \"resolver\": " + std::to_string(kResolveThreads) + "}");
  r.note("offered_issue_per_s", w_.p.issue_per_s);
  r.note("offered_lookup_per_s", w_.p.lookup_per_s);
  r.note("names", static_cast<double>(w_.p.names));
  r.note("hosts_per_as", static_cast<double>(w_.p.hosts));
  r.note("span_drops", static_cast<double>(tr_.dropped()));
  if (!o_.trace_out.empty() && !write_spans(o_.trace_out, {&tr_}))
    std::fprintf(stderr, "perfbench: could not write %s\n", o_.trace_out.c_str());
}

}  // namespace

void run_control(const Options& o, Report& rep) {
  const Params p;
  const std::unique_ptr<World> w = build_world<World>(rep, p, o.seed);
  Driver d(*w, o, rep);
  d.run();
}

}  // namespace perfbench
