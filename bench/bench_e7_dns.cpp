// E7-DNS — the §VII-A resolver at Internet scale (ROADMAP: "grow the DNS
// service into a real sharded resolver sized for millions of names").
//
// Holds 10⁶ published names in the sharded TTL cache and measures:
//   * populate rate (zone puts/s) and the cache bytes/name footprint
//     against a hard budget (the HostDb-style memory gate);
//   * cold sweep (every name once — zone hits filling the cache) and hot
//     Zipf lookups/s, single-threaded and through a ResolverPool worker
//     sweep;
//   * an NXDOMAIN storm: random-name flood proving the negative cache's
//     occupancy bound holds and the positive hit rate recovers after;
//   * publish churn: the hot Zipf lookups with one zone put per 100 (the
//     perfbench control_mix ratio), whose hit rate must stay above a floor —
//     a put invalidates only its name's generation slot, never the cache;
//   * DomainTrie policy-match cost with a realistic rule table installed.
//
// Emits BENCH_e7.json (bench_util::JsonFile) with provenance; the checked-
// in baseline at the repo root is regenerated manually from a full run.
//
// Usage:
//   bench_e7_dns [--smoke] [--names=N] [--seed=N] [--json=PATH]
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "dns/resolver.h"
#include "services/dns_zone.h"

using namespace apna;

namespace {

struct Options {
  bool smoke = false;
  std::uint64_t names = 1'000'000;
  std::uint64_t seed = 1;
  std::string json_path = "BENCH_e7.json";
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return a.compare(0, n, prefix) == 0 ? a.c_str() + n : nullptr;
    };
    if (a == "--smoke") o.smoke = true;
    else if (const char* v = val("--names=")) o.names = std::strtoull(v, nullptr, 10);
    else if (const char* v = val("--seed=")) o.seed = std::strtoull(v, nullptr, 10);
    else if (const char* v = val("--json=")) o.json_path = v;
    else {
      std::fprintf(stderr,
                   "unknown argument: %s\n"
                   "usage: bench_e7_dns [--smoke] [--names=N] [--seed=N] "
                   "[--json=PATH]\n",
                   a.c_str());
      std::exit(2);
    }
  }
  if (o.smoke && o.names == 1'000'000) o.names = 50'000;
  return o;
}

void fatal(const char* msg) {
  std::fprintf(stderr, "FATAL: %s\n", msg);
  std::exit(1);
}

std::string nth_name(std::uint64_t i) {
  return "h" + std::to_string(i) + ".svc.apna.example";
}

double seconds_since(bench::Clock::time_point t0) {
  return std::chrono::duration<double>(bench::Clock::now() - t0).count();
}

/// The cache memory gate, HostDb-style: slot index + LRU links + name
/// arenas + record slabs, amortized per cached name. Generous enough to
/// absorb allocator slack, tight enough that an accidental std::string or
/// per-entry allocation in the hot path blows it immediately.
constexpr double kBytesPerNameBudget = 512.0;

/// Publish churn: one zone put per kLookupsPerPublish hot lookups must keep
/// the cache hit rate at or above kChurnHitRateFloor. Per-name invalidation
/// costs a put only the few cached names sharing its generation slot; a
/// zone-wide invalidation would refill the cache after every put and hold
/// the rate far below the floor.
constexpr std::uint64_t kLookupsPerPublish = 100;
constexpr double kChurnHitRateFloor = 0.9;

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  bench::print_header(
      "E7-DNS — sharded resolver with 10^6 names (--names=" +
          std::to_string(o.names) + ")",
      "§VII-A DNS service at §VIII registered-host scale");

  crypto::ChaChaRng rng(o.seed);
  services::DnsZone zone;
  net::EventLoop loop;
  dns::Resolver::Config cfg;
  // Sized for the working set (1<<20 at the full 10^6 names). The index is
  // allocated eagerly, so an oversized capacity would bill empty slots to
  // the bytes/name gate in --smoke runs.
  cfg.cache.capacity = std::bit_ceil(static_cast<std::size_t>(o.names));
  dns::Resolver resolver(zone, loop, cfg);
  const core::ExpTime now = loop.now_seconds();

  // ---- populate: one signed-record template, per-name fields stamped in.
  // Building 10^6 real ed25519 signatures would measure libsodium, not the
  // resolver — the shared cert + dummy sig keeps record sizes honest
  // without the signing cost (the service-level signing path is covered by
  // dns_test).
  core::DnsRecord rec;
  rec.cert.aid = 64512;
  rec.cert.exp_time = now + 86400;
  rng.fill(MutByteSpan(rec.cert.pub.dh.data(), rec.cert.pub.dh.size()));
  rng.fill(MutByteSpan(rec.cert.pub.sig.data(), rec.cert.pub.sig.size()));
  rng.fill(MutByteSpan(rec.sig.data(), rec.sig.size()));
  auto t0 = bench::Clock::now();
  for (std::uint64_t i = 0; i < o.names; ++i) {
    rec.name = nth_name(i);
    rec.ipv4 = static_cast<std::uint32_t>(i + 1);
    zone.put(rec);
  }
  const double populate_s = seconds_since(t0);
  const double populate_rate = static_cast<double>(o.names) / populate_s;
  std::printf("populate: %llu names in %.2fs (%.2f M/s)\n",
              static_cast<unsigned long long>(o.names), populate_s,
              populate_rate / 1e6);

  // ---- cold sweep: every name once. All zone hits, cache filling.
  t0 = bench::Clock::now();
  for (std::uint64_t i = 0; i < o.names; ++i) {
    const auto a = resolver.resolve(nth_name(i), now);
    if (a.status != dns::Resolver::Status::ok) fatal("cold lookup failed");
  }
  const double cold_s = seconds_since(t0);
  const double cold_rate = static_cast<double>(o.names) / cold_s;
  std::printf("cold sweep: %.2f M lookups/s (zone-backed, cache-filling)\n",
              cold_rate / 1e6);

  // ---- memory gate at full occupancy.
  const auto mem = resolver.cache().memory_stats();
  std::printf("cache: %llu entries, %.1f B/name (budget %.0f) — "
              "%.1f MiB total\n",
              static_cast<unsigned long long>(mem.entries),
              mem.bytes_per_name(), kBytesPerNameBudget,
              static_cast<double>(mem.total()) / (1024.0 * 1024.0));
  if (mem.entries < std::min<std::uint64_t>(o.names, 1u << 20) * 9 / 10)
    fatal("cache failed to retain the working set");
  if (mem.bytes_per_name() > kBytesPerNameBudget)
    fatal("cache bytes/name over budget");

  // ---- hot Zipf pass, single thread.
  const std::uint64_t hot_lookups = o.smoke ? 200'000 : 2'000'000;
  bench::ZipfSampler zipf(static_cast<std::size_t>(o.names), 1.1,
                          rng.next_u64());
  std::vector<std::string> hot_names;
  hot_names.reserve(hot_lookups);
  for (std::uint64_t i = 0; i < hot_lookups; ++i)
    hot_names.push_back(nth_name(zipf.next()));
  auto before = resolver.stats();
  t0 = bench::Clock::now();
  for (const auto& n : hot_names) resolver.resolve(n, now);
  const double hot_s = seconds_since(t0);
  auto after = resolver.stats();
  const double hot_rate = static_cast<double>(hot_lookups) / hot_s;
  const double hot_hit_rate =
      static_cast<double>(after.cache_hits - before.cache_hits) /
      static_cast<double>(hot_lookups);
  std::printf("hot zipf: %.2f M lookups/s, %.1f%% cache hits\n",
              hot_rate / 1e6, 100.0 * hot_hit_rate);

  // ---- ResolverPool worker sweep over the same hot burst.
  struct PoolRow {
    std::size_t threads;
    double rate;
  };
  std::vector<PoolRow> pool_rows;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
    if (threads > bench::hardware_concurrency()) break;
    dns::ResolverPool::Config pc;
    pc.threads = threads;
    dns::ResolverPool pool(resolver, pc);
    std::vector<dns::Resolver::Answer> out(hot_names.size());
    t0 = bench::Clock::now();
    pool.process_lookups(hot_names, now, out);
    const double s = seconds_since(t0);
    pool_rows.push_back(
        {threads, static_cast<double>(hot_names.size()) / s});
    std::printf("pool x%zu: %.2f M lookups/s\n", threads,
                pool_rows.back().rate / 1e6);
  }

  // ---- NXDOMAIN storm: random junk names, then the recovery pass.
  const std::uint64_t storm_lookups = o.smoke ? 200'000 : 2'000'000;
  before = resolver.stats();
  t0 = bench::Clock::now();
  for (std::uint64_t i = 0; i < storm_lookups; ++i) {
    char junk[20];
    std::snprintf(junk, sizeof junk, "x%016llx",
                  static_cast<unsigned long long>(rng.next_u64()));
    resolver.resolve(std::string(junk) + ".flood.example", now);
  }
  const double storm_s = seconds_since(t0);
  after = resolver.stats();
  const double storm_rate = static_cast<double>(storm_lookups) / storm_s;
  const std::uint64_t storm_negative =
      (after.nxdomain - before.nxdomain) +
      (after.negative_hits - before.negative_hits);
  if (storm_negative != storm_lookups)
    fatal("storm lookups leaked a non-negative answer");
  const std::uint64_t neg_entries = resolver.cache().negative_size();
  const std::uint64_t neg_cap = resolver.cache().negative_capacity();
  std::printf("nxdomain storm: %.2f M lookups/s; %llu negative entries "
              "(cap %llu)\n",
              storm_rate / 1e6, static_cast<unsigned long long>(neg_entries),
              static_cast<unsigned long long>(neg_cap));
  if (neg_entries > neg_cap) fatal("negative cache exceeded its bound");

  // Recovery: the hot distribution again — hit rate must come back.
  before = resolver.stats();
  for (const auto& n : hot_names) resolver.resolve(n, now);
  after = resolver.stats();
  const double recovery_hit_rate =
      static_cast<double>(after.cache_hits - before.cache_hits) /
      static_cast<double>(hot_names.size());
  std::printf("post-storm recovery: %.1f%% cache hits (hot pass was %.1f%%)\n",
              100.0 * recovery_hit_rate, 100.0 * hot_hit_rate);
  if (recovery_hit_rate + 0.05 < hot_hit_rate)
    fatal("positive hit rate did not recover after the storm");

  // ---- publish churn: the hot distribution again, with one put of a
  // uniformly drawn published name per kLookupsPerPublish lookups.
  before = resolver.stats();
  std::uint64_t churn_puts = 0;
  t0 = bench::Clock::now();
  for (std::size_t i = 0; i < hot_names.size(); ++i) {
    resolver.resolve(hot_names[i], now);
    if ((i + 1) % kLookupsPerPublish == 0) {
      rec.name = nth_name(rng.next_u64() % o.names);
      rec.ipv4 = static_cast<std::uint32_t>(o.names + 1 + churn_puts++);
      zone.put(rec);
    }
  }
  const double churn_s = seconds_since(t0);
  after = resolver.stats();
  const double churn_rate = static_cast<double>(hot_names.size()) / churn_s;
  const double churn_hit_rate =
      static_cast<double>(after.cache_hits - before.cache_hits) /
      static_cast<double>(hot_names.size());
  std::printf("publish churn: %.2f M lookups/s, 1 put per %llu lookups, "
              "%.1f%% cache hits (floor %.0f%%)\n",
              churn_rate / 1e6,
              static_cast<unsigned long long>(kLookupsPerPublish),
              100.0 * churn_hit_rate, 100.0 * kChurnHitRateFloor);
  if (churn_hit_rate < kChurnHitRateFloor)
    fatal("publish churn dragged the cache hit rate below its floor");

  // ---- policy-match cost: a realistic rule table, then blocked/clean
  // lookups through the DomainTrie.
  const std::size_t rules = o.smoke ? 256 : 4096;
  for (std::size_t i = 0; i < rules; ++i) {
    const std::string domain = "bad" + std::to_string(i) + ".example";
    if (i % 4 == 0) resolver.policy().monitor(domain);
    else resolver.policy().block(domain);
  }
  // Prebuilt probe names: the timed loop measures the trie walk (plus the
  // reader lock), not std::string assembly.
  std::vector<std::string> blocked_probes, clean_probes;
  for (std::size_t i = 0; i < rules; ++i) {
    blocked_probes.push_back("deep.sub.bad" + std::to_string(i) + ".example");
    clean_probes.push_back(nth_name(i));
  }
  const std::size_t probe_iters = o.smoke ? 100'000 : 1'000'000;
  const double match_hit_ns = bench::time_per_op_ns(probe_iters, [&](std::size_t i) {
    resolver.policy().blocked(blocked_probes[i % rules], nullptr);
  });
  const double match_miss_ns = bench::time_per_op_ns(probe_iters, [&](std::size_t i) {
    resolver.policy().blocked(clean_probes[i % rules], nullptr);
  });
  std::printf("policy: %zu rules, %.0f ns/match (blocked subdomain), "
              "%.0f ns/match (clean name), %.1f KiB trie\n",
              rules, match_hit_ns, match_miss_ns,
              static_cast<double>(resolver.policy().memory_bytes()) / 1024.0);

  // ---- emit the baseline.
  bench::JsonFile json(o.json_path);
  if (!json.ok()) fatal("cannot open JSON output");
  json.field("experiment", "e7_dns");
  json.machine_shape();
  json.provenance(o.seed);
  json.field("smoke", o.smoke);
  json.field("names", o.names);
  json.field("cache_capacity", static_cast<std::uint64_t>(cfg.cache.capacity));
  json.field("populate_per_s", populate_rate, 0);
  json.field("cold_lookups_per_s", cold_rate, 0);
  json.field("hot_lookups_per_s", hot_rate, 0);
  json.field("hot_hit_rate", hot_hit_rate, 4);
  json.field("cache_entries", mem.entries);
  json.field("cache_bytes_total", mem.total());
  json.field("cache_bytes_per_name", mem.bytes_per_name(), 1);
  json.field("cache_bytes_per_name_budget", kBytesPerNameBudget, 0);
  json.begin_array("pool_sweep");
  for (const auto& row : pool_rows) {
    json.begin_object();
    json.field("threads", static_cast<std::uint64_t>(row.threads));
    json.field("lookups_per_s", row.rate, 0);
    json.end_object();
  }
  json.end_array();
  json.field("storm_lookups", storm_lookups);
  json.field("storm_lookups_per_s", storm_rate, 0);
  json.field("negative_entries", neg_entries);
  json.field("negative_capacity", neg_cap);
  json.field("recovery_hit_rate", recovery_hit_rate, 4);
  json.field("churn_lookups_per_publish", kLookupsPerPublish);
  json.field("churn_publishes", churn_puts);
  json.field("churn_lookups_per_s", churn_rate, 0);
  json.field("churn_hit_rate", churn_hit_rate, 4);
  json.field("churn_hit_rate_floor", kChurnHitRateFloor, 2);
  json.field("policy_rules", static_cast<std::uint64_t>(rules));
  json.field("policy_match_blocked_ns", match_hit_ns, 1);
  json.field("policy_match_clean_ns", match_miss_ns, 1);
  json.field("policy_trie_bytes",
             static_cast<std::uint64_t>(resolver.policy().memory_bytes()));
  if (!json.close()) fatal("JSON close failed");

  bench::print_footer(
      "10^6-name cache under budget, negative storm bounded, hit rate "
      "recovered and held under publish churn; baseline written to " +
      o.json_path);
  return 0;
}
