// apna_perfbench — one run of one benchmark workload.
//
//   apna_perfbench --workload <fwd_zipf|fwd_churn|fwd_udp|control_mix>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-out <file>]
//
// Prints one JSON line: the run's checks (attempted / failed), every
// end-to-end metric, every per-layer metric (filled from spans only when
// --trace 1) and the provenance of the numbers. perfbench/run.py turns it
// into the benchmark's result line.
#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>

#include "crypto/aes.h"
#include "workloads.h"

// Heap-allocation counter behind router.allocs_per_pkt / host.allocs_per_pkt:
// the operator-new count of util/alloc_count_hook.h, kept per thread so that
// fwd_udp's sender and receiver do not count each other's allocations. A
// ForwardingPool of one thread runs on its caller, so the caller's count
// covers the router. Replaces the global operator new/delete, so it lives in
// this one file.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
thread_local std::uint64_t t_heap_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_heap_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t heap_allocs() { return t_heap_allocs; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void release_free_memory() { malloc_trim(0); }

namespace {
void set_affinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}
}  // namespace

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
}

void CpuRotation::next() {
  if (cpus_.empty()) return;
  set_affinity({cpus_[++turn_ % cpus_.size()]});
}

void CpuRotation::follow(std::size_t turn) const {
  if (cpus_.empty()) return;
  set_affinity({cpus_[(turn + cpus_.size() / 2) % cpus_.size()]});
}

void CpuRotation::unpin() const {
  if (!cpus_.empty()) set_affinity(cpus_);
}

bool write_spans(const std::string& path, const std::vector<const Tracer*>& ts) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::fprintf(f, "apna-perfbench-spans v1 record=32 names=");
  for (std::uint16_t n = 0; n < kSpanNames; ++n)
    std::fprintf(f, "%s%s", n ? "," : "", span_name(n));
  std::fputc('\n', f);
  bool ok = true;
  for (std::size_t t = 0; t < ts.size(); ++t) {
    const std::vector<Span>& s = ts[t]->spans();
    // Thread index in the high byte of `phase` keeps records self-describing.
    for (Span sp : s) {
      sp.phase = static_cast<std::uint16_t>(sp.phase | (t << 8));
      ok = ok && std::fwrite(&sp, sizeof sp, 1, f) == 1;
    }
  }
  return std::fclose(f) == 0 && ok;
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics, reported by every workload from untraced runs.
// "ops" is the workload's primary operation: packets delivered host to host
// (fwd_*) or control operations, one issuance plus its lookups
// (control_mix); see perfbench/LAYERS.md.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"ops_per_s", "1/s"},
    {"p50_us", "us"},
    {"p90_us", "us"},
};

// The per-layer metrics, reported by every workload from traced runs. A
// layer a workload does not exercise reports 0.
constexpr MetricDef kPerLayer[] = {
    {"router.egress_ns_per_pkt", "ns"},
    {"router.ingress_ns_per_pkt", "ns"},
    {"router.drop_expired", "count"},
    {"router.drop_revoked", "count"},
    {"router.drop_unknown_host", "count"},
    {"router.drop_bad_mac", "count"},
    {"router.drop_bad_ephid", "count"},
    {"router.drop_too_big", "count"},
    {"router.allocs_per_pkt", "count"},
    {"router.copy_bytes_per_pkt", "B"},
    {"core.flow_cache_hit_rate", "ratio"},
    {"core.ingress_cache_hit_rate", "ratio"},
    {"core.flow_cache_stale_gen", "count"},
    {"core.flow_cache_evictions", "count"},
    {"core.cross_worker_duplicates", "count"},
    {"core.epoch_bumps", "count"},
    {"crypto.ephid_opens_per_pkt", "count"},
    {"crypto.mac_bytes_per_pkt", "B"},
    {"crypto.aead_bytes_per_pkt", "B"},
    {"host.seal_ns_per_pkt", "ns"},
    {"host.open_ns_per_pkt", "ns"},
    {"host.allocs_per_pkt", "count"},
    {"net.hop_ns_per_pkt", "ns"},
    {"net.pkts_per_poll", "count"},
    {"net.empty_poll_ratio", "ratio"},
    {"net.window_wait_ns_per_pkt", "ns"},
    {"net.tx_errors", "count"},
    {"net.rx_rejected", "count"},
    {"net.rx_truncated", "count"},
    {"services.issue_per_s", "1/s"},
    {"services.issue_ns_per_req", "ns"},
    {"services.issue_burst_mean", "count"},
    {"services.ms_rejected", "count"},
    {"services.pool_failed_jobs", "count"},
    {"services.shutoff_ns_per_req", "ns"},
    {"services.shutoff_p50_us", "us"},
    {"services.shutoff_p90_us", "us"},
    {"services.shutoff_samples", "count"},
    {"services.aa_accepted", "count"},
    {"services.aa_rejected", "count"},
    {"services.aa_hid_escalations", "count"},
    {"persist.commit_us", "us"},
    {"persist.snapshot_ms", "ms"},
    {"persist.records_per_commit", "count"},
    {"persist.journal_bytes_per_issue", "B"},
    {"persist.dropped", "count"},
    {"dns.resolve_ns_per_lookup", "ns"},
    {"dns.resolve_per_s", "1/s"},
    {"dns.resolve_p50_us", "us"},
    {"dns.resolve_p90_us", "us"},
    {"dns.cache_hit_rate", "ratio"},
    {"dns.negative_hit_rate", "ratio"},
    {"dns.publish_us", "us"},
    {"dns.cache_bytes_per_name", "B"},
    {"bench.gen_lag_p99_us", "us"},
    {"bench.backlog_max", "count"},
    {"bench.paced_saturated", "count"},
    {"bench.latency_samples", "count"},
    {"bench.trace_overhead", "ratio"},
    {"bench.span_coverage", "ratio"},
    {"bench.fail_ratio", "ratio"},
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: apna_perfbench --workload <fwd_zipf|fwd_churn|fwd_udp|"
               "control_mix> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>]\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = value() == "1";
    } else if (a == "--trace-out") {
      o.trace_out = value();
    } else {
      usage();
    }
  }
  const bool known = o.workload == "fwd_zipf" || o.workload == "fwd_churn" ||
                     o.workload == "fwd_udp" || o.workload == "control_mix";
  if (!known || !(o.seconds > 0)) usage();
  return o;
}

void emit_metrics(const char* key, const MetricDef* defs, std::size_t n,
                  const Report& rep) {
  std::printf("\"%s\": {", key);
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = rep.values.find(defs[i].name);
    double v = it == rep.values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                defs[i].name, v, defs[i].unit);
  }
  std::printf("}");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options o = parse(argc, argv);
  Report rep;
  if (o.workload == "control_mix")
    run_control(o, rep);
  else
    run_fwd(o, rep);

  rep.set("peak_rss_mb", peak_rss_mb());
  rep.set("bench.fail_ratio",
          rep.attempted > 0 ? static_cast<double>(rep.failed) / static_cast<double>(rep.attempted)
                            : 1.0);
  for (const MetricDef& m : kEndToEnd)
    if (rep.values.find(m.name) == rep.values.end()) rep.fail("end-to-end metric missing");

  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, ", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0);
  std::printf("\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              rep.failed == 0 && rep.attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  emit_metrics("end_to_end", kEndToEnd, std::size(kEndToEnd), rep);
  std::printf(", ");
  emit_metrics("per_layer", kPerLayer, std::size(kPerLayer), rep);
  std::printf(", \"provenance\": {\"nproc\": %u, \"aes_backend\": \"%s\", \"seconds\": %.17g",
              std::thread::hardware_concurrency(),
              apna::crypto::Aes128::backend_name(apna::crypto::Aes128::best_backend()),
              o.seconds);
  for (const auto& [k, v] : rep.provenance) std::printf(", \"%s\": %s", k.c_str(), v.c_str());
  std::printf("}}\n");
  return 0;
}
