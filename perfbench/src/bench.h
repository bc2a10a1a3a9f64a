// Shared pieces of the APNA benchmark driver: options, the result record,
// latency statistics, the open-loop pacer and the span tracer.
//
// Everything here is benchmark-side instrumentation. The system under test
// is only ever called through the public APIs of src/; spans are recorded
// around those calls, never inside them.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// This thread's heap allocation count (operator-new hook, defined once in
/// main.cpp).
std::uint64_t heap_allocs();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its raw spans ("" = nowhere).
  std::string trace_out;
};

/// What one run produces. Workloads fill `values` by metric name; main.cpp
/// owns the canonical metric list and emits it.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;
  /// Provenance entries, values already JSON-encoded.
  std::vector<std::pair<std::string, std::string>> provenance;

  void set(const std::string& name, double v) { values[name] = v; }
  void note(const std::string& key, const std::string& json_value) {
    provenance.emplace_back(key, json_value);
  }
  void note(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    note(key, std::string(buf));
  }
  /// Counts `n` wrong or failed outcomes; the first few are described on
  /// stderr so a failing run says what went wrong.
  void fail(const char* what, std::uint64_t n = 1) {
    if (n == 0) return;
    if (failed < 8) std::fprintf(stderr, "perfbench: check failed: %s (x%llu)\n",
                                 what, static_cast<unsigned long long>(n));
    failed += n;
  }
};

/// Quantile by selection (moves elements of `v`). 0 for an empty set.
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

inline double median(std::vector<double> v) { return quantile(v, 0.5); }

/// A run alternates kCycles saturation and paced segments and reports each
/// phase's best slice (kSlicesPerSegment). Other tenants of a shared host
/// slow a single thread by up to a third for seconds at a time; alternating
/// lets both phases sample the whole run, best-of-slices filters the slow
/// spells, and a change to the code moves every slice alike.
constexpr int kCycles = 10;

/// Timed world builds per run; `setup_s` is their median.
constexpr int kSetups = 5;

/// Moves the calling thread from CPU to CPU. A shared host slows its vCPUs
/// one at a time, by up to a third, for seconds on end (a busy co-tenant on
/// the same physical core), so a thread left where the scheduler put it can
/// spend a whole run on a slow one. A driver moves at the start of every
/// slice of a segment, so the best-of statistics see every CPU many times.
class CpuRotation {
 public:
  /// The CPUs this process may run on.
  CpuRotation();
  /// Pins the calling thread to the next CPU in turn.
  void next();
  /// How many times next() has moved.
  std::size_t turn() const { return turn_; }
  /// Pins the calling thread half the CPUs away from the one of `turn`: a
  /// second driver thread follows the first without sharing its CPU.
  void follow(std::size_t turn) const;
  /// Lets the calling thread run on every CPU again.
  void unpin() const;

 private:
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

/// Each phase of a segment runs in this many slices: saturation slices of
/// equal time or work, paced latencies scored in slices of equal sample
/// count. The host's slow spells come and go within a second, and a 90th
/// percentile needs a stretch of the run without one.
constexpr std::size_t kSlicesPerSegment = 8;

/// The slice of the segment [start, end) that time `t` falls in.
inline std::uint64_t slice_of(std::uint64_t start, std::uint64_t end, std::uint64_t t) {
  return (t - start) * kSlicesPerSegment / (end - start);
}

/// The q-quantile of each slice of `v`: the samples of each segment (they
/// end at `ends`, ascending indices) cut into kSlicesPerSegment slices.
/// Slices of 100 samples or fewer are skipped.
inline std::vector<double> slice_quantiles(const std::vector<double>& v,
                                           const std::vector<std::size_t>& ends, double q) {
  std::vector<double> per;
  std::size_t begin = 0;
  for (const std::size_t end : ends) {
    const std::size_t n = end - begin;
    for (std::size_t k = 0; k < kSlicesPerSegment; ++k) {
      const std::size_t a = begin + n * k / kSlicesPerSegment;
      const std::size_t b = begin + n * (k + 1) / kSlicesPerSegment;
      if (b <= a + 100) continue;
      std::vector<double> slice(v.begin() + static_cast<std::ptrdiff_t>(a),
                                v.begin() + static_cast<std::ptrdiff_t>(b));
      per.push_back(quantile(slice, q));
    }
    begin = end;
  }
  return per;
}

/// The lowest of slice_quantiles(), or the q-quantile of all of `v` when no
/// slice is large enough.
inline double best_slice_quantile(const std::vector<double>& v,
                                  const std::vector<std::size_t>& ends, double q) {
  const std::vector<double> per = slice_quantiles(v, ends, q);
  if (per.empty()) {
    std::vector<double> all(v);
    return quantile(all, q);
  }
  return *std::min_element(per.begin(), per.end());
}

/// One stderr line with every slice's q-quantile (human reading only).
inline void describe_slices(const char* what, const std::vector<double>& v,
                            const std::vector<std::size_t>& ends, double q) {
  std::fprintf(stderr, "perfbench: %s per-slice q%.2f:", what, q);
  for (const double x : slice_quantiles(v, ends, q)) std::fprintf(stderr, " %.0f", x);
  std::fputc('\n', stderr);
}

/// Completions per second of a closed-loop phase, as its best segment or
/// slice.
class SegmentRates {
 public:
  void add(std::uint64_t t0_ns, std::uint64_t t1_ns, std::uint64_t done0,
           std::uint64_t done1) {
    if (t1_ns > t0_ns)
      rates_.push_back(static_cast<double>(done1 - done0) * 1e9 /
                       static_cast<double>(t1_ns - t0_ns));
  }
  double best_rate() const {
    return rates_.empty() ? 0 : *std::max_element(rates_.begin(), rates_.end());
  }
  /// One stderr line with every segment's rate (human reading only).
  void describe(const char* what) const {
    std::fprintf(stderr, "perfbench: %s segments/s:", what);
    for (double r : rates_) std::fprintf(stderr, " %.0f", r);
    std::fputc('\n', stderr);
  }

 private:
  std::vector<double> rates_;
};

/// Completions and time summed over segments: the traced and untraced
/// cycles of a traced run, whose ratio is the tracing overhead.
struct Throughput {
  double done = 0;
  double ns = 0;
  void add(std::uint64_t t0_ns, std::uint64_t t1_ns, std::uint64_t done0,
           std::uint64_t done1) {
    done += static_cast<double>(done1 - done0);
    ns += static_cast<double>(t1_ns - t0_ns);
  }
  double rate() const { return ns > 0 ? done * 1e9 / ns : 0; }
};

/// Tracing overhead of a traced run: untraced rate / traced rate - 1.
inline double trace_overhead(const Throughput& untraced, const Throughput& traced) {
  return traced.rate() > 0 ? untraced.rate() / traced.rate() - 1.0 : 0;
}

/// A traced run traces every other cycle, so drift in the host's speed
/// falls on both sides of the overhead ratio.
inline bool traced_cycle(bool trace, int cycle) { return trace && cycle % 2 == 1; }

/// Whether a span buffer has room for one more traced cycle: a quarter more
/// than the largest cycle it recorded so far. A cycle recorded only in part
/// would undercount its stages, so a traced run stops tracing instead.
class CycleBudget {
 public:
  /// Called at the start of each cycle a traced run would trace, with the
  /// spans the buffer holds and its capacity.
  bool room(std::size_t used, std::size_t capacity) {
    largest_ = std::max(largest_, used - at_);
    at_ = used;
    return capacity - used >= largest_ + largest_ / 4;
  }

 private:
  std::size_t at_ = 0;
  std::size_t largest_ = 0;
};

/// One stderr line describing a latency distribution (human reading only).
inline void describe(const char* what, std::vector<double>& v) {
  std::fprintf(stderr, "perfbench: %s n=%zu p50=%.1f p90=%.1f p95=%.1f p99=%.1f p99.9=%.1f us\n",
               what, v.size(), quantile(v, 0.5), quantile(v, 0.9), quantile(v, 0.95),
               quantile(v, 0.99), quantile(v, 0.999));
}

/// Open-loop schedule: item i is due at start + i * period. The driver asks
/// how many items are due, takes up to a burst of them, and reports how late
/// it picked them up (generator lag) and how many were waiting (backlog).
class Pacer {
 public:
  Pacer(std::uint64_t start_ns, double rate_per_s)
      : start_(start_ns), period_ns_(1e9 / rate_per_s) {
    lag_us_.reserve(1u << 18);  // no reallocation while a segment runs
  }

  std::uint64_t due_ns(std::uint64_t i) const {
    return start_ + static_cast<std::uint64_t>(static_cast<double>(i) * period_ns_);
  }
  /// Items due by `t` (the count, not an index).
  std::uint64_t due_by(std::uint64_t t) const {
    if (t < start_) return 0;
    return static_cast<std::uint64_t>(static_cast<double>(t - start_) / period_ns_) + 1;
  }
  /// Takes up to `max` due items at time `t`; returns the first index and
  /// sets `n`. Records lag and backlog for the taken batch.
  std::uint64_t take(std::uint64_t t, std::uint64_t max, std::uint64_t& n) {
    const std::uint64_t due = due_by(t);
    const std::uint64_t backlog = due > next_ ? due - next_ : 0;
    n = std::min(backlog, max);
    const std::uint64_t first = next_;
    if (n > 0) {
      backlog_max_ = std::max(backlog_max_, backlog);
      lag_us_.push_back(static_cast<double>(t - due_ns(first)) / 1e3);
      next_ += n;
    }
    return first;
  }
  /// Items due by `t` but not yet taken.
  std::uint64_t backlog(std::uint64_t t) const {
    const std::uint64_t due = due_by(t);
    return due > next_ ? due - next_ : 0;
  }
  std::uint64_t taken() const { return next_; }
  std::uint64_t backlog_max() const { return backlog_max_; }
  std::vector<double>& lag_us() { return lag_us_; }

 private:
  std::uint64_t start_;
  double period_ns_;
  std::uint64_t next_ = 0;
  std::uint64_t backlog_max_ = 0;
  std::vector<double> lag_us_;
};

/// Zipf(s) over ranks [0, n): P(k) ∝ 1/(k+1)^s, by inverse CDF. s = 0 is
/// uniform. The caller supplies the uniform draw, so the schedule is a pure
/// function of the workload seed.
class ZipfTable {
 public:
  ZipfTable(std::size_t n, double s) : cdf_(n) {
    double total = 0;
    for (std::size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t pick(double u) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// A paced segment whose backlog at its end exceeds this many items (or one
/// hundredth of what was offered, if larger) did not keep up: the run is
/// reported as saturated.
constexpr std::uint64_t kSaturatedBacklog = 1000;

// ---- Span tracer ------------------------------------------------------------

/// Span names: one per layer boundary the driver calls across, plus the
/// driver's own stages. Metric names are built from these.
enum SpanName : std::uint16_t {
  kRoot,          // bench.round — one burst / request round of the driver
  kGen,           // bench.gen — building the round's inputs
  kCheck,         // bench.check — output checks and buffer release
  kEgress,        // router.egress — ForwardingPool::process_outgoing
  kIngress,       // router.ingress — ForwardingPool::process_ingress
  kNetSend,       // net.send — Transport::send
  kNetPoll,       // net.poll — Transport::poll
  kWindowWait,    // net.window_wait — sender blocked on its in-flight window
  kHostSeal,      // host.seal — Session::seal + stamp_packet_mac
  kHostOpen,      // host.open — Session::open
  kIssue,         // services.issue — ServicePool::process_issuance
  kShutoff,       // services.shutoff — AccountabilityAgent::process
  kCommit,        // persist.commit — PersistCoordinator::commit
  kSnapshot,      // persist.snapshot — PersistCoordinator::write_snapshot
  kResolve,       // dns.resolve — ResolverPool::process_lookups
  kPublish,       // dns.publish — Resolver::admit_publish + DnsZone::put
  kRxIdle,        // net.rx_idle — receiver polling an empty socket
  kSpanNames,
};

inline const char* span_name(std::uint16_t n) {
  static const char* const kNames[kSpanNames] = {
      "bench.round",    "bench.gen",        "bench.check",
      "router.egress",  "router.ingress",   "net.send",
      "net.poll",       "net.window_wait",  "host.seal",
      "host.open",      "services.issue",   "services.shutoff",
      "persist.commit", "persist.snapshot", "dns.resolve",
      "dns.publish",    "net.rx_idle"};
  return n < kSpanNames ? kNames[n] : "?";
}

enum Phase : std::uint16_t { kWarm, kSaturated, kPaced, kPhases };

struct Span {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint32_t parent = 0;  // index in the same buffer, kNoSpan for roots
  std::uint32_t id = 0;      // round (burst / request batch) id
  std::uint32_t items = 0;   // packets / requests the call covered
  std::uint16_t name = 0;
  std::uint16_t phase = 0;
};

constexpr std::uint32_t kNoSpan = 0xffffffffu;

/// One thread's span buffer, reserved up front so recording never
/// allocates. When the buffer is full further spans are counted and
/// skipped. Disabled tracers record nothing.
class Tracer {
 public:
  Tracer(bool on, std::size_t capacity) : on_(on), cap_(on ? capacity : 0) {
    spans_.reserve(cap_);
  }

  bool on() const { return on_; }
  void set_phase(Phase p) { phase_ = p; }
  /// Suspends recording (the untraced half of a traced run's saturation
  /// phase, which measures the tracing overhead).
  void pause(bool paused) { paused_ = paused; }

  std::uint32_t open(std::uint16_t name, std::uint32_t id, std::uint32_t items) {
    if (!on_ || paused_) return kNoSpan;
    if (spans_.size() == cap_) {
      ++dropped_;
      return kNoSpan;
    }
    const auto idx = static_cast<std::uint32_t>(spans_.size());
    Span s;
    s.parent = cur_;
    s.id = id;
    s.items = items;
    s.name = name;
    s.phase = phase_;
    spans_.push_back(s);
    cur_ = idx;
    spans_[idx].start = now_ns();
    return idx;
  }

  void close(std::uint32_t idx) {
    if (idx == kNoSpan) return;
    spans_[idx].end = now_ns();
    cur_ = spans_[idx].parent;
  }

  /// Records a span that has already ended (a busy poll is only worth a
  /// span once it has returned something).
  void record(std::uint16_t name, std::uint32_t id, std::uint32_t items,
              std::uint64_t start, std::uint64_t end) {
    const std::uint32_t idx = open(name, id, items);
    if (idx == kNoSpan) return;
    spans_[idx].start = start;
    spans_[idx].end = end;
    cur_ = spans_[idx].parent;
  }

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& t, std::uint16_t name, std::uint32_t id, std::uint32_t items)
        : t_(t), idx_(t.open(name, id, items)) {}
    ~Scope() { t_.close(idx_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Updates the item count once the call reports it (e.g. packets a
    /// poll delivered).
    void items(std::uint32_t n) {
      if (idx_ != kNoSpan) t_.spans_[idx_].items = n;
    }

   private:
    Tracer& t_;
    std::uint32_t idx_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  std::size_t capacity() const { return cap_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  bool on_;
  bool paused_ = false;
  std::size_t cap_;
  std::vector<Span> spans_;
  std::uint32_t cur_ = kNoSpan;
  std::uint16_t phase_ = kWarm;
  std::uint64_t dropped_ = 0;
};

/// Per (span name, phase) totals: self time is a span's duration minus the
/// time its direct children cover.
struct SpanTotals {
  double self_ns[kSpanNames][kPhases] = {};
  double total_ns[kSpanNames][kPhases] = {};
  double items[kSpanNames][kPhases] = {};
  double count[kSpanNames][kPhases] = {};

  void add(const Tracer& t) {
    const std::vector<Span>& s = t.spans();
    std::vector<double> child(s.size(), 0.0);
    for (const Span& sp : s)
      if (sp.parent != kNoSpan && sp.end != 0)
        child[sp.parent] += static_cast<double>(sp.end - sp.start);
    for (std::size_t i = 0; i < s.size(); ++i) {
      const Span& sp = s[i];
      if (sp.end == 0 || sp.name >= kSpanNames || sp.phase >= kPhases) continue;
      const double dur = static_cast<double>(sp.end - sp.start);
      self_ns[sp.name][sp.phase] += dur - child[i];
      total_ns[sp.name][sp.phase] += dur;
      items[sp.name][sp.phase] += sp.items;
      count[sp.name][sp.phase] += 1;
    }
  }

  /// Self nanoseconds per item of `name` in `phase` (0 when it never ran).
  double self_per_item(std::uint16_t name, Phase phase) const {
    const double n = items[name][phase];
    return n > 0 ? self_ns[name][phase] / n : 0.0;
  }
  double self_per_call(std::uint16_t name, Phase phase) const {
    const double n = count[name][phase];
    return n > 0 ? self_ns[name][phase] / n : 0.0;
  }
  /// Share of `wall_ns` (one thread's traced time in `phase`) that the named
  /// stages — every span but the round root, waits included — account for.
  /// The reconciliation gate wants >= 0.9.
  double coverage(Phase phase, double wall_ns) const {
    double named = 0;
    for (std::uint16_t n = 0; n < kSpanNames; ++n)
      if (n != kRoot) named += self_ns[n][phase];
    return wall_ns > 0 ? named / wall_ns : 0.0;
  }
};

/// Writes raw spans as fixed 32-byte records after a one-line text header.
/// Returns false when the file cannot be written.
bool write_spans(const std::string& path, const std::vector<const Tracer*>& ts);

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Hands the heap's free pages back to the system, so a world built after
/// another one is freed does not add to the peak resident set.
void release_free_memory();

/// Builds the world kSetups times, each on the next CPU in turn, and sets
/// `setup_s` to the median build time; then builds the world the run
/// measures, unpinned, so that no thread it starts inherits a one-CPU pin.
template <typename World, typename... Args>
std::unique_ptr<World> build_world(Report& rep, const Args&... args) {
  CpuRotation cpus;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    cpus.next();
    const std::uint64_t t0 = now_ns();
    auto w = std::make_unique<World>(args...);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    w.reset();
    release_free_memory();
  }
  cpus.unpin();
  rep.set("setup_s", median(setup_s));
  return std::make_unique<World>(args...);
}

}  // namespace perfbench
