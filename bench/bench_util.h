// Shared helpers for the experiment benchmarks (E1..E11).
//
// Every experiment is self-timed and prints paper-style tables via these
// helpers. The Zipf sampler (flow-locality workloads) and the BENCH_*.json
// emitter live here so every bench shares one implementation.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "crypto/aes.h"
#include "crypto/rng.h"

namespace apna::bench {

using Clock = std::chrono::steady_clock;

/// Hardware threads the host actually exposes (1 when unknown). The
/// checked-in BENCH_*.json baselines record this next to every thread /
/// worker sweep: a flat "speedup" column measured on a 1-core container is
/// a fact about the machine, not the code, and must be readable as such.
inline unsigned hardware_concurrency() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// True when thread sweeps cannot show real parallelism. Benches must
/// SKIP their speedup assertions (with a printed warning) instead of
/// failing — or, worse, silently passing a meaningless >= 1.0x check.
inline bool single_core() { return hardware_concurrency() <= 1; }

/// Git commit the binary was built from. Stamped at configure time
/// (bench/CMakeLists.txt); "unknown" outside a git checkout. Baselines
/// carry it so a checked-in JSON can always be traced to the code that
/// produced it.
inline const char* git_sha() {
#ifdef APNA_GIT_SHA
  return APNA_GIT_SHA;
#else
  return "unknown";
#endif
}

/// Times `fn(i)` over `iters` calls; returns nanoseconds per call.
inline double time_per_op_ns(std::size_t iters,
                             const std::function<void(std::size_t)>& fn) {
  // Warmup.
  const std::size_t warm = iters / 10 + 1;
  for (std::size_t i = 0; i < warm; ++i) fn(i);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) fn(i);
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(iters);
}

inline void print_header(const std::string& experiment,
                         const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

inline void print_footer(const std::string& takeaway) {
  std::printf("----------------------------------------------------------------\n");
  std::printf("Shape check: %s\n\n", takeaway.c_str());
}

/// True when `--smoke` appears in argv: benches shrink every iteration
/// count / measurement window to "compiles-and-runs" size so the ctest
/// `bench_smoke` entries keep them from compile- and bit-rotting without
/// burning CI time. Smoke runs still exercise every code path.
inline bool smoke_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--smoke") return true;
  return false;
}

/// Zipf(s) sampler over ranks [0, n): P(rank k) ∝ 1/(k+1)^s. Real traffic
/// is flow-dominated — a small set of elephant flows carries most packets —
/// and Zipf with s ≈ 1.1 is the standard stand-in (flow-locality workloads
/// for the E2 verified-flow cache). s == 0 degenerates to uniform.
/// Deterministic for a given (n, s, seed); inverse-CDF table + binary
/// search, fine at bench scale.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s, std::uint64_t seed)
      : cdf_(n), rng_(seed) {
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

/// Minimal streaming emitter for the checked-in BENCH_*.json baselines:
/// one top-level object, scalar fields, arrays of flat objects. Handles
/// comma placement so the benches stop hand-assembling JSON with fprintf.
///
/// Writes stream to `<path>.tmp`; close() flushes and renames over the
/// final path, so a bench killed mid-emit never leaves a torn baseline
/// where the checked-in JSON used to be (same atomicity contract as the
/// persist layer's snapshots).
class JsonFile {
 public:
  explicit JsonFile(const std::string& path)
      : path_(path),
        tmp_(path + ".tmp"),
        f_(std::fopen(tmp_.c_str(), "w")) {
    if (f_) std::fputs("{", f_);
  }
  ~JsonFile() { close(); }
  JsonFile(const JsonFile&) = delete;
  JsonFile& operator=(const JsonFile&) = delete;

  bool ok() const { return f_ != nullptr; }

  void field(const char* key, const char* v) {
    pre(key);
    std::fprintf(f_, "\"%s\"", v);
  }
  void field(const char* key, const std::string& v) { field(key, v.c_str()); }
  void field(const char* key, double v, int precision = 2) {
    pre(key);
    std::fprintf(f_, "%.*f", precision, v);
  }
  void field(const char* key, std::uint64_t v) {
    pre(key);
    std::fprintf(f_, "%llu", static_cast<unsigned long long>(v));
  }
  void field(const char* key, unsigned v) {
    field(key, static_cast<std::uint64_t>(v));
  }
  void field(const char* key, bool v) {
    pre(key);
    std::fputs(v ? "true" : "false", f_);
  }

  /// The machine-shape block every BENCH_*.json carries: readers of a
  /// checked-in baseline need to know whether its sweeps had real cores
  /// behind them (see single_core()), and which crypto tier (soft / aesni /
  /// avx2 / vaes_avx512, after the APNA_CRYPTO_BACKEND cap) produced the
  /// numbers — crypto-bound baselines from different tiers are not
  /// comparable.
  void machine_shape() {
    field("hardware_concurrency", bench::hardware_concurrency());
    field("single_core", bench::single_core());
    field("crypto_backend",
          crypto::Aes128::backend_name(crypto::Aes128::best_backend()));
  }

  /// The provenance block every baseline carries: the commit the binary
  /// was built from plus the RNG seed that drove the workload. Together
  /// with the determinism contract (same seed ⇒ same workload) this makes
  /// each emitted JSON a reproducible artifact, not a one-off.
  void provenance(std::uint64_t rng_seed) {
    field("git_sha", bench::git_sha());
    field("rng_seed", rng_seed);
  }

  void begin_array(const char* key) {
    pre(key);
    if (f_) std::fputs("[", f_);
    ++depth_;
    first_ = true;
  }
  void end_array() {
    --depth_;
    newline_indent();
    if (f_) std::fputs("]", f_);
    first_ = false;
  }
  void begin_object() {
    if (!f_) return;
    if (!first_) std::fputs(",", f_);
    newline_indent();
    std::fputs("{", f_);
    ++depth_;
    first_ = true;
  }
  void end_object() {
    --depth_;
    newline_indent();
    if (f_) std::fputs("}", f_);
    first_ = false;
  }

  /// Closes the file (also run by the destructor): flushes the temp file
  /// and renames it over the final path. Returns true only when the
  /// baseline landed completely — on any failure the temp file is removed
  /// and whatever was at the final path before is left untouched.
  bool close() {
    if (!f_) return false;
    std::fputs("\n}\n", f_);
    bool ok = std::fflush(f_) == 0;
    ok = (std::fclose(f_) == 0) && ok;
    f_ = nullptr;
    if (ok) ok = std::rename(tmp_.c_str(), path_.c_str()) == 0;
    if (!ok) std::remove(tmp_.c_str());
    return ok;
  }

 private:
  void newline_indent() {
    if (!f_) return;
    std::fputc('\n', f_);
    for (int i = 0; i < 2 * depth_; ++i) std::fputc(' ', f_);
  }
  void pre(const char* key) {
    if (!f_) return;
    if (!first_) std::fputs(",", f_);
    newline_indent();
    std::fprintf(f_, "\"%s\": ", key);
    first_ = false;
  }

  std::string path_;
  std::string tmp_;
  std::FILE* f_;
  bool first_ = true;
  int depth_ = 1;
};

}  // namespace apna::bench
