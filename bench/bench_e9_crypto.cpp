// E9 — Crypto-primitive ablation (§IV-A / §V design choices).
//
// Self-timed (bench_util.h), like every bench. Measures the primitives the
// paper's budgets rest on, with a per-TIER delta table for everything the
// runtime dispatcher widens:
//
//   * AES: single block, bulk encrypt_blocks, and the 16-chain CMAC driver
//     (aes_cmac_many) on every tier compiled into this binary and
//     supported by this CPU — soft / aesni / avx2 / vaes_avx512. Tiers the
//     host cannot run are SKIPPED with a printed notice, never a crash.
//   * ChaCha20: the wide keystream path (8-way AVX2 / 4-way SSE2 behind
//     chacha20_xcrypt) against the scalar block function, plus the
//     ChaCha20-Poly1305 issuance AEAD end to end.
//   * The two CCA-secure payload suites (§IV-A) at MTU size, and per host
//     frame: Session::seal and open (§IV-D) at the plaintext sizes of
//     perfbench's 128 / 512 / 1518 B frames.
//   * Ed25519: sign, scalar verify, and ed25519_verify_batch at the
//     ServicePool chunk widths — the shared-doubling speedup the MS
//     cert-chain check amortizes (Fig 3) — plus widths 1 and 2, what
//     paced issuance mostly runs (both go straight to scalar verify).
//     Sign and verify are also given as ratios to X25519, which shares
//     only the field arithmetic with them: the host's speed swings
//     between runs, the ratios much less. sc_half_split times the lattice
//     reduction each scalar verify runs.
//   * EphID IV: one FF1 (radix 2, 32 bits) of the Management Service's
//     reply counter, what EphIdCodec::issue_counted adds to an issuance,
//     against a 32-byte ChaChaRng fill.
//
// Emits BENCH_e9.json (machine_shape records the active tier; provenance
// the seed/commit). The checked-in baseline at the repo root is
// regenerated manually from a full run. Smoke runs (--smoke, wired as the
// bench_smoke_e9 ctest entry) shrink iteration counts but still execute
// every tier and assert the cross-tier/batch-vs-scalar equivalence gates.
//
// Usage:
//   bench_e9_crypto [--smoke] [--seed=N] [--json=PATH]
// Force a tier with APNA_CRYPTO_BACKEND=soft|aesni|avx2|vaes_avx512.
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/ephid.h"
#include "core/session.h"
#include "crypto/aead.h"
#include "crypto/aes.h"
#include "crypto/chacha20.h"
#include "crypto/ed25519.h"
#include "crypto/modes.h"
#include "crypto/rng.h"
#include "crypto/sc25519.h"
#include "crypto/x25519.h"

using namespace apna;
using namespace apna::crypto;

namespace {

struct Options {
  bool smoke = false;
  std::uint64_t seed = 2718;
  std::string json_path = "BENCH_e9.json";
};

Options parse_args(int argc, char** argv) {
  Options o;
  o.smoke = bench::smoke_mode(argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return a.compare(0, n, prefix) == 0 ? a.c_str() + n : nullptr;
    };
    if (a == "--smoke") continue;
    if (const char* v = val("--seed=")) o.seed = std::strtoull(v, nullptr, 10);
    else if (const char* v = val("--json=")) o.json_path = v;
    else {
      std::fprintf(stderr,
                   "unknown argument: %s\n"
                   "usage: bench_e9_crypto [--smoke] [--seed=N] [--json=PATH]\n",
                   a.c_str());
      std::exit(2);
    }
  }
  return o;
}

void fatal(const char* msg) {
  std::fprintf(stderr, "FATAL: %s\n", msg);
  std::exit(1);
}

double mbps(double ns_per_op, double bytes_per_op) {
  return bytes_per_op / ns_per_op * 1e9 / 1e6;
}

/// Tiers this binary can actually run on this CPU, narrowest first.
std::vector<Aes128::Backend> runnable_tiers() {
  std::vector<Aes128::Backend> out = {Aes128::Backend::soft};
  for (const Aes128::Backend b :
       {Aes128::Backend::aesni, Aes128::Backend::avx2,
        Aes128::Backend::vaes_avx512}) {
    if (Aes128::resolve_backend(b) == b)
      out.push_back(b);
    else
      std::printf("  (tier %s unsupported on this host — skipped)\n",
                  Aes128::backend_name(b));
  }
  return out;
}

struct TierRow {
  const char* tier;
  double block_ns;
  double bulk_mbps;
  double cmac_mbps;
};

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  ChaChaRng rng(o.seed);

  bench::print_header(
      "E9 — crypto primitive ablation",
      "§IV-A payload suites, §V-A1 AES-only data plane, §V-A2 asymmetric "
      "budget; tier deltas for the runtime SIMD dispatch");
  std::printf("active AES backend: %s\n",
              Aes128::backend_name(Aes128::best_backend()));

  const std::size_t kBulkBlocks = 1024;  // 16 KiB sweeps
  const std::size_t aes_iters = o.smoke ? 200 : 20'000;
  const std::size_t asym_iters = o.smoke ? 20 : 2'000;

  // ---- AES tier table ---------------------------------------------------------
  const Bytes aes_key = rng.bytes(16);
  const Bytes bulk_in = rng.bytes(kBulkBlocks * 16);
  Bytes bulk_out(bulk_in.size());
  Bytes soft_bulk;  // cross-tier equivalence gate

  std::vector<TierRow> tier_rows;
  std::printf("\nAES tiers (bulk = %zu blocks, cmac = 16-lane driver):\n",
              kBulkBlocks);
  std::printf("%12s %14s %14s %14s %12s\n", "tier", "block (ns)",
              "bulk (MB/s)", "cmac16 (MB/s)", "bulk vs soft");
  double soft_bulk_mbps = 0;
  for (const Aes128::Backend tier : runnable_tiers()) {
    Aes128 aes(aes_key, tier);
    std::uint8_t block[16] = {};
    const double block_ns = bench::time_per_op_ns(
        aes_iters * 64, [&](std::size_t) { aes.encrypt_block(block, block); });
    const double bulk_ns = bench::time_per_op_ns(aes_iters, [&](std::size_t) {
      aes.encrypt_blocks(bulk_in.data(), bulk_out.data(), kBulkBlocks);
    });
    if (tier == Aes128::Backend::soft)
      soft_bulk = bulk_out;
    else if (bulk_out != soft_bulk)
      fatal("tier output differs from soft encrypt_blocks");

    // 16 same-tier CMAC jobs over MTU-ish extents through aes_cmac_many.
    std::vector<AesCmac> keys;
    std::vector<Bytes> msgs;
    for (int j = 0; j < 16; ++j) {
      keys.emplace_back(rng.bytes(16), tier);
      msgs.push_back(rng.bytes(1460));
    }
    std::vector<CmacJob> jobs;
    for (int j = 0; j < 16; ++j) jobs.push_back(CmacJob{&keys[j], msgs[j], {}});
    std::array<std::uint8_t, 16> tags[16];
    const double cmac_ns = bench::time_per_op_ns(
        aes_iters / 8 + 1, [&](std::size_t) { aes_cmac_many(jobs, tags); });

    TierRow row{aes.backend(), block_ns, mbps(bulk_ns, 16.0 * kBulkBlocks),
                mbps(cmac_ns, 16.0 * 1460)};
    if (tier == Aes128::Backend::soft) soft_bulk_mbps = row.bulk_mbps;
    std::printf("%12s %14.1f %14.1f %14.1f %11.2fx\n", row.tier, row.block_ns,
                row.bulk_mbps, row.cmac_mbps, row.bulk_mbps / soft_bulk_mbps);
    tier_rows.push_back(row);
  }

  // ---- ChaCha20: wide keystream vs scalar blocks ------------------------------
  const Bytes cc_key = rng.bytes(32);
  const Bytes cc_nonce = rng.bytes(12);
  const Bytes cc_in = rng.bytes(16 * 1024);
  Bytes cc_out(cc_in.size());
  const double cc_wide_ns = bench::time_per_op_ns(aes_iters, [&](std::size_t) {
    chacha20_xcrypt(cc_key.data(), 1, cc_nonce.data(), cc_in, cc_out);
  });
  // Scalar reference: block function + XOR, the path `soft` forces.
  const double cc_scalar_ns =
      bench::time_per_op_ns(aes_iters / 4 + 1, [&](std::size_t) {
        std::uint8_t ks[64];
        for (std::size_t off = 0; off < cc_in.size(); off += 64) {
          chacha20_block(cc_key.data(),
                         1 + static_cast<std::uint32_t>(off / 64),
                         cc_nonce.data(), ks);
          for (std::size_t i = 0; i < 64; ++i)
            cc_out[off + i] = static_cast<std::uint8_t>(cc_in[off + i] ^ ks[i]);
        }
      });
  const double cc_wide_mbps = mbps(cc_wide_ns, (double)cc_in.size());
  const double cc_scalar_mbps = mbps(cc_scalar_ns, (double)cc_in.size());
  std::printf("\nChaCha20 keystream (16 KiB): wide %.1f MB/s, scalar %.1f "
              "MB/s (%.2fx)\n",
              cc_wide_mbps, cc_scalar_mbps, cc_wide_mbps / cc_scalar_mbps);

  // ---- AEAD suites at MTU size (§IV-A "any CCA-secure scheme") ---------------
  struct AeadRow {
    const char* suite;
    double seal_mbps;
    double open_mbps;
  };
  std::vector<AeadRow> aead_rows;
  std::printf("\nAEAD suites (1460-byte payload, 48-byte AAD):\n");
  std::printf("%24s %14s %14s\n", "suite", "seal (MB/s)", "open (MB/s)");
  const Bytes aead_key = rng.bytes(32);
  const Bytes nonce12 = rng.bytes(12);
  const Bytes aad = rng.bytes(48);
  const Bytes payload = rng.bytes(1460);
  for (const auto suite :
       {AeadSuite::aes128_ctr_cmac, AeadSuite::chacha20_poly1305}) {
    auto aead = Aead::create(suite, aead_key);
    const Bytes sealed = aead->seal(nonce12, aad, payload);
    const double seal_ns = bench::time_per_op_ns(aes_iters, [&](std::size_t) {
      auto ct = aead->seal(nonce12, aad, payload);
      if (ct.empty()) fatal("seal failed");
    });
    const double open_ns = bench::time_per_op_ns(aes_iters, [&](std::size_t) {
      auto pt = aead->open(nonce12, aad, sealed);
      if (!pt) fatal("open failed");
    });
    AeadRow row{aead_suite_name(suite), mbps(seal_ns, 1460),
                mbps(open_ns, 1460)};
    std::printf("%24s %14.1f %14.1f\n", row.suite, row.seal_mbps,
                row.open_mbps);
    aead_rows.push_back(row);
  }

  // ---- Session frames (§IV-D): one host data packet each way ------------------
  // 52 / 436 / 1442 B of plaintext fill perfbench's 128 / 512 / 1518 B
  // frames. open() rejects a replayed frame, so every round seals a fresh
  // batch, then opens it in order; the fastest round counts.
  struct SessionRow {
    const char* suite;
    std::uint64_t plaintext_bytes;
    double seal_ns;
    double open_ns;
  };
  std::vector<SessionRow> session_rows;
  std::printf("\nSession frames (Session::seal / open, ns per frame):\n");
  std::printf("%24s %10s %10s %10s\n", "suite", "plaintext", "seal", "open");
  {
    ChaChaRng srng(o.seed + 1);
    const auto a_kp = core::EphIdKeyPair::generate(srng);
    const auto b_kp = core::EphIdKeyPair::generate(srng);
    core::EphId a_eph, b_eph;
    srng.fill(a_eph.bytes);
    srng.fill(b_eph.bytes);
    const std::size_t batch = o.smoke ? 64 : 2048;
    const int rounds = o.smoke ? 2 : 12;
    std::vector<Bytes> frames(batch);
    for (const auto suite :
         {AeadSuite::aes128_ctr_cmac, AeadSuite::chacha20_poly1305}) {
      for (const std::size_t len : {52u, 436u, 1442u}) {
        auto tx = core::Session::derive(a_kp, a_eph, b_kp.pub.dh, b_eph, suite,
                                        /*initiator=*/true);
        auto rx = core::Session::derive(b_kp, b_eph, a_kp.pub.dh, a_eph, suite,
                                        /*initiator=*/false);
        const Bytes pt = srng.bytes(len);
        SessionRow row{aead_suite_name(suite), len,
                       std::numeric_limits<double>::max(),
                       std::numeric_limits<double>::max()};
        for (int r = 0; r < rounds; ++r) {
          const auto t0 = bench::Clock::now();
          for (Bytes& f : frames) f = tx.seal(pt);
          const auto t1 = bench::Clock::now();
          for (const Bytes& f : frames)
            if (!rx.open(f).ok()) fatal("session frame did not open");
          const auto t2 = bench::Clock::now();
          const double n = static_cast<double>(batch);
          row.seal_ns = std::min(
              row.seal_ns,
              std::chrono::duration<double, std::nano>(t1 - t0).count() / n);
          row.open_ns = std::min(
              row.open_ns,
              std::chrono::duration<double, std::nano>(t2 - t1).count() / n);
        }
        std::printf("%24s %10llu %10.0f %10.0f\n", row.suite,
                    static_cast<unsigned long long>(row.plaintext_bytes),
                    row.seal_ns, row.open_ns);
        session_rows.push_back(row);
      }
    }
  }

  // ---- Ed25519: scalar vs batch at the ServicePool chunk widths --------------
  auto kp = Ed25519KeyPair::generate(rng);
  const Bytes msg137 = rng.bytes(137);  // ~certificate TBS size
  const auto sig = kp.sign(msg137);
  const double sign_ns = bench::time_per_op_ns(
      asym_iters, [&](std::size_t) {
        auto s = kp.sign(msg137);
        if (s[0] != sig[0]) fatal("non-deterministic signature");
      });
  const double verify_ns = bench::time_per_op_ns(asym_iters, [&](std::size_t) {
    if (!ed25519_verify(kp.pub, msg137, sig)) fatal("verify failed");
  });
  std::printf("\nEd25519: sign %.1f µs, scalar verify %.1f µs\n",
              sign_ns / 1e3, verify_ns / 1e3);

  struct BatchRow {
    std::uint64_t width;
    double per_sig_us;
    double speedup;
  };
  std::vector<BatchRow> batch_rows;
  std::printf("%12s %18s %12s\n", "batch", "verify/sig (µs)", "vs scalar");
  for (const std::size_t width : {1u, 2u, 4u, 16u, 64u}) {
    std::vector<Ed25519PublicKey> pubs;
    std::vector<Bytes> msgs;
    std::vector<Ed25519Signature> sigs;
    for (std::size_t i = 0; i < width; ++i) {
      Ed25519Seed seed{};
      rng.fill(seed);
      const auto pub = ed25519_public_key(seed);
      Bytes m = rng.bytes(137);
      sigs.push_back(ed25519_sign(seed, pub, m));
      pubs.push_back(pub);
      msgs.push_back(std::move(m));
    }
    std::vector<Ed25519BatchItem> items;
    for (std::size_t i = 0; i < width; ++i)
      items.push_back({&pubs[i], msgs[i], &sigs[i]});
    std::vector<char> ok(width);
    const double batch_ns = bench::time_per_op_ns(
        asym_iters / width + 1, [&](std::size_t) {
          auto out = std::make_unique<bool[]>(width);
          if (!ed25519_verify_batch({items.data(), items.size()}, out.get()))
            fatal("batch rejected an all-valid chunk");
        });
    BatchRow row{width, batch_ns / width / 1e3,
                 verify_ns / (batch_ns / width)};
    std::printf("%12llu %18.1f %11.2fx\n",
                static_cast<unsigned long long>(row.width), row.per_sig_us,
                row.speedup);
    batch_rows.push_back(row);
  }

  // ---- X25519 (one per connection establishment, §IV-D1) ---------------------
  auto xa = X25519KeyPair::generate(rng);
  auto xb = X25519KeyPair::generate(rng);
  const double x25519_ns = bench::time_per_op_ns(asym_iters, [&](std::size_t) {
    auto s = x25519_shared(xa.priv, xb.pub);
    if (s[0] == 0 && s[31] == 0) fatal("degenerate shared secret");
  });
  std::printf("\nX25519 shared secret: %.1f µs\n", x25519_ns / 1e3);
  // X25519 shares no code with Ed25519 verification but the field
  // arithmetic: the in-run yardstick when the host speed moves between runs.
  std::printf("Ed25519 against X25519: sign %.3f, verify %.3f\n",
              sign_ns / x25519_ns, verify_ns / x25519_ns);

  // ---- sc_half_split: the lattice reduction inside every scalar verify ------
  std::vector<std::array<std::uint8_t, 32>> challenges(256);
  for (auto& k : challenges) {
    const Bytes wide = rng.bytes(64);
    sc_reduce(k.data(), wide.data());
  }
  std::uint8_t split_c[32], split_d[32];
  const double split_ns = bench::time_per_op_ns(aes_iters, [&](std::size_t i) {
    sc_half_split(split_c, split_d, challenges[i % challenges.size()].data());
  });
  std::printf("sc_half_split (half-size verification scalars): %.0f ns\n",
              split_ns);

  // ---- EphID IV: FF1 of the MS reply counter ---------------------------------
  // Chained, so each IV waits for the last: the ten dependent AES calls of
  // one issuance, not the throughput of many in flight.
  const Ff1Binary ff1(rng.bytes(16));
  std::uint32_t counter = 0;
  const double iv_ns = bench::time_per_op_ns(
      aes_iters, [&](std::size_t) { counter = ff1.encrypt(counter); });
  std::array<std::uint8_t, 32> rnd{};
  ChaChaRng crng(o.seed);
  const double chacha_fill_ns = bench::time_per_op_ns(
      aes_iters, [&](std::size_t) { crng.fill(rnd); });
  std::printf("\nEphID IV (FF1, 32 bits): %.0f ns (ChaChaRng 32B fill: %.0f ns)\n",
              iv_ns, chacha_fill_ns);

  // ---- EphID codec roundtrip (issue + open, tier-sensitive) ------------------
  core::EphIdCodec codec(rng.bytes(16));
  std::uint32_t iv = 0;
  const double ephid_ns = bench::time_per_op_ns(aes_iters, [&](std::size_t) {
    const auto e = codec.issue_with_iv(7, 1'700'000'900, ++iv);
    if (!codec.open(e).ok()) fatal("EphID roundtrip failed");
  });
  std::printf("EphID issue+open roundtrip: %.0f ns (%s)\n", ephid_ns,
              codec.backend());

  // ---- BENCH_e9.json ----------------------------------------------------------
  bench::JsonFile json(o.json_path);
  if (json.ok()) {
    json.field("experiment", "e9_crypto_primitives");
    json.machine_shape();
    json.provenance(o.seed);
    json.field("smoke", o.smoke);
    json.begin_array("aes_tiers");
    for (const auto& r : tier_rows) {
      json.begin_object();
      json.field("tier", r.tier);
      json.field("block_ns", r.block_ns, 1);
      json.field("bulk_mb_s", r.bulk_mbps, 1);
      json.field("cmac16_mb_s", r.cmac_mbps, 1);
      json.field("bulk_speedup_vs_soft", r.bulk_mbps / soft_bulk_mbps);
      json.end_object();
    }
    json.end_array();
    json.begin_array("chacha20");
    json.begin_object();
    json.field("bytes", std::uint64_t{16 * 1024});
    json.field("wide_mb_s", cc_wide_mbps, 1);
    json.field("scalar_mb_s", cc_scalar_mbps, 1);
    json.field("speedup", cc_wide_mbps / cc_scalar_mbps);
    json.end_object();
    json.end_array();
    json.begin_array("aead_mtu");
    for (const auto& r : aead_rows) {
      json.begin_object();
      json.field("suite", r.suite);
      json.field("seal_mb_s", r.seal_mbps, 1);
      json.field("open_mb_s", r.open_mbps, 1);
      json.end_object();
    }
    json.end_array();
    json.begin_array("session_frames");
    for (const auto& r : session_rows) {
      json.begin_object();
      json.field("suite", r.suite);
      json.field("plaintext_bytes", r.plaintext_bytes);
      json.field("seal_ns", r.seal_ns, 0);
      json.field("open_ns", r.open_ns, 0);
      json.end_object();
    }
    json.end_array();
    json.field("ed25519_sign_us", sign_ns / 1e3);
    json.field("ed25519_verify_us", verify_ns / 1e3);
    json.begin_array("ed25519_batch_verify");
    for (const auto& r : batch_rows) {
      json.begin_object();
      json.field("batch", r.width);
      json.field("per_sig_us", r.per_sig_us);
      json.field("speedup_vs_scalar", r.speedup);
      json.end_object();
    }
    json.end_array();
    json.field("x25519_us", x25519_ns / 1e3);
    json.field("ed25519_sign_per_x25519", sign_ns / x25519_ns, 3);
    json.field("ed25519_verify_per_x25519", verify_ns / x25519_ns, 3);
    json.field("sc_half_split_ns", split_ns, 0);
    json.field("ephid_iv_ns", iv_ns, 0);
    json.field("chacha_rng_fill32_ns", chacha_fill_ns, 0);
    json.field("ephid_roundtrip_ns", ephid_ns, 0);
    if (json.close())
      std::printf("  (baseline written to %s)\n", o.json_path.c_str());
  }

  bench::print_footer(
      "wide tiers beat soft on bulk AES and the 16-lane CMAC driver; batch "
      "verification amortizes the shared doublings below scalar cost; all "
      "tier outputs verified bit-identical in-run");
  return 0;
}
