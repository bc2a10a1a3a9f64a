// Concurrency coverage for the crypto substrate under the pooled-service
// threading model (the TSan target): ed25519_verify_batch must be safe to
// run from many threads at once (it keeps all scratch, its coefficient
// transcript included, on the stack / in local vectors; the only shared
// data is immutable curve constants).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "crypto/ed25519.h"
#include "crypto/rng.h"

namespace apna::crypto {
namespace {

TEST(CryptoConcurrency, BatchVerifyIsThreadSafe) {
  // The ServicePool shape: every worker runs ed25519_verify_batch on a
  // chunk at once, each deriving its z coefficients from the chunk itself.
  // Verdicts must match scalar verification on every thread, every
  // iteration.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kSigs = 12;
  constexpr int kIters = 8;

  std::vector<Ed25519PublicKey> pubs;
  std::vector<Bytes> msgs;
  std::vector<Ed25519Signature> sigs;
  ChaChaRng rng(99);
  for (std::size_t i = 0; i < kSigs; ++i) {
    Ed25519Seed seed{};
    rng.fill(seed);
    const auto pub = ed25519_public_key(seed);
    Bytes msg = rng.bytes(48);
    sigs.push_back(ed25519_sign(seed, pub, msg));
    pubs.push_back(pub);
    msgs.push_back(std::move(msg));
  }
  // One corrupted signature: every thread must isolate exactly it.
  sigs[5][7] ^= 0x20;

  std::vector<Ed25519BatchItem> items;
  for (std::size_t i = 0; i < kSigs; ++i)
    items.push_back({&pubs[i], msgs[i], &sigs[i]});

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      bool out[kSigs];
      for (int it = 0; it < kIters; ++it) {
        const bool all =
            ed25519_verify_batch({items.data(), items.size()}, out);
        if (all) mismatches.fetch_add(1);
        for (std::size_t i = 0; i < kSigs; ++i)
          if (out[i] != (i != 5)) mismatches.fetch_add(1);
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace apna::crypto
