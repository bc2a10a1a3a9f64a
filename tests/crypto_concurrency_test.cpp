// Concurrency coverage for the crypto substrate under the pooled-service
// threading model (the TSan target): per-slot HMAC-DRBGs must never share
// state across worker threads, and ed25519_verify_batch must be safe to run
// from many threads at once (it keeps all scratch on the stack / in local
// vectors; the only shared data is immutable curve constants).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "crypto/drbg.h"
#include "crypto/ed25519.h"
#include "crypto/rng.h"
#include "util/hex.h"

namespace apna::crypto {
namespace {

TEST(CryptoConcurrency, PerSlotDrbgsAreIndependentAcrossThreads) {
  // One HmacDrbg per simulated worker slot, hammered concurrently: every
  // slot's stream must equal a sequential re-run of the same (seed, slot)
  // instance — any cross-slot state sharing breaks equality, and any
  // aliased access trips TSan.
  constexpr std::size_t kSlots = 8;
  constexpr std::size_t kDraws = 512;
  constexpr std::uint64_t kSeed = 0xfeedface;

  std::vector<std::unique_ptr<HmacDrbg>> slot_drbgs;
  for (std::size_t i = 0; i < kSlots; ++i)
    slot_drbgs.push_back(std::make_unique<HmacDrbg>(kSeed, i));

  std::vector<Bytes> streams(kSlots, Bytes(kDraws * 32));
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kSlots; ++i)
      threads.emplace_back([&, i] {
        for (std::size_t d = 0; d < kDraws; ++d)
          slot_drbgs[i]->fill(
              MutByteSpan(streams[i].data() + d * 32, 32));
      });
    for (auto& t : threads) t.join();
  }

  for (std::size_t i = 0; i < kSlots; ++i) {
    HmacDrbg ref(kSeed, i);
    Bytes expect(kDraws * 32);
    for (std::size_t d = 0; d < kDraws; ++d)
      ref.fill(MutByteSpan(expect.data() + d * 32, 32));
    EXPECT_EQ(hex_encode(streams[i]), hex_encode(expect)) << "slot " << i;
  }
}

TEST(CryptoConcurrency, BatchVerifyIsThreadSafeWithPrivateDrbgs) {
  // The ServicePool shape: each worker runs ed25519_verify_batch on its own
  // chunk with its own slot DRBG supplying the z coefficients. Verdicts
  // must match scalar verification on every thread, every iteration.
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
    threads.emplace_back([&, t] {
      HmacDrbg drbg(0xabad1dea, t);
      bool out[kSigs];
      for (int it = 0; it < kIters; ++it) {
        const bool all =
            ed25519_verify_batch({items.data(), items.size()}, out, drbg);
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
