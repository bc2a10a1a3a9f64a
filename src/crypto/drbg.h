// HMAC-DRBG (NIST SP 800-90A, HMAC-SHA256 variant).
//
// ServicePool gives every worker slot its own DRBG (the batch-verify
// coefficients) so randomness never crosses a thread boundary: no
// shared-state contention on the hot path, and pooled output stays
// deterministic per burst index regardless of worker count — each
// request's generator is reinstantiated from (ServicePool::kRngSeed,
// index), so which slot serves it cannot matter. The construction is the standard K/V HMAC chain:
//
//   update(data):  K = HMAC(K, V ‖ 0x00 ‖ data); V = HMAC(K, V)
//                  [and the 0x01 round when data is non-empty]
//   generate:      V = HMAC(K, V) repeatedly, output = the V chain
//
// matching the fips140 KAT shapes (drbg_nopr_hmac_sha256 /
// drbg_pr_hmac_sha256) pinned in crypto_kat_test.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/rng.h"
#include "util/bytes.h"

namespace apna::crypto {

/// Deterministic HMAC-SHA256 DRBG. Not thread-safe — by design one instance
/// per worker slot (or per request); share nothing.
class HmacDrbg final : public Rng {
 public:
  /// SP 800-90A caps HMAC-DRBG at 2^48 generate calls between reseeds; the
  /// constructor accepts a smaller interval for testing the reseed path.
  static constexpr std::uint64_t kReseedInterval = 1ull << 48;

  /// Instantiate from entropy ‖ nonce ‖ personalization (any lengths; the
  /// seed material is their concatenation, per the spec).
  HmacDrbg(ByteSpan entropy, ByteSpan nonce, ByteSpan personalization,
           std::uint64_t reseed_interval = kReseedInterval);

  /// Convenience deterministic form for the service pool: seed material
  /// is the 8-byte little-endian seed ‖ 8-byte little-endian stream index.
  HmacDrbg(std::uint64_t seed, std::uint64_t stream);

  /// SP 800-90A Reseed: mixes fresh entropy (and optional additional input)
  /// into K/V and resets the generate counter.
  void reseed(ByteSpan entropy, ByteSpan additional = {});

  /// SP 800-90A Generate. Returns false — producing nothing — when the
  /// reseed interval has been exhausted; the caller must reseed() first.
  [[nodiscard]] bool generate(MutByteSpan out, ByteSpan additional = {});

  /// True when the next generate() would demand a reseed.
  bool needs_reseed() const { return reseed_counter_ > reseed_interval_; }

  /// Generate calls since instantiation/reseed (starts at 1, per spec).
  std::uint64_t reseed_counter() const { return reseed_counter_; }

  /// Rng interface. With the default 2^48 interval this never trips the
  /// reseed requirement in practice; if a test-sized interval does trip it,
  /// fill() performs a deterministic state-stir reseed (entropy-free
  /// update) as a safety valve so the Rng contract (fill always succeeds)
  /// holds. Callers needing SP 800-90A semantics use generate()/reseed().
  void fill(MutByteSpan out) override;

 private:
  void update(ByteSpan data1, ByteSpan data2 = {}, ByteSpan data3 = {});

  std::array<std::uint8_t, 32> key_{};
  std::array<std::uint8_t, 32> v_{};
  std::uint64_t reseed_counter_ = 0;
  std::uint64_t reseed_interval_ = kReseedInterval;
};

}  // namespace apna::crypto
