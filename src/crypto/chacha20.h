// ChaCha20 stream cipher and Poly1305 one-time MAC (RFC 8439), combined as
// the ChaCha20-Poly1305 AEAD.
//
// The paper requires "any conventional CCA-secure scheme" for payload
// encryption (§IV-A). ChaCha20-Poly1305 is this repo's default software
// suite: it is fast without hardware support. ChaCha20 also drives the
// deterministic RNG (ChaChaRng, rng.h) and expands the Ed25519
// batch-verification coefficients (ed25519.cpp).
#pragma once

#include <array>
#include <cstdint>

#include "crypto/aead.h"
#include "util/bytes.h"

namespace apna::crypto {

/// Raw ChaCha20 block function: fills `out` with the 64-byte keystream block
/// for (key, counter, nonce).
void chacha20_block(const std::uint8_t key[32], std::uint32_t counter,
                    const std::uint8_t nonce[12], std::uint8_t out[64]);

/// XORs `in` with the ChaCha20 keystream starting at block `counter`.
/// Every remaining run of two or more blocks takes one call of the widest
/// kernel (8-way AVX2 / 4-way SSE2, vertical vectorization: one register
/// lane per block), a lone last block the scalar block function. The tier
/// is picked at first use by cpuid and capped by APNA_CRYPTO_BACKEND —
/// `soft` forces the scalar block loop, `aesni` caps at SSE2. Output is
/// bit-identical to the scalar chacha20_block sequence on every tier
/// (pinned by crypto_property_test).
void chacha20_xcrypt(const std::uint8_t key[32], std::uint32_t counter,
                     const std::uint8_t nonce[12], ByteSpan in,
                     MutByteSpan out);

namespace detail {
/// Writes 4 consecutive keystream blocks (counter .. counter+3) into
/// out[0..256). SSE2 on x86 (baseline, no special compile flags); the
/// scalar loop elsewhere.
void chacha20_blocks4_sse2(const std::uint8_t key[32], std::uint32_t counter,
                           const std::uint8_t nonce[12],
                           std::uint8_t out[256]);
/// True when the CPU can run the 8-way AVX2 kernel.
bool chacha20_avx2_supported();
/// Writes 8 consecutive keystream blocks into out[0..512). Callers gate on
/// chacha20_avx2_supported(); the fallback is two 4-way sweeps.
void chacha20_blocks8_avx2(const std::uint8_t key[32], std::uint32_t counter,
                           const std::uint8_t nonce[12],
                           std::uint8_t out[512]);
}  // namespace detail

/// Poly1305 one-time authenticator over `msg` with the 32-byte one-time key.
std::array<std::uint8_t, 16> poly1305(const std::uint8_t key[32], ByteSpan msg);

/// ChaCha20-Poly1305 AEAD (RFC 8439 §2.8): 32-byte key, 12-byte nonce,
/// 16-byte tag. The chacha20_poly1305 Aead suite; the control-plane seal
/// paths also build it on the stack (core/messages.cpp). One call of the
/// widest ChaCha kernel yields a frame's head: block 0, whose first 32
/// bytes are the Poly1305 key, and the first data blocks (448 bytes on
/// AVX2, 192 on SSE2). chacha20_xcrypt continues from there.
class ChaCha20Poly1305 final : public Aead {
 public:
  static constexpr std::size_t kKeySize = 32;

  explicit ChaCha20Poly1305(ByteSpan key32);

  AeadSuite suite() const override { return AeadSuite::chacha20_poly1305; }
  void seal_into(ByteSpan nonce, ByteSpan aad, ByteSpan plaintext,
                 MutByteSpan out) const override;
  bool open_into(ByteSpan nonce, ByteSpan aad, ByteSpan ciphertext_and_tag,
                 MutByteSpan plaintext_out) const override;

 private:
  std::array<std::uint8_t, 32> key_;
};

}  // namespace apna::crypto
