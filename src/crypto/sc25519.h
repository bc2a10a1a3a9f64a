// Scalar arithmetic mod L, the prime order of the Ed25519 base point:
//   L = 2^252 + 27742317777372353535851937790883648493.
//
// Internal to the crypto layer, like fe25519.h: ed25519.cpp is the only
// production caller; crypto_test checks it against a long-division oracle.
//
// Scalars are 32 little-endian bytes. Reduction is Barrett's (HAC 14.42)
// on 64-bit limbs with the precomputed μ = floor(2^512 / L): one 5×5-limb
// and one 5×4-limb product, then two masked conditional subtractions of L
// — no branch on the value being reduced.
#pragma once

#include <cstdint>

namespace apna::crypto {

/// out = in mod L for a 64-byte little-endian value (a SHA-512 digest).
void sc_reduce(std::uint8_t out[32], const std::uint8_t in[64]);

/// out = (a · b + c) mod L for any 32-byte a, b, c (not necessarily < L).
void sc_muladd(std::uint8_t out[32], const std::uint8_t a[32],
               const std::uint8_t b[32], const std::uint8_t c[32]);

/// True iff s < L — the canonical-S rule of RFC 8032 verification.
bool sc_is_canonical(const std::uint8_t s[32]);

}  // namespace apna::crypto
