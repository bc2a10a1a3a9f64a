// Scalar arithmetic mod L, the prime order of the Ed25519 base point:
//   L = 2^252 + 27742317777372353535851937790883648493.
//
// Internal to the crypto layer, like fe25519.h: ed25519.cpp is the only
// production caller; crypto_test checks it against a long-division oracle
// and checks sc_half_split's congruence and bounds.
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

/// Splits a scalar k < L into half-size factors for verification (Pornin,
/// IACR ePrint 2020/454): writes c and |d| with d ≡ c·k (mod L),
/// 0 < c < 2^127 and |d| < 2^127 (32 bytes each, the top 16 zero), and
/// returns true iff d is negative.
///
/// How: the extended Euclidean algorithm on (L, k) stops at its first
/// remainder below 2^127, which is d; its cofactor is c, both negated when
/// the cofactor is negative. The cofactor stays below L / 2^127 < 2^126.
/// Lehmer's method runs the quotient steps on the top 63 bits in 64-bit
/// words and applies them to the full values in one pass; a step is taken
/// only when Jebelean's condition proves its quotient exact and the
/// remainder it makes provably stays at or above 2^127, so the first
/// remainder below 2^127 always comes from an exact long-division step.
/// Variable time: k is public in verification.
bool sc_half_split(std::uint8_t c[32], std::uint8_t d_abs[32],
                   const std::uint8_t k[32]);

}  // namespace apna::crypto
