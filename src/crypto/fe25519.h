// Field arithmetic mod p = 2^255 - 19, shared by X25519 and Ed25519.
//
// Representation: 5 unsigned 51-bit limbs (radix 2^51), products via
// unsigned __int128. Mirrors the curve25519-donna-c64 layout. Every
// operation returns limbs below 2^51 + 2^18, so any result may feed any
// other operation without an explicit carry.
//
// Inline (defined here, so they inline into the point formulas of
// ed25519.cpp and the ladder of x25519.cpp): add, sub, neg, mul, the
// dedicated square (15 limb products instead of mul's 25), the
// small-constant multiply and the conditional swap. Out of line: byte
// conversion, comparisons and the two exponentiations, which use the
// standard curve25519 addition chains —
//   fe_invert   x^(p-2)      = x^(2^255-21): 254 squarings + 11 multiplies
//   fe_pow2523  x^((p-5)/8)  = x^(2^252-3):  251 squarings + 11 multiplies
// both built from x^(2^250-1) via the 2^5, 2^10, 2^20, 2^40, 2^50, 2^100,
// 2^200 runs of ones.
//
// Functions are branch-light but NOT fully constant-time; this is a
// research prototype and the known-answer tests (RFC 7748 /
// RFC 8032) plus the golden digests in crypto_test anchor correctness.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace apna::crypto {

/// One field element: five limbs, each below 2^51 + 2^18 after any
/// operation (a value need not be canonical until fe_tobytes).
struct Fe {
  std::array<std::uint64_t, 5> v{};
};

namespace fe_detail {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

inline constexpr u64 kMask = (u64{1} << 51) - 1;

/// One pass of the carry chain: afterwards limbs fit in 51 bits + epsilon.
inline void carry_once(std::array<u64, 5>& h) {
  u64 c;
  c = h[0] >> 51; h[0] &= kMask; h[1] += c;
  c = h[1] >> 51; h[1] &= kMask; h[2] += c;
  c = h[2] >> 51; h[2] &= kMask; h[3] += c;
  c = h[3] >> 51; h[3] &= kMask; h[4] += c;
  c = h[4] >> 51; h[4] &= kMask; h[0] += c * 19;
}

/// Carries the five 128-bit column sums of a product into a field element.
inline Fe carry_wide(u128 t0, u128 t1, u128 t2, u128 t3, u128 t4) {
  Fe r;
  u64 c;
  r.v[0] = (u64)t0 & kMask; c = (u64)(t0 >> 51);
  t1 += c;
  r.v[1] = (u64)t1 & kMask; c = (u64)(t1 >> 51);
  t2 += c;
  r.v[2] = (u64)t2 & kMask; c = (u64)(t2 >> 51);
  t3 += c;
  r.v[3] = (u64)t3 & kMask; c = (u64)(t3 >> 51);
  t4 += c;
  r.v[4] = (u64)t4 & kMask; c = (u64)(t4 >> 51);
  r.v[0] += c * 19;
  c = r.v[0] >> 51; r.v[0] &= kMask; r.v[1] += c;
  return r;
}

}  // namespace fe_detail

inline Fe fe_zero() { return Fe{}; }

inline Fe fe_one() {
  Fe r;
  r.v[0] = 1;
  return r;
}

inline Fe fe_add(const Fe& a, const Fe& b) {
  Fe r;
  for (int i = 0; i < 5; ++i) r.v[i] = a.v[i] + b.v[i];
  fe_detail::carry_once(r.v);
  return r;
}

inline Fe fe_sub(const Fe& a, const Fe& b) {
  // Add 2p before subtracting so limbs stay non-negative.
  Fe r;
  r.v[0] = a.v[0] + 0xFFFFFFFFFFFDAULL - b.v[0];
  r.v[1] = a.v[1] + 0xFFFFFFFFFFFFEULL - b.v[1];
  r.v[2] = a.v[2] + 0xFFFFFFFFFFFFEULL - b.v[2];
  r.v[3] = a.v[3] + 0xFFFFFFFFFFFFEULL - b.v[3];
  r.v[4] = a.v[4] + 0xFFFFFFFFFFFFEULL - b.v[4];
  fe_detail::carry_once(r.v);
  return r;
}

inline Fe fe_neg(const Fe& a) { return fe_sub(fe_zero(), a); }

inline Fe fe_mul(const Fe& a, const Fe& b) {
  using fe_detail::u128;
  using fe_detail::u64;
  const u64 a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const u64 b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3], b4 = b.v[4];
  const u64 b1_19 = b1 * 19, b2_19 = b2 * 19, b3_19 = b3 * 19, b4_19 = b4 * 19;

  const u128 t0 = (u128)a0 * b0 + (u128)a1 * b4_19 + (u128)a2 * b3_19 +
                  (u128)a3 * b2_19 + (u128)a4 * b1_19;
  const u128 t1 = (u128)a0 * b1 + (u128)a1 * b0 + (u128)a2 * b4_19 +
                  (u128)a3 * b3_19 + (u128)a4 * b2_19;
  const u128 t2 = (u128)a0 * b2 + (u128)a1 * b1 + (u128)a2 * b0 +
                  (u128)a3 * b4_19 + (u128)a4 * b3_19;
  const u128 t3 = (u128)a0 * b3 + (u128)a1 * b2 + (u128)a2 * b1 +
                  (u128)a3 * b0 + (u128)a4 * b4_19;
  const u128 t4 = (u128)a0 * b4 + (u128)a1 * b3 + (u128)a2 * b2 +
                  (u128)a3 * b1 + (u128)a4 * b0;
  return fe_detail::carry_wide(t0, t1, t2, t3, t4);
}

inline Fe fe_sq(const Fe& a) {
  using fe_detail::u128;
  using fe_detail::u64;
  const u64 a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  // Each cross term a_i a_j (i != j) appears twice; terms past 2^255 fold
  // back with the factor 19.
  const u64 d0 = a0 * 2, d1 = a1 * 2, d2_38 = a2 * 38, a3_19 = a3 * 19;
  const u64 a4_19 = a4 * 19, d4_38 = a4 * 38;

  const u128 t0 = (u128)a0 * a0 + (u128)d4_38 * a1 + (u128)d2_38 * a3;
  const u128 t1 = (u128)d0 * a1 + (u128)d4_38 * a2 + (u128)a3 * a3_19;
  const u128 t2 = (u128)d0 * a2 + (u128)a1 * a1 + (u128)d4_38 * a3;
  const u128 t3 = (u128)d0 * a3 + (u128)d1 * a2 + (u128)a4 * a4_19;
  const u128 t4 = (u128)d0 * a4 + (u128)d1 * a3 + (u128)a2 * a2;
  return fe_detail::carry_wide(t0, t1, t2, t3, t4);
}

/// Multiplication by a small constant (≤ 2^20), e.g. 121666.
inline Fe fe_mul_small(const Fe& a, std::uint64_t s) {
  using fe_detail::u128;
  using fe_detail::u64;
  Fe r;
  u128 c = 0;
  for (int i = 0; i < 5; ++i) {
    const u128 t = (u128)a.v[i] * s + c;
    r.v[i] = (u64)t & fe_detail::kMask;
    c = t >> 51;
  }
  r.v[0] += (u64)c * 19;
  fe_detail::carry_once(r.v);
  return r;
}

/// Constant-time conditional swap (swap iff bit == 1). Used by the ladder.
inline void fe_cswap(Fe& a, Fe& b, std::uint64_t bit) {
  const std::uint64_t mask = ~(bit - 1);  // all-ones iff bit == 1
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t t = mask & (a.v[i] ^ b.v[i]);
    a.v[i] ^= t;
    b.v[i] ^= t;
  }
}

/// Deserializes 32 little-endian bytes; the top bit is ignored (RFC 7748).
Fe fe_frombytes(const std::uint8_t in[32]);
/// Serializes to the unique canonical representative in [0, p).
void fe_tobytes(std::uint8_t out[32], const Fe& a);

/// x^(p-2) — multiplicative inverse (0 maps to 0).
Fe fe_invert(const Fe& x);
/// x^((p-5)/8) — used in square-root extraction for point decompression.
Fe fe_pow2523(const Fe& x);

bool fe_iszero(const Fe& a);
/// Parity bit (canonical form & 1); the "sign" in point compression.
bool fe_isnegative(const Fe& a);
bool fe_equal(const Fe& a, const Fe& b);

/// sqrt(-1) mod p, computed once at startup as 2^((p-1)/4).
const Fe& fe_sqrtm1();

}  // namespace apna::crypto
