#include "crypto/sc25519.h"

#include <algorithm>
#include <utility>

#include "util/bytes.h"

namespace apna::crypto {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

// L = 0x1000...014DEF9DEA2F79CD65812631A5CF5D3ED, little-endian words.
constexpr u64 kL[4] = {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL,
                       0x0000000000000000ULL, 0x1000000000000000ULL};

// Barrett constant μ = floor(2^512 / L), little-endian words (260 bits).
constexpr u64 kMu[5] = {0xed9ce5a30a2c131bULL, 0x2106215d086329a7ULL,
                        0xffffffffffffffebULL, 0xffffffffffffffffULL,
                        0x000000000000000fULL};

/// r -= L when r >= L, selected by mask rather than by branch.
void sub_l_if_ge(u64 r[5]) {
  u64 t[5];
  u64 borrow = 0;
  for (int i = 0; i < 5; ++i) {
    const u128 d = (u128)r[i] - (i < 4 ? kL[i] : 0) - borrow;
    t[i] = (u64)d;
    borrow = (u64)(d >> 64) & 1;
  }
  const u64 keep = 0 - borrow;  // all-ones iff r < L
  for (int i = 0; i < 5; ++i) r[i] = (r[i] & keep) | (t[i] & ~keep);
}

/// out = x mod L for a 512-bit x (8 little-endian words).
void barrett_reduce(std::uint8_t out[32], const u64 x[8]) {
  // q = floor(floor(x / 2^192) · μ / 2^320) undershoots floor(x / L) by at
  // most 2 (HAC Fact 14.43).
  u64 prod[10] = {};
  for (int i = 0; i < 5; ++i) {
    u128 carry = 0;
    for (int j = 0; j < 5; ++j) {
      const u128 cur = (u128)x[3 + i] * kMu[j] + prod[i + j] + carry;
      prod[i + j] = (u64)cur;
      carry = cur >> 64;
    }
    prod[i + 5] = (u64)carry;
  }
  const u64* q = prod + 5;

  // r = (x − q · L) mod 2^320; the true remainder plus at most 2L.
  u64 ql[5] = {};
  for (int i = 0; i < 5; ++i) {
    u128 carry = 0;
    for (int j = 0; j < 4 && i + j < 5; ++j) {
      const u128 cur = (u128)q[i] * kL[j] + ql[i + j] + carry;
      ql[i + j] = (u64)cur;
      carry = cur >> 64;
    }
    if (i == 0) ql[4] += (u64)carry;
  }
  u64 r[5];
  u64 borrow = 0;
  for (int i = 0; i < 5; ++i) {
    const u128 d = (u128)x[i] - ql[i] - borrow;
    r[i] = (u64)d;
    borrow = (u64)(d >> 64) & 1;
  }
  sub_l_if_ge(r);
  sub_l_if_ge(r);
  for (int i = 0; i < 4; ++i) store_le64(out + 8 * i, r[i]);
}

// ---- Half-size split -------------------------------------------------------

/// Bit length of a 4-word value (0 for zero).
int bit_length(const u64 x[4]) {
  for (int i = 3; i >= 0; --i)
    if (x[i] != 0) return 64 * i + 64 - __builtin_clzll(x[i]);
  return 0;
}

/// The 64 bits of x from bit `shift` up (bits past 255 read as zero).
u64 bits_at(const u64 x[4], int shift) {
  const int w = shift / 64, b = shift % 64;
  u64 r = x[w] >> b;
  if (b != 0 && w < 3) r |= x[w + 1] << (64 - b);
  return r;
}

/// out = p·a − q·b mod 2^256: exact whenever the true value is in range.
void mul_sub(u64 out[4], u64 p, const u64 a[4], u64 q, const u64 b[4]) {
  u128 pa = 0, qb = 0;
  u64 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    pa += (u128)p * a[i];
    qb += (u128)q * b[i];
    const u128 d = (u128)(u64)pa - (u64)qb - borrow;
    out[i] = (u64)d;
    borrow = (u64)(d >> 64) & 1;
    pa >>= 64;
    qb >>= 64;
  }
}

/// r0 = r0 mod r1 by binary long division, t0 += quotient · t1.
void divide_step(u64 r0[4], const u64 r1[4], u128& t0, u128 t1) {
  for (int s = bit_length(r0) - bit_length(r1); s >= 0; --s) {
    const int w = s / 64, b = s % 64;
    u64 shifted[4];
    for (int i = 3; i >= 0; --i) {
      shifted[i] = i >= w ? r1[i - w] << b : 0;
      if (b != 0 && i > w) shifted[i] |= r1[i - w - 1] >> (64 - b);
    }
    int i = 3;
    while (i > 0 && r0[i] == shifted[i]) --i;
    if (r0[i] < shifted[i]) continue;  // r0 < r1 · 2^s
    mul_sub(r0, 1, r0, 1, shifted);
    t0 += t1 << s;
  }
}

}  // namespace

void sc_reduce(std::uint8_t out[32], const std::uint8_t in[64]) {
  u64 x[8];
  for (int i = 0; i < 8; ++i) x[i] = load_le64(in + 8 * i);
  barrett_reduce(out, x);
}

void sc_muladd(std::uint8_t out[32], const std::uint8_t a[32],
               const std::uint8_t b[32], const std::uint8_t c[32]) {
  u64 aw[4], bw[4];
  for (int i = 0; i < 4; ++i) {
    aw[i] = load_le64(a + 8 * i);
    bw[i] = load_le64(b + 8 * i);
  }
  u64 x[8] = {};
  for (int i = 0; i < 4; ++i) {
    u128 carry = 0;
    for (int j = 0; j < 4; ++j) {
      const u128 cur = (u128)aw[i] * bw[j] + x[i + j] + carry;
      x[i + j] = (u64)cur;
      carry = cur >> 64;
    }
    x[i + 4] = (u64)carry;
  }
  // a · b + c < 2^512, so the carry out of the top word is always zero.
  u128 carry = 0;
  for (int i = 0; i < 8; ++i) {
    const u128 cur = (u128)x[i] + (i < 4 ? load_le64(c + 8 * i) : 0) + carry;
    x[i] = (u64)cur;
    carry = cur >> 64;
  }
  barrett_reduce(out, x);
}

bool sc_is_canonical(const std::uint8_t s[32]) {
  for (int i = 3; i >= 0; --i) {
    const u64 w = load_le64(s + 8 * i);
    if (w != kL[i]) return w < kL[i];
  }
  return false;  // s == L
}

bool sc_half_split(std::uint8_t c[32], std::uint8_t d_abs[32],
                   const std::uint8_t k[32]) {
  // Consecutive remainders r0 > r1 of Euclid on (L, k), and the magnitudes
  // of their cofactors: r ≡ ±t·k (mod L). The cofactor signs alternate,
  // starting from t = +1 for r1 = k, so one parity bit tracks them.
  u64 r0[4] = {kL[0], kL[1], kL[2], kL[3]};
  u64 r1[4];
  for (int i = 0; i < 4; ++i) r1[i] = load_le64(k + 8 * i);
  u128 t0 = 0, t1 = 1;
  bool t1_positive = true;
  while (bit_length(r1) > 127) {
    // Quotient steps on x = r0 >> h and y = r1 >> h (63 bits), with
    // cofactor magnitudes: a0 = ±(u0·x − v0·y), a1 = ∓(u1·x − v1·y). A
    // step is taken only if Jebelean's condition (a2 ≥ v2 and
    // a1 − a2 ≥ v1 + v2) makes its quotient that of r0 / r1 as well, and
    // a2 ≥ v2 + 2^(127−h) keeps the full remainder it makes at or above
    // 2^127 (the full remainder exceeds 2^h·(a2 − v2)).
    const int h = bit_length(r0) - 63;
    const u64 margin = h >= 127 ? 1 : u64{1} << (127 - h);
    u64 a0 = bits_at(r0, h), a1 = bits_at(r1, h);
    u64 u0 = 1, v0 = 0, u1 = 0, v1 = 1;
    int steps = 0;
    while (a1 != 0) {
      const u64 q = a0 / a1;
      const u64 a2 = a0 - q * a1;
      const u64 u2 = u0 + q * u1, v2 = v0 + q * v1;
      if (a2 < v2 + margin || a1 - a2 < v1 + v2) break;
      a0 = a1, a1 = a2, u0 = u1, u1 = u2, v0 = v1, v1 = v2;
      ++steps;
    }
    if (steps == 0) {  // no provable step: one exact one instead
      divide_step(r0, r1, t0, t1);
      std::swap(r0, r1);
      std::swap(t0, t1);
      t1_positive = !t1_positive;
      continue;
    }
    u64 n0[4], n1[4];
    if (steps % 2 == 0) {
      mul_sub(n0, u0, r0, v0, r1);
      mul_sub(n1, v1, r1, u1, r0);
    } else {
      mul_sub(n0, v0, r1, u0, r0);
      mul_sub(n1, u1, r0, v1, r1);
    }
    // Cofactor terms share a sign, so magnitudes add; each stays below
    // L / 2^127 because every remainder so far is at least 2^127.
    const u128 m0 = u0 * t0 + v0 * t1, m1 = u1 * t0 + v1 * t1;
    std::copy(n0, n0 + 4, r0);
    std::copy(n1, n1 + 4, r1);
    t0 = m0;
    t1 = m1;
    if (steps % 2 != 0) t1_positive = !t1_positive;
  }
  for (int i = 0; i < 4; ++i) store_le64(d_abs + 8 * i, r1[i]);
  store_le64(c, (u64)t1);
  store_le64(c + 8, (u64)(t1 >> 64));
  std::fill(c + 16, c + 32, 0);
  return !t1_positive;  // d = −r1 when the cofactor was negated into c
}

}  // namespace apna::crypto
