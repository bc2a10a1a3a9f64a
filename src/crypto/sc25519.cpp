#include "crypto/sc25519.h"

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

}  // namespace apna::crypto
