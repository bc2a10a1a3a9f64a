#include "crypto/fe25519.h"

namespace apna::crypto {

namespace {
using fe_detail::kMask;
using fe_detail::u64;

/// x^(2^n) by n successive squarings.
Fe fe_sq_n(Fe x, int n) {
  for (int i = 0; i < n; ++i) x = fe_sq(x);
  return x;
}

/// The shared prefix of both addition chains: x^(2^250 - 1), plus x^11
/// for the inversion tail.
struct ChainPrefix {
  Fe x11;
  Fe x2_250_1;
};

ChainPrefix chain_prefix(const Fe& x) {
  const Fe x2 = fe_sq(x);
  const Fe x9 = fe_mul(fe_sq_n(x2, 2), x);           // x^8 · x
  const Fe x11 = fe_mul(x9, x2);
  const Fe x2_5_1 = fe_mul(fe_sq(x11), x9);          // x^31 = x^(2^5-1)
  const Fe x2_10_1 = fe_mul(fe_sq_n(x2_5_1, 5), x2_5_1);
  const Fe x2_20_1 = fe_mul(fe_sq_n(x2_10_1, 10), x2_10_1);
  const Fe x2_40_1 = fe_mul(fe_sq_n(x2_20_1, 20), x2_20_1);
  const Fe x2_50_1 = fe_mul(fe_sq_n(x2_40_1, 10), x2_10_1);
  const Fe x2_100_1 = fe_mul(fe_sq_n(x2_50_1, 50), x2_50_1);
  const Fe x2_200_1 = fe_mul(fe_sq_n(x2_100_1, 100), x2_100_1);
  const Fe x2_250_1 = fe_mul(fe_sq_n(x2_200_1, 50), x2_50_1);
  return ChainPrefix{x11, x2_250_1};
}

}  // namespace

Fe fe_frombytes(const std::uint8_t in[32]) {
  Fe r;
  r.v[0] = load_le64(in) & kMask;
  r.v[1] = (load_le64(in + 6) >> 3) & kMask;
  r.v[2] = (load_le64(in + 12) >> 6) & kMask;
  r.v[3] = (load_le64(in + 19) >> 1) & kMask;
  r.v[4] = (load_le64(in + 24) >> 12) & kMask;
  return r;
}

void fe_tobytes(std::uint8_t out[32], const Fe& a) {
  std::array<u64, 5> h = a.v;
  fe_detail::carry_once(h);
  fe_detail::carry_once(h);

  // q = floor((h + 19) / 2^255) ∈ {0, 1}
  u64 q = (h[0] + 19) >> 51;
  q = (h[1] + q) >> 51;
  q = (h[2] + q) >> 51;
  q = (h[3] + q) >> 51;
  q = (h[4] + q) >> 51;

  h[0] += 19 * q;
  h[1] += h[0] >> 51; h[0] &= kMask;
  h[2] += h[1] >> 51; h[1] &= kMask;
  h[3] += h[2] >> 51; h[2] &= kMask;
  h[4] += h[3] >> 51; h[3] &= kMask;
  h[4] &= kMask;  // drop the 2^255 bit

  store_le64(out, h[0] | (h[1] << 51));
  store_le64(out + 8, (h[1] >> 13) | (h[2] << 38));
  store_le64(out + 16, (h[2] >> 26) | (h[3] << 25));
  store_le64(out + 24, (h[3] >> 39) | (h[4] << 12));
}

Fe fe_invert(const Fe& x) {
  // x^(2^255 - 21) = (x^(2^250 - 1))^(2^5) · x^11
  const ChainPrefix c = chain_prefix(x);
  return fe_mul(fe_sq_n(c.x2_250_1, 5), c.x11);
}

Fe fe_pow2523(const Fe& x) {
  // x^(2^252 - 3) = (x^(2^250 - 1))^(2^2) · x
  return fe_mul(fe_sq_n(chain_prefix(x).x2_250_1, 2), x);
}

bool fe_iszero(const Fe& a) {
  std::uint8_t b[32];
  fe_tobytes(b, a);
  std::uint8_t acc = 0;
  for (int i = 0; i < 32; ++i) acc |= b[i];
  return acc == 0;
}

bool fe_isnegative(const Fe& a) {
  std::uint8_t b[32];
  fe_tobytes(b, a);
  return (b[0] & 1) != 0;
}

bool fe_equal(const Fe& a, const Fe& b) {
  std::uint8_t ba[32], bb[32];
  fe_tobytes(ba, a);
  fe_tobytes(bb, b);
  return ct_equal(ByteSpan(ba, 32), ByteSpan(bb, 32));
}

const Fe& fe_sqrtm1() {
  static const Fe value = [] {
    // 2^((p-1)/4) = 2^(2^253 - 5) = (2^(2^252 - 3))^2 · 2
    const Fe two = fe_add(fe_one(), fe_one());
    return fe_mul(fe_sq(fe_pow2523(two)), two);
  }();
  return value;
}

}  // namespace apna::crypto
