// Ed25519 over twisted Edwards curve -x^2 + y^2 = 1 + d x^2 y^2.
//
// Point arithmetic uses extended coordinates (X:Y:Z:T with T = XY/Z);
// formulas add-2008-hwcd-3 / dbl-2008-hwcd specialized to a = -1. Each
// formula stops before its last four products (GeCompleted), so a caller
// that does not need T — a doubling followed by another doubling — skips
// one multiplication. Addends are stored pre-processed: variable-base
// window tables (1..8 times the point, picked with a sign by signed
// radix-16 digits) in cached form (Y+X, Y-X, 2Z, 2d·T; 8 multiplications
// per addition) and the fixed-base table in affine Niels form (y+x, y-x,
// 2d·xy; 7). Curve constants (d, 2d, base point) are derived at startup
// from first principles (d = -121665/121666, By = 4/5) instead of being
// transcribed, and validated by the RFC 8032 known-answer tests.
#include "crypto/ed25519.h"

#include <cstring>
#include <string_view>
#include <vector>

#include "crypto/chacha20.h"
#include "crypto/fe25519.h"
#include "crypto/sc25519.h"
#include "crypto/sha2.h"

namespace apna::crypto {

namespace {

// ---- Curve constants (computed once) ---------------------------------------

struct CurveConstants {
  Fe d;    // -121665 / 121666
  Fe d2;   // 2d
};

const CurveConstants& constants() {
  static const CurveConstants c = [] {
    CurveConstants out;
    Fe num = fe_neg(fe_mul_small(fe_one(), 121665));
    Fe den = fe_mul_small(fe_one(), 121666);
    out.d = fe_mul(num, fe_invert(den));
    out.d2 = fe_add(out.d, out.d);
    return out;
  }();
  return c;
}

// ---- Group elements ---------------------------------------------------------

/// Extended coordinates: x = X/Z, y = Y/Z, T = XY/Z.
struct Ge {
  Fe x, y, z, t;
};

/// Projective coordinates (X:Y:Z) — all a doubling reads.
struct GeP2 {
  Fe x, y, z;
};

/// A formula's result before its final products: the point is
/// (E·F : G·H : F·G : E·H) in extended coordinates.
struct GeCompleted {
  Fe e, f, g, h;
};

/// Variable-base table entry: Y+X, Y-X, 2Z, 2d·T.
struct GeCached {
  Fe y_plus_x, y_minus_x, z2, t2d;
};

/// Fixed-base table entry, affine (Z = 1): y+x, y-x, 2d·xy.
struct GeNiels {
  Fe y_plus_x, y_minus_x, xy2d;
};

Ge ge_identity() { return Ge{fe_zero(), fe_one(), fe_one(), fe_zero()}; }

Ge to_ext(const GeCompleted& c) {
  return Ge{fe_mul(c.e, c.f), fe_mul(c.g, c.h), fe_mul(c.f, c.g),
            fe_mul(c.e, c.h)};
}

GeP2 to_p2(const GeCompleted& c) {
  return GeP2{fe_mul(c.e, c.f), fe_mul(c.g, c.h), fe_mul(c.f, c.g)};
}

GeP2 to_p2(const Ge& p) { return GeP2{p.x, p.y, p.z}; }

GeCached to_cached(const Ge& p) {
  return GeCached{fe_add(p.y, p.x), fe_sub(p.y, p.x), fe_add(p.z, p.z),
                  fe_mul(p.t, constants().d2)};
}

/// p + q: A = (Y1-X1)(Y2-X2), B = (Y1+X1)(Y2+X2), C = T1·2d·T2,
/// D = Z1·2Z2; E = B-A, F = D-C, G = D+C, H = B+A.
GeCompleted ge_add(const Ge& p, const GeCached& q) {
  const Fe a = fe_mul(fe_sub(p.y, p.x), q.y_minus_x);
  const Fe b = fe_mul(fe_add(p.y, p.x), q.y_plus_x);
  const Fe c = fe_mul(p.t, q.t2d);
  const Fe d = fe_mul(p.z, q.z2);
  return GeCompleted{fe_sub(b, a), fe_sub(d, c), fe_add(d, c), fe_add(b, a)};
}

/// p + q for an affine q: as ge_add with Z2 = 1, so D = 2·Z1.
GeCompleted ge_madd(const Ge& p, const GeNiels& q) {
  const Fe a = fe_mul(fe_sub(p.y, p.x), q.y_minus_x);
  const Fe b = fe_mul(fe_add(p.y, p.x), q.y_plus_x);
  const Fe c = fe_mul(p.t, q.xy2d);
  const Fe d = fe_add(p.z, p.z);
  return GeCompleted{fe_sub(b, a), fe_sub(d, c), fe_add(d, c), fe_add(b, a)};
}

/// 2p: A = X², B = Y², C = 2Z², E = (X+Y)² - A - B, G = B - A, F = G - C,
/// H = -A - B (a = -1: D = -A, G = D + B, H = D - B).
GeCompleted ge_dbl(const GeP2& p) {
  const Fe a = fe_sq(p.x);
  const Fe b = fe_sq(p.y);
  const Fe zz = fe_sq(p.z);
  const Fe c = fe_add(zz, zz);
  const Fe e = fe_sub(fe_sub(fe_sq(fe_add(p.x, p.y)), a), b);
  const Fe g = fe_sub(b, a);
  const Fe f = fe_sub(g, c);
  const Fe h = fe_neg(fe_add(a, b));
  return GeCompleted{e, f, g, h};
}

/// 16p: three doublings without T, then one that restores it for the
/// addition that follows.
Ge ge_dbl4(const Ge& p) {
  GeP2 r = to_p2(p);
  for (int i = 0; i < 3; ++i) r = to_p2(ge_dbl(r));
  return to_ext(ge_dbl(r));
}

Ge ge_neg(const Ge& p) { return Ge{fe_neg(p.x), p.y, p.z, fe_neg(p.t)}; }

bool ge_is_identity(const GeP2& p) {
  return fe_iszero(p.x) && fe_equal(p.y, p.z);
}

/// True iff [8]p is the identity: p lies in the small-order (torsion)
/// subgroup, which the cofactor 8 annihilates.
bool ge_has_small_order(const Ge& p) {
  GeP2 q = to_p2(p);
  for (int i = 0; i < 3; ++i) q = to_p2(ge_dbl(q));
  return ge_is_identity(q);
}

void ge_tobytes(std::uint8_t out[32], const Ge& p) {
  const Fe zinv = fe_invert(p.z);
  const Fe x = fe_mul(p.x, zinv);
  const Fe y = fe_mul(p.y, zinv);
  fe_tobytes(out, y);
  if (fe_isnegative(x)) out[31] ^= 0x80;
}

/// Decompresses a point per RFC 8032 §5.1.3; returns false for y >= p,
/// off-curve encodings and -0. A point that decodes re-encodes to `in`.
bool ge_frombytes(Ge& out, const std::uint8_t in[32]) {
  const bool sign = (in[31] & 0x80) != 0;
  const Fe y = fe_frombytes(in);
  std::uint8_t y_canonical[32];
  fe_tobytes(y_canonical, y);
  y_canonical[31] |= in[31] & 0x80;
  if (std::memcmp(y_canonical, in, 32) != 0) return false;  // y >= p

  const Fe y2 = fe_sq(y);
  const Fe u = fe_sub(y2, fe_one());                       // y^2 - 1
  const Fe v = fe_add(fe_mul(y2, constants().d), fe_one());  // d y^2 + 1

  // x = u v^3 (u v^7)^((p-5)/8)
  const Fe v3 = fe_mul(fe_sq(v), v);
  const Fe v7 = fe_mul(fe_sq(v3), v);
  Fe x = fe_mul(fe_mul(u, v3), fe_pow2523(fe_mul(u, v7)));

  const Fe vx2 = fe_mul(v, fe_sq(x));
  if (!fe_equal(vx2, u)) {
    if (!fe_equal(vx2, fe_neg(u))) return false;
    x = fe_mul(x, fe_sqrtm1());
  }
  if (fe_iszero(x) && sign) return false;  // -0 is not a valid encoding
  if (fe_isnegative(x) != sign) x = fe_neg(x);

  out.x = x;
  out.y = y;
  out.z = fe_one();
  out.t = fe_mul(x, y);
  return true;
}

/// Decodes a public key: ge_frombytes, and additionally rejects the eight
/// points of small order ([8]A = identity). Under such a key the cofactored
/// equation drops k·A, so (R, S) = (encode(B), 1) verifies for every
/// message and the signature proves possession of nothing.
bool decode_public_key(Ge& out, const std::uint8_t in[32]) {
  return ge_frombytes(out, in) && !ge_has_small_order(out);
}

std::uint8_t nibble_at(const std::uint8_t s[32], int pos) {
  const std::uint8_t byte = s[pos / 2];
  return (pos % 2 == 1) ? static_cast<std::uint8_t>(byte >> 4)
                        : static_cast<std::uint8_t>(byte & 0xf);
}

/// Signed radix-16 digits: s = Σ digits[i]·16^i over `n` nibble positions,
/// every digit in [-8, 8) but the top one, which is in [0, 8] when the
/// top nibble of s is at most 7 (any s < 2^(4n-1)).
void signed_digits(std::int8_t* digits, const std::uint8_t s[32], int n) {
  int carry = 0;
  for (int i = 0; i < n; ++i) {
    const int v = nibble_at(s, i) + carry;
    carry = i + 1 < n ? (v + 8) >> 4 : 0;
    digits[i] = static_cast<std::int8_t>(v - 16 * carry);
  }
}

/// −q for a cached point: Y+X and Y−X swap, 2d·T changes sign.
GeCached cached_neg(const GeCached& q) {
  return GeCached{q.y_minus_x, q.y_plus_x, q.z2, fe_neg(q.t2d)};
}

GeNiels niels_neg(const GeNiels& q) {
  return GeNiels{q.y_minus_x, q.y_plus_x, fe_neg(q.xy2d)};
}

/// multiple[j-1] = j·p for j in [1, 8]: what a signed radix-16 digit
/// selects (its sign picks ±). Four doublings and three additions.
struct WindowTable {
  GeCached multiple[8];
};

void build_window_table(WindowTable& table, const Ge& p) {
  Ge m[8];
  m[0] = p;
  table.multiple[0] = to_cached(p);
  for (int j = 2; j <= 8; ++j) {
    m[j - 1] = j % 2 == 0 ? to_ext(ge_dbl(to_p2(m[j / 2 - 1])))
                          : to_ext(ge_add(m[j - 2], table.multiple[0]));
    table.multiple[j - 1] = to_cached(m[j - 1]);
  }
}

// ---- Base point and fixed-base table ---------------------------------------

const Ge& base_point() {
  static const Ge b = [] {
    // B.y = 4/5, x even (sign bit 0): the standard encoding is LE(4/5).
    const Fe four = fe_mul_small(fe_one(), 4);
    const Fe five = fe_mul_small(fe_one(), 5);
    const Fe y = fe_mul(four, fe_invert(five));
    std::uint8_t enc[32];
    fe_tobytes(enc, y);  // sign bit 0
    Ge b_pt;
    const bool ok = ge_frombytes(b_pt, enc);
    (void)ok;
    return b_pt;
  }();
  return b;
}

// Fixed-base table: entry[i][j-1] = j * 16^i * B, i in [0,64), j in [1,15],
// in affine Niels form. Makes signing a sequence of ≤64 mixed additions
// (experiment E1 depends on fast certificate issuance).
struct BaseTable {
  GeNiels entry[64][15];
};

/// Converts 15 extended points to affine Niels form with one shared
/// inversion (Montgomery's trick): prefix[j] = z_0 ⋯ z_j, and walking back
/// from (z_0 ⋯ z_14)^-1 peels one factor per point.
void to_niels(GeNiels out[15], const Ge in[15]) {
  Fe prefix[15];
  Fe acc = fe_one();
  for (int j = 0; j < 15; ++j) prefix[j] = acc = fe_mul(acc, in[j].z);
  Fe inv = fe_invert(acc);
  for (int j = 14; j >= 0; --j) {
    const Fe zinv = j ? fe_mul(inv, prefix[j - 1]) : inv;
    inv = fe_mul(inv, in[j].z);
    const Fe x = fe_mul(in[j].x, zinv);
    const Fe y = fe_mul(in[j].y, zinv);
    out[j] = GeNiels{fe_add(y, x), fe_sub(y, x),
                     fe_mul(fe_mul(x, y), constants().d2)};
  }
}

const BaseTable& base_table() {
  static const BaseTable t = [] {
    BaseTable bt;
    Ge power = base_point();  // 16^i * B
    for (int i = 0; i < 64; ++i) {
      const GeCached step = to_cached(power);
      Ge row[15];
      row[0] = power;
      for (int j = 1; j < 15; ++j) row[j] = to_ext(ge_add(row[j - 1], step));
      to_niels(bt.entry[i], row);
      power = ge_dbl4(power);
    }
    return bt;
  }();
  return t;
}

Ge ge_scalarmult_base(const std::uint8_t scalar_le[32]) {
  const BaseTable& bt = base_table();
  Ge r = ge_identity();
  for (int i = 0; i < 64; ++i) {
    const std::uint8_t nib = nibble_at(scalar_le, i);
    if (nib == 0) continue;
    r = to_ext(ge_madd(r, bt.entry[i][nib - 1]));
  }
  return r;
}

/// Σ_j scalar_j·P_j + base·B by a Straus walk over `positions` signed
/// radix-16 digits: the 4 doublings per position are shared by every
/// point. digits[j·positions + i] is digit i of scalar j, and tables[j]
/// holds P_j's multiples; base_digits, when given, adds its multiples of B
/// from the first row of the fixed-base table.
Ge straus_walk(const WindowTable* tables, const std::int8_t* digits,
               std::size_t points, int positions,
               const std::int8_t* base_digits) {
  const GeNiels* base_multiples = base_table().entry[0];  // j·B
  Ge acc = ge_identity();
  for (int i = positions - 1; i >= 0; --i) {
    if (i != positions - 1) acc = ge_dbl4(acc);
    for (std::size_t j = 0; j < points; ++j) {
      const int digit = digits[j * positions + i];
      if (digit > 0)
        acc = to_ext(ge_add(acc, tables[j].multiple[digit - 1]));
      else if (digit < 0)
        acc = to_ext(ge_add(acc, cached_neg(tables[j].multiple[-digit - 1])));
    }
    const int digit = base_digits ? base_digits[i] : 0;
    if (digit > 0)
      acc = to_ext(ge_madd(acc, base_multiples[digit - 1]));
    else if (digit < 0)
      acc = to_ext(ge_madd(acc, niels_neg(base_multiples[-digit - 1])));
  }
  return acc;
}

// Scalars below 2^127 (sc_half_split's c and |d|) in signed radix-16.
constexpr int kHalfDigits = 32;
// Scalars below L < 2^253.
constexpr int kFullDigits = 64;

// ---- Signing and verification helpers --------------------------------------

void clamp(std::uint8_t s[32]) {
  s[0] &= 248;
  s[31] &= 127;
  s[31] |= 64;
}

/// k = SHA512(R ‖ A ‖ msg) mod L.
void challenge(std::uint8_t k[32], const std::uint8_t r[32],
               const Ed25519PublicKey& pub, ByteSpan msg) {
  Sha512 hk;
  hk.update(ByteSpan(r, 32));
  hk.update(ByteSpan(pub.data(), pub.size()));
  hk.update(msg);
  sc_reduce(k, hk.finish().data());
}

}  // namespace

Ed25519PublicKey ed25519_public_key(const Ed25519Seed& seed) {
  auto h = Sha512::hash(ByteSpan(seed.data(), seed.size()));
  std::uint8_t s[32];
  std::memcpy(s, h.data(), 32);
  clamp(s);
  const Ge a = ge_scalarmult_base(s);
  Ed25519PublicKey pub;
  ge_tobytes(pub.data(), a);
  return pub;
}

Ed25519Signature ed25519_sign(const Ed25519Seed& seed,
                              const Ed25519PublicKey& pub, ByteSpan msg) {
  auto h = Sha512::hash(ByteSpan(seed.data(), seed.size()));
  std::uint8_t s[32];
  std::memcpy(s, h.data(), 32);
  clamp(s);

  // r = SHA512(prefix ‖ msg) mod L
  Sha512 hr;
  hr.update(ByteSpan(h.data() + 32, 32));
  hr.update(msg);
  std::uint8_t r[32];
  sc_reduce(r, hr.finish().data());

  const Ge r_point = ge_scalarmult_base(r);
  Ed25519Signature sig{};
  ge_tobytes(sig.data(), r_point);

  std::uint8_t k[32];
  challenge(k, sig.data(), pub, msg);

  // S = (r + k*s) mod L
  sc_muladd(sig.data() + 32, k, s, r);
  return sig;
}

bool ed25519_verify(const Ed25519PublicKey& pub, ByteSpan msg,
                    const Ed25519Signature& sig) {
  if (!sc_is_canonical(sig.data() + 32)) return false;

  Ge a;
  if (!decode_public_key(a, pub.data())) return false;
  Ge r;
  if (!ge_frombytes(r, sig.data())) return false;

  std::uint8_t k[32];
  challenge(k, sig.data(), pub, msg);

  // [8]((c·S)·B − d·A − c·R) == identity for d ≡ c·k (mod L) with c and
  // |d| below 2^127: the cofactored RFC 8032 §5.1.7 check in half-size
  // scalars (ed25519.h has the equivalence).
  std::uint8_t c[32], d[32];
  const bool d_negative = sc_half_split(c, d, k);
  WindowTable tables[2];
  build_window_table(tables[0], d_negative ? a : ge_neg(a));
  build_window_table(tables[1], ge_neg(r));
  std::int8_t digits[2 * kHalfDigits];
  signed_digits(digits, d, kHalfDigits);
  signed_digits(digits + kHalfDigits, c, kHalfDigits);
  const Ge walk = straus_walk(tables, digits, 2, kHalfDigits, nullptr);

  std::uint8_t cs[32];
  const std::uint8_t zero[32] = {};
  sc_muladd(cs, c, sig.data() + 32, zero);
  const Ge cs_b = ge_scalarmult_base(cs);
  return ge_has_small_order(to_ext(ge_add(walk, to_cached(cs_b))));
}

// ---- Batch verification -----------------------------------------------------

namespace {

/// One screened, batch-ready signature: decoded points and derived scalars.
struct BatchEntry {
  std::size_t index;            // position in the caller's item array
  Ge neg_a;                     // −A_i
  Ge neg_r;                     // −R_i
  std::uint8_t s[32];           // S_i
  std::uint8_t k[32];           // SHA512(R ‖ A ‖ msg) mod L
};

/// Evaluates the random-linear-combination equation over entries[lo, hi):
/// [8]((Σ z_i S_i)·B + Σ (z_i k_i)·(−A_i) + Σ z_i·(−R_i)) == identity.
/// The z_i come from the sub-range itself: a SHA-512 transcript of lo, hi
/// and every entry's k_i and S_i (k_i = SHA512(R_i ‖ A_i ‖ M_i) binds R_i,
/// A_i and the message) keys a ChaCha20 stream, 16 bytes per entry. A
/// signer must fix its signatures before it can learn the z_i that decide
/// whether two invalid ones cancel. One Straus walk over 64 digit
/// positions evaluates the whole sum: every point gets a window table and
/// B reuses the first row of the fixed-base table, so the doublings are
/// paid once for the batch.
bool rlc_check(const std::vector<BatchEntry>& entries, std::size_t lo,
               std::size_t hi) {
  const std::size_t n = hi - lo;
  const std::size_t m = 2 * n;  // −A_i, −R_i pairs

  constexpr std::string_view kLabel = "apna ed25519 batch z";
  std::uint8_t range[16];
  store_le64(range, lo);
  store_le64(range + 8, hi);
  Sha512 transcript;
  transcript.update(ByteSpan(
      reinterpret_cast<const std::uint8_t*>(kLabel.data()), kLabel.size()));
  transcript.update(ByteSpan(range, 16));
  for (std::size_t j = lo; j < hi; ++j) {
    transcript.update(ByteSpan(entries[j].k, 32));
    transcript.update(ByteSpan(entries[j].s, 32));
  }
  const auto seed = transcript.finish();  // ChaCha20 key ‖ nonce
  std::uint8_t stream[64];

  std::vector<WindowTable> tables(m);
  std::vector<std::int8_t> digits(m * kFullDigits);

  std::uint8_t sb_coeff[32] = {};  // Σ z_i S_i mod L
  const std::uint8_t zero32[32] = {};

  for (std::size_t j = 0; j < n; ++j) {
    const BatchEntry& e = entries[lo + j];
    // z_i: 128-bit, forced odd so it is nonzero mod L.
    if (j % 4 == 0)
      chacha20_block(seed.data(), static_cast<std::uint32_t>(j / 4),
                     seed.data() + 32, stream);
    std::uint8_t z[32] = {};
    std::memcpy(z, stream + 16 * (j % 4), 16);
    z[0] |= 1;

    sc_muladd(sb_coeff, z, e.s, sb_coeff);  // += z_i S_i
    std::uint8_t zk[32];
    sc_muladd(zk, z, e.k, zero32);  // z_i k_i
    signed_digits(&digits[2 * j * kFullDigits], zk, kFullDigits);
    signed_digits(&digits[(2 * j + 1) * kFullDigits], z, kFullDigits);

    build_window_table(tables[2 * j], e.neg_a);
    build_window_table(tables[2 * j + 1], e.neg_r);
  }
  std::int8_t base_digits[kFullDigits];
  signed_digits(base_digits, sb_coeff, kFullDigits);
  return ge_has_small_order(
      straus_walk(tables.data(), digits.data(), m, kFullDigits, base_digits));
}

/// Up to this many signatures verify one by one: one combined walk over
/// two costs at least as much as two scalar verifies (bench_e9's width-2
/// row), and a failed walk would pay for both again.
constexpr std::size_t kMaxScalarRun = 2;

/// Verifies entries[lo, hi): RLC first, bisecting on failure down to scalar
/// ed25519_verify leaves so the result is bit-identical to the scalar path.
void batch_bisect(const std::vector<BatchEntry>& entries, std::size_t lo,
                  std::size_t hi, std::span<const Ed25519BatchItem> items,
                  bool* out) {
  if (hi - lo <= kMaxScalarRun) {
    for (std::size_t j = lo; j < hi; ++j) {
      const Ed25519BatchItem& it = items[entries[j].index];
      out[entries[j].index] = ed25519_verify(*it.pub, it.msg, *it.sig);
    }
    return;
  }
  if (rlc_check(entries, lo, hi)) {
    for (std::size_t j = lo; j < hi; ++j) out[entries[j].index] = true;
    return;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  batch_bisect(entries, lo, mid, items, out);
  batch_bisect(entries, mid, hi, items, out);
}

}  // namespace

bool ed25519_verify_batch(std::span<const Ed25519BatchItem> items,
                          bool* out) {
  // Too few signatures for the combined equation: skip the screening too.
  if (items.size() <= kMaxScalarRun) {
    bool all = true;
    for (std::size_t i = 0; i < items.size(); ++i) {
      out[i] = ed25519_verify(*items[i].pub, items[i].msg, *items[i].sig);
      all = all && out[i];
    }
    return all;
  }

  std::vector<BatchEntry> entries;
  entries.reserve(items.size());

  for (std::size_t i = 0; i < items.size(); ++i) {
    const Ed25519BatchItem& it = items[i];
    out[i] = false;
    // Screens mirror the scalar rejects exactly: non-canonical S, public
    // keys decode_public_key refuses and R that ge_frombytes refuses.
    if (!sc_is_canonical(it.sig->data() + 32)) continue;
    Ge a;
    if (!decode_public_key(a, it.pub->data())) continue;
    Ge r;
    if (!ge_frombytes(r, it.sig->data())) continue;

    BatchEntry e;
    e.index = i;
    e.neg_a = ge_neg(a);
    e.neg_r = ge_neg(r);
    std::memcpy(e.s, it.sig->data() + 32, 32);
    challenge(e.k, it.sig->data(), *it.pub, it.msg);
    entries.push_back(e);
  }

  batch_bisect(entries, 0, entries.size(), items, out);

  bool all = true;
  for (std::size_t i = 0; i < items.size(); ++i) all = all && out[i];
  return all;
}

Ed25519KeyPair Ed25519KeyPair::generate(Rng& rng) {
  Ed25519KeyPair kp;
  rng.fill(MutByteSpan(kp.seed.data(), kp.seed.size()));
  kp.pub = ed25519_public_key(kp.seed);
  return kp;
}

}  // namespace apna::crypto
