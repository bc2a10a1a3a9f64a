// Ed25519 over twisted Edwards curve -x^2 + y^2 = 1 + d x^2 y^2.
//
// Point arithmetic uses extended coordinates (X:Y:Z:T with T = XY/Z);
// formulas add-2008-hwcd-3 / dbl-2008-hwcd specialized to a = -1. Each
// formula stops before its last four products (GeCompleted), so a caller
// that does not need T — a doubling followed by another doubling — skips
// one multiplication. Addends are stored pre-processed: variable-base
// tables in cached form (Y+X, Y-X, 2Z, 2d·T; 8 multiplications per
// addition) and the fixed-base table in affine Niels form (y+x, y-x,
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

/// table[j-1] = j·p for j in [1, 15].
void build_cached_table(GeCached table[15], const Ge& p) {
  table[0] = to_cached(p);
  Ge multiple = p;
  for (int i = 1; i < 15; ++i) {
    multiple = to_ext(ge_add(multiple, table[0]));
    table[i] = to_cached(multiple);
  }
}

/// Variable-base scalar multiplication, 4-bit fixed window.
Ge ge_scalarmult(const Ge& p, const std::uint8_t scalar_le[32]) {
  GeCached table[15];
  build_cached_table(table, p);
  Ge r = ge_identity();
  for (int i = 63; i >= 0; --i) {
    r = ge_dbl4(r);
    if (const std::uint8_t nib = nibble_at(scalar_le, i); nib != 0)
      r = to_ext(ge_add(r, table[nib - 1]));
  }
  return r;
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

  // Check [8](S·B − k·A − R) == identity (RFC 8032 §5.1.7, cofactored).
  const Ge sb = ge_scalarmult_base(sig.data() + 32);
  const Ge ka = ge_scalarmult(ge_neg(a), k);
  const Ge sb_ka = to_ext(ge_add(sb, to_cached(ka)));
  return ge_has_small_order(to_ext(ge_add(sb_ka, to_cached(ge_neg(r)))));
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
/// whether two invalid ones cancel. A shared-doubling Straus multi-scalar
/// walk: every point gets a 1..15 multiples table (B reuses the first row
/// of the fixed-base table), then one pass over the 64 nibble positions
/// does 4 doublings per position for the WHOLE sum.
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

  std::vector<std::array<GeCached, 15>> tables(m);
  std::vector<std::array<std::uint8_t, 32>> scalars(m);

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

    sc_muladd(sb_coeff, z, e.s, sb_coeff);              // += z_i S_i
    sc_muladd(scalars[2 * j].data(), z, e.k, zero32);   // z_i k_i
    std::memcpy(scalars[2 * j + 1].data(), z, 32);      // z_i

    build_cached_table(tables[2 * j].data(), e.neg_a);
    build_cached_table(tables[2 * j + 1].data(), e.neg_r);
  }
  const GeNiels* base_multiples = base_table().entry[0];  // j·B

  Ge acc = ge_identity();
  for (int pos = 63; pos >= 0; --pos) {
    acc = ge_dbl4(acc);
    for (std::size_t j = 0; j < m; ++j) {
      const std::uint8_t nib = nibble_at(scalars[j].data(), pos);
      if (nib != 0) acc = to_ext(ge_add(acc, tables[j][nib - 1]));
    }
    const std::uint8_t nib = nibble_at(sb_coeff, pos);
    if (nib != 0) acc = to_ext(ge_madd(acc, base_multiples[nib - 1]));
  }
  return ge_has_small_order(acc);
}

/// Verifies entries[lo, hi): RLC first, bisecting on failure down to scalar
/// ed25519_verify leaves so the result is bit-identical to the scalar path.
void batch_bisect(const std::vector<BatchEntry>& entries, std::size_t lo,
                  std::size_t hi, std::span<const Ed25519BatchItem> items,
                  bool* out) {
  if (hi == lo) return;
  if (hi - lo == 1) {
    const Ed25519BatchItem& it = items[entries[lo].index];
    out[entries[lo].index] = ed25519_verify(*it.pub, it.msg, *it.sig);
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
  // A lone signature gains nothing from the combined equation: screening
  // it and then re-verifying it at the bisection leaf would pay twice.
  if (items.size() == 1) {
    out[0] = ed25519_verify(*items[0].pub, items[0].msg, *items[0].sig);
    return out[0];
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
