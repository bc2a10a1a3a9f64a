// Ed25519 signatures (RFC 8032).
//
// ASes sign EphID certificates and bootstrap messages with ed25519 (§V-A2:
// "To create digital signatures for certificates, we use the ed25519
// signature scheme"). Signing uses a precomputed fixed-base table so the MS
// can certify EphIDs at high rate (experiment E1): j·16^i·B for i < 64,
// j ≤ 15, stored in affine Niels form (y+x, y−x, 2d·xy; 115 KB, built on
// first use), so a signature costs at most 64 seven-multiplication
// additions and no doublings.
//
// Verification follows RFC 8032 §5.1.7 with the cofactored equation
// [8](S·B − k·A − R) == identity, in the scalar and the batch path alike,
// and additionally refuses two kinds of public key: an encoding whose y is
// ≥ p (§5.1.3 says such a decoding fails), and a point of small order
// ([8]A = identity). Under a small-order key the factor 8 removes k·A
// altogether, so (R, S) = (encode(B), 1) verifies for every message with
// no private key behind it — a Fig 3 proof of possession under such a key
// proves nothing.
//
// The scalar path checks that equation with half-size scalars (Pornin,
// "Optimized Lattice Basis Reduction in Dimension 2, and Fast Schnorr and
// EdDSA Signature Verification", IACR ePrint 2020/454). sc_half_split
// finds c and d with d ≡ c·k (mod L), 0 < c < 2^127 and |d| < 2^127, and
// verification checks
//   [8]((c·S mod L)·B − d·A − c·R) == identity.
// Why the verdicts agree: write d = c·k − m·L. B has order L, so the
// point inside is c·(S·B − k·A − R) + m·L·A, and [8]·L·P is the identity
// for every curve point P (the group has order 8L). So the left side is
// c·[8](S·B − k·A − R). That point lies in the prime-order subgroup and c
// is a unit mod L, so it is the identity exactly when [8](S·B − k·A − R)
// is: every verdict is the one the full-size equation gives, for keys
// with a torsion component and for torsion on R alike.
//
// The d·A and c·R terms are one Straus walk over 32 signed radix-16
// digits: 124 doublings shared by both points, where a full-size k·A walk
// doubles 252 times. (c·S)·B comes from the fixed-base table with no
// doublings.
//
// The cofactored equation trades away strong unforgeability, as ZIP 215
// does: if (R, S) verifies, so does (R + T, S) for every small-order T,
// and the signature bytes differ. A cofactorless scalar check next to a
// batch check cannot agree on such signatures (two offsets cancel inside
// the batch sum), so both paths use the cofactored one. Nothing may key on
// signature bytes as if they were unique. Nothing in src/ does: the one map
// keyed on signed content, Host::dns_sessions_, uses the certificate's
// EphID, which an offset on R leaves unchanged.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "crypto/rng.h"
#include "util/bytes.h"

namespace apna::crypto {

using Ed25519Seed = std::array<std::uint8_t, 32>;        // private seed
using Ed25519PublicKey = std::array<std::uint8_t, 32>;   // compressed point
using Ed25519Signature = std::array<std::uint8_t, 64>;   // R ‖ S

/// Derives the public key for a 32-byte seed.
Ed25519PublicKey ed25519_public_key(const Ed25519Seed& seed);

/// Signs `msg` (deterministic per RFC 8032).
Ed25519Signature ed25519_sign(const Ed25519Seed& seed,
                              const Ed25519PublicKey& pub, ByteSpan msg);

/// Verifies a signature. Rejects non-canonical S, undecodable or
/// non-canonical A, and A of small order.
bool ed25519_verify(const Ed25519PublicKey& pub, ByteSpan msg,
                    const Ed25519Signature& sig);

/// One signature of a batch-verification sweep.
struct Ed25519BatchItem {
  const Ed25519PublicKey* pub = nullptr;
  ByteSpan msg;
  const Ed25519Signature* sig = nullptr;
};

/// Batch verification: out[i] = ed25519_verify(*items[i].pub, items[i].msg,
/// *items[i].sig) for every item, with the expensive part amortized.
/// Returns true iff every signature verified.
///
/// A batch of one or two is ed25519_verify per item, and so is any
/// sub-batch of one or two that bisection reaches: on a 2-item batch the
/// combined equation costs as much as two scalar verifies (bench_e9's
/// width-2 row), and paced issuance runs widths 1 and 2.
///
/// How: after per-item screening that mirrors the scalar rejects exactly
/// (non-canonical S; A that ed25519_verify refuses — undecodable,
/// non-canonical or of small order; R that does not decode), the survivors
/// are checked with one random-linear-combination equation
/// [8]((Σ z_i S_i)·B − Σ (z_i k_i)·A_i − Σ z_i·R_i) == identity,
/// evaluated by a shared-doubling Straus walk over 64 signed radix-16
/// digits: 252 point doublings TOTAL instead of 124 per signature —
/// per-signature cost decays toward the window additions alone as the
/// batch grows (the z_i·k_i are full-size, so no half-size split). The z_i are
/// nonzero 128-bit coefficients derived from the batch itself: a SHA-512
/// transcript of every checked signature's S_i and challenge k_i (which
/// binds R_i, A_i and the message) seeds a ChaCha20 stream. Soundness
/// needs a signer who cannot choose its signatures after seeing the z_i;
/// with z a hash of those signatures, making two invalid ones cancel takes
/// a search over about 2^127 transcripts. The factor 8 removes every
/// torsion component, exactly as in the scalar equation, so a torsion
/// offset is accepted by both paths or by neither. Keys of small order
/// never reach the equation: their forgeries are pure torsion.
///
/// On ANY batch-equation failure the sweep bisects recursively down to
/// scalar ed25519_verify leaves, so the accept/reject set is bit-identical
/// to calling ed25519_verify per item (property-tested over randomized
/// corrupted batches in crypto_property_test).
bool ed25519_verify_batch(std::span<const Ed25519BatchItem> items,
                          bool* out);

/// AS / host long-term signing identity.
struct Ed25519KeyPair {
  Ed25519Seed seed;
  Ed25519PublicKey pub;

  static Ed25519KeyPair generate(Rng& rng);
  Ed25519Signature sign(ByteSpan msg) const { return ed25519_sign(seed, pub, msg); }
};

}  // namespace apna::crypto
