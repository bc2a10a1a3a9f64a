// Test helper: Ed25519 public keys that prove possession of nothing, and
// the signature that goes with them.
//
// The keys are the eight points of small order (canonical encodings; [8]A
// is the identity) and a non-canonical encoding of the identity (y = p+1,
// which RFC 8032 §5.1.3 says must not decode). Under each, the signature
// (R, S) = (encode(B), 1) satisfies the cofactored equation
// [8](S·B − k·A − R) == identity under every message (and the cofactorless
// one whenever A's order divides the challenge k). A verifier must reject
// all nine keys.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>

#include "crypto/ed25519.h"
#include "util/hex.h"

namespace apna::test {

inline constexpr std::array<const char*, 9> kSmallOrderKeysHex = {
    // order 1: the identity (0, 1)
    "0100000000000000000000000000000000000000000000000000000000000000",
    // order 2: (0, -1)
    "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    // order 4: (±sqrt(-1), 0)
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000080",
    // order 8
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
    // the identity again, encoded with y = p + 1
    "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
};

inline crypto::Ed25519PublicKey small_order_key(std::size_t i) {
  const Bytes b = must_hex(kSmallOrderKeysHex.at(i));
  crypto::Ed25519PublicKey pub{};
  std::copy(b.begin(), b.end(), pub.begin());
  return pub;
}

/// (R, S) = (encode(B), 1).
inline crypto::Ed25519Signature base_point_signature() {
  const Bytes r = must_hex(
      "5866666666666666666666666666666666666666666666666666666666666666");
  crypto::Ed25519Signature sig{};
  std::copy(r.begin(), r.end(), sig.begin());
  sig[32] = 1;
  return sig;
}

}  // namespace apna::test
