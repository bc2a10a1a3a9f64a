// Unified AEAD interface over the two CCA-secure suites in this repo.
//
// §IV-A: "any conventional CCA-secure scheme [27],[36] can be used" for
// payload encryption. We provide:
//   * chacha20_poly1305 — default; best worst-case choice (fast without any
//                         hardware support).
//   * aes128_ctr_cmac   — Encrypt-then-MAC generic composition [7], the same
//                         paradigm the EphID construction uses (§V-A1); the
//                         fastest suite on AES-NI hardware (see E9).
// The suite is negotiated in the connection handshake; bench E9 compares
// both. Suite value 2 (AES-128-GCM) is retired and never decodes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "util/bytes.h"

namespace apna::crypto {

enum class AeadSuite : std::uint8_t {
  chacha20_poly1305 = 1,
  aes128_ctr_cmac = 3,
};

const char* aead_suite_name(AeadSuite s);

/// Authenticated encryption with associated data. Stateless w.r.t. nonces:
/// callers manage nonce uniqueness (sessions use a send counter). A suite
/// implements one seal (seal_into) and one open (open_into) over
/// caller-owned storage; seal() and open() wrap them with one allocation
/// each.
class Aead {
 public:
  static constexpr std::size_t kNonceSize = 12;
  static constexpr std::size_t kTagSize = 16;

  virtual ~Aead() = default;

  virtual AeadSuite suite() const = 0;

  /// Writes ciphertext ‖ 16-byte tag into `out`, which must be exactly
  /// plaintext.size() + kTagSize bytes.
  virtual void seal_into(ByteSpan nonce12, ByteSpan aad, ByteSpan plaintext,
                         MutByteSpan out) const = 0;

  /// Verifies, then decrypts into `plaintext_out` (exactly
  /// ciphertext_and_tag.size() - kTagSize bytes). Returns false, writing
  /// nothing, on any failure (CCA security: the caller learns nothing
  /// beyond "invalid").
  virtual bool open_into(ByteSpan nonce12, ByteSpan aad,
                         ByteSpan ciphertext_and_tag,
                         MutByteSpan plaintext_out) const = 0;

  /// Returns ciphertext ‖ 16-byte tag.
  Bytes seal(ByteSpan nonce12, ByteSpan aad, ByteSpan plaintext) const;

  /// Verifies + decrypts; nullopt on any failure.
  std::optional<Bytes> open(ByteSpan nonce12, ByteSpan aad,
                            ByteSpan ciphertext_and_tag) const;

  /// Constructs the requested suite from 32 bytes of keying material (AES
  /// suites derive their 16-byte key from it via HKDF).
  static std::unique_ptr<Aead> create(AeadSuite suite, ByteSpan key32);
};

}  // namespace apna::crypto
