// AES block-cipher modes used by APNA:
//  * CTR       — EphID payload encryption (Fig 6) and the CTR half of the
//                Encrypt-then-MAC AEAD suite.
//  * CBC-MAC   — fixed-one-block authentication tag inside the EphID
//                construction (secure because the input length is fixed to
//                16 B, exactly the argument of §VI-A / footnote 3).
//  * CMAC      — RFC 4493 variable-length MAC; used for the per-packet
//                source-authentication MAC under k_HA (§IV-D2) and for
//                infrastructure-internal message authentication.
//  * FF1       — NIST SP 800-38G format-preserving encryption at radix 2:
//                the keyed 32-bit permutation that turns the Management
//                Service's reply counter into an EphID IV.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "crypto/aes.h"
#include "util/bytes.h"

namespace apna::crypto {

/// Encrypts/decrypts `in` into `out` with AES-CTR. `counter_block` is the
/// initial 16-byte counter; the low 32 bits (big-endian) increment per block.
/// CTR is an involution: the same call decrypts. `in` and `out` may alias.
void aes_ctr_xcrypt(const Aes128& aes,
                    const std::uint8_t counter_block[16],
                    ByteSpan in, MutByteSpan out);

/// Convenience allocating variant.
Bytes aes_ctr(const Aes128& aes, const std::uint8_t counter_block[16],
              ByteSpan in);

/// Raw CBC-MAC over data whose length MUST be a multiple of 16 bytes and
/// MUST be fixed per key (CBC-MAC is insecure for variable lengths — the
/// paper cites [6]; EphID construction always MACs exactly one block).
std::array<std::uint8_t, 16> aes_cbc_mac(const Aes128& aes, ByteSpan data);

/// FF1 (NIST SP 800-38G) over binary strings of `bits` digits with an empty
/// tweak: a keyed permutation of [0, 2^bits). A value is read as its
/// `bits`-digit string, most significant bit first. `bits` runs from 2 to
/// 32; the EphID IV uses 32. SP 800-38G Rev. 1 asks for a domain of at
/// least 10^6 values, so widths below 20 serve only to test the
/// construction exhaustively. Each of the ten Feistel rounds costs one AES
/// call: the PRF's first block P depends only on the key and the width, so
/// its CBC-MAC state is computed once here. Immutable after construction;
/// safe for concurrent encrypt() calls.
class Ff1Binary {
 public:
  explicit Ff1Binary(ByteSpan key16, unsigned bits = 32);

  /// FF1.Encrypt of the low `bits` bits of `x`.
  std::uint32_t encrypt(std::uint32_t x) const;

 private:
  Aes128 aes_;
  std::array<std::uint8_t, 16> p_mac_{};  // CIPH_K(P)
  unsigned u_;                            // digits in the left half
  unsigned v_;                            // digits in the right half
};

/// AES-CMAC (RFC 4493): secure for variable-length messages.
/// Immutable after construction; safe for concurrent mac() calls.
class AesCmac {
 public:
  /// `backend` forces the underlying AES tier (testing / benchmarking);
  /// the default auto-detects exactly as Aes128 does.
  explicit AesCmac(ByteSpan key16,
                   Aes128::Backend backend = Aes128::Backend::auto_detect);

  /// Resolved AES tier name of this key ("soft" ... "vaes_avx512").
  const char* backend() const;

  /// Full 16-byte tag over `data`.
  std::array<std::uint8_t, 16> mac(ByteSpan data) const;

  /// Tag over the concatenation a ‖ b (used for header ‖ payload MACs
  /// without copying the packet).
  std::array<std::uint8_t, 16> mac2(ByteSpan a, ByteSpan b) const;

  /// Truncated-tag verification in constant time.
  bool verify(ByteSpan data, ByteSpan tag) const;

 private:
  friend void aes_cmac_many(std::span<const struct CmacJob> jobs,
                            std::array<std::uint8_t, 16>* tags);
  Aes128 aes_;
  std::array<std::uint8_t, 16> k1_{};  // subkey for complete final block
  std::array<std::uint8_t, 16> k2_{};  // subkey for padded final block
};

/// One lane of a batched CMAC sweep: the tag over a ‖ b under `key`
/// (typically: packet MAC preamble ‖ payload, each packet under its own
/// host key).
struct CmacJob {
  const AesCmac* key = nullptr;
  ByteSpan a;
  ByteSpan b;
};

/// Fewest live CBC chains an interleaved aes_cmac_many pass is worth. On
/// vaes_avx512 an 8-lane pass costs about as much as four single-chain
/// blocks and a 16-lane pass about five and a half; with the per-lane
/// staging on top, packet MACs of 128-512 B gain nothing below six live
/// chains, so fewer run one after another instead of padded out to a
/// kernel width.
inline constexpr std::size_t kCmacMinLanes = 6;

/// Computes tags[i] == jobs[i].key->mac2(jobs[i].a, jobs[i].b) for every
/// job — but interleaves independent CBC chains through the AES unit. The
/// lane width follows the narrowest tier in each group of consecutive
/// hardware-backed keys: up to 16 chains on avx2 / vaes_avx512
/// (detail::{avx2,vaes}_cbcmac_absorb_16), 8 on plain aesni
/// (detail::aesni_cbcmac_absorb_8). A lone CBC chain is latency-bound;
/// many keep the unit saturated, so a burst of per-packet MACs (Fig 4's
/// one-MAC-per-packet) costs a fraction of the serial sweep. Groups of
/// fewer than kCmacMinLanes jobs, and the straggler lanes left once
/// shorter inputs finish, run as serial chains instead of padded lanes,
/// so a burst of one to five MACs costs what the serial loop does. Tags
/// are bit-identical to the scalar mac2 on every tier (pinned by
/// crypto_property_test); soft-tier keys take the scalar loop.
void aes_cmac_many(std::span<const CmacJob> jobs,
                   std::array<std::uint8_t, 16>* tags);

}  // namespace apna::crypto
