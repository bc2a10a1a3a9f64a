// The EphID construction of Fig 6 — the heart of APNA.
//
//   EphID = AES-CTR_{kA'}(HID ‖ ExpTime)[0..8) ‖ IV(4) ‖ CBC-MAC_{kA''}(CT ‖ IV)(4)
//
// Encrypt-then-MAC with a fresh 4-byte IV per EphID:
//  * the issuing AS recovers (HID, ExpTime) statelessly by decryption
//    (design choice 1, §IV — no mapping table);
//  * the MAC makes the scheme CCA-secure: any forged or modified EphID is
//    rejected before the HID is even looked at (§VI-A "Unauthorized EphID
//    Generation"). CBC-MAC is safe here because its input length is fixed
//    at exactly one block (footnote 3).
//  * a fresh IV lets one HID hold many unlinkable EphIDs (§V-A1). Two
//    EphIDs under one IV XOR their first 4 ciphertext bytes to HID₁ ⊕ HID₂,
//    so the Management Service never repeats one: its IV is FF1 under a
//    third kA-derived key (kA‴) of its reply counter (issue_counted), which
//    is unique per counter and which nobody without kA can compute.
#pragma once

#include <cstdint>

#include "core/ids.h"
#include "crypto/aes.h"
#include "crypto/modes.h"
#include "crypto/rng.h"
#include "util/result.h"

namespace apna::core {

/// Decrypted EphID contents.
struct EphIdPlain {
  Hid hid = 0;
  ExpTime exp_time = 0;
};

/// Issues and opens EphIDs for one AS. Immutable after construction; safe to
/// share across the AS's infrastructure (MS, border routers, AA) — they all
/// hold kA and derive kA'/kA'' identically (§V-A1).
class EphIdCodec {
 public:
  /// Field offsets within the 16-byte EphID (Fig 6 right-hand side).
  static constexpr std::size_t kCtOffset = 0;   // 8 B ciphertext
  static constexpr std::size_t kIvOffset = 8;   // 4 B IV
  static constexpr std::size_t kMacOffset = 12; // 4 B CBC-MAC tag

  /// Derives kA' (encryption), kA'' (authentication) and kA''' (the IV
  /// permutation) from kA.
  explicit EphIdCodec(ByteSpan ka16);

  /// Issues a fresh EphID with a random IV.
  EphId issue(Hid hid, ExpTime exp_time, crypto::Rng& rng) const;

  /// Issues the EphID whose IV is FF1_{kA'''}(counter), a permutation of
  /// the 32-bit counter space: distinct counters give distinct IVs. The
  /// Management Service passes its reply nonce and uses each at most once.
  EphId issue_counted(Hid hid, ExpTime exp_time, std::uint32_t counter) const;

  /// Deterministic-IV variant (tests; also lets callers manage IV space).
  EphId issue_with_iv(Hid hid, ExpTime exp_time, std::uint32_t iv) const;

  /// Authenticates and decrypts. Errc::decrypt_failed when the tag is wrong
  /// (forged/corrupted EphID, or an EphID of a different AS).
  Result<EphIdPlain> open(const EphId& ephid) const;

  /// Batched open for the forwarding fast path, in gather/scatter form:
  /// `ephids16[i]` points at the i-th 16-byte EphID wherever it lies —
  /// typically straight into the packet wire images of a burst's
  /// flow-cache MISSES, so the AES sweep touches only the EphIDs that
  /// actually need crypto and nothing is copied into an EphId array first.
  /// Authenticates and decrypts with two gathered AES passes (one for the
  /// CBC-MAC tags, one for the CTR keystream) instead of 2n single-block
  /// calls, letting the hardware tiers pipeline 8-16 blocks in flight.
  /// `ok[i]` is nonzero iff the i-th EphID is authentic, in which case
  /// `plain[i]` holds its contents. Verdicts agree exactly with
  /// per-element open().
  void open_batch_gather(const std::uint8_t* const* ephids16, std::size_t n,
                         EphIdPlain* plain, std::uint8_t* ok) const;

  /// The AES backend in use ("aesni"/"soft") — surfaced by benchmarks.
  const char* backend() const { return enc_.backend(); }

 private:
  crypto::Aes128 enc_;    // kA'
  crypto::Aes128 mac_;    // kA''
  crypto::Ff1Binary iv_;  // kA'''
};

}  // namespace apna::core
