// AES-128 block cipher with runtime multi-tier SIMD dispatch.
//
// APNA's data plane is built exclusively on AES (§V-A1: "AES ... is the only
// cipher with widespread hardware support"). Only the forward (encrypt)
// direction is ever needed: CTR, CBC-MAC and CMAC all use the encrypt
// permutation, and EphID "decryption" is CTR keystream reuse.
//
// Four backend tiers, selected by cpuid at construction (widest first):
//  * vaes_avx512 — VAES on 512-bit registers (aes_vaes.cpp, -mvaes): 16
//    blocks per sweep as 4 zmm × 4 lanes; multi-chain CBC-MAC carries 16
//    chains with per-lane round keys (vaesenc applies a distinct key to
//    each 128-bit lane).
//  * avx2        — VEX-encoded AES-NI (aes_avx2.cpp, -maes -mavx2): the
//    same 16-wide shapes on xmm registers; deeper interleave than the
//    aesni tier, three-operand forms avoid the mov traffic.
//  * aesni       — 8-wide xmm interleave (aes_ni.cpp, -maes), the paper's
//    Intel AES-NI baseline.
//  * soft        — portable byte-oriented FIPS-197, always available.
//
// The tier can be forced for testing: either the constructor Backend
// argument or the APNA_CRYPTO_BACKEND environment variable (soft | aesni |
// avx2 | vaes_avx512; the env var caps auto-detection and is read once).
// Forcing a tier the CPU cannot run downgrades to the widest supported
// tier below it — never up, never a crash.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace apna::crypto {

/// AES-128, encrypt direction only. Immutable after construction; safe to
/// share across threads for concurrent encrypt_block calls.
class Aes128 {
 public:
  static constexpr std::size_t kBlockSize = 16;
  static constexpr std::size_t kKeySize = 16;
  static constexpr std::size_t kRounds = 10;

  /// Backend tier. auto_detect picks the widest tier the CPU supports,
  /// capped by APNA_CRYPTO_BACKEND when set; naming a tier caps selection
  /// at that tier (still downgrading to what the CPU can run, so forced
  /// builds are portable). soft always wins when requested.
  enum class Backend : std::uint8_t {
    auto_detect = 0,
    soft = 1,
    aesni = 2,
    avx2 = 3,
    vaes_avx512 = 4,
  };

  /// Expands the 16-byte key. Aborts if key.size() != 16 (programmer error).
  explicit Aes128(ByteSpan key, Backend backend = Backend::auto_detect);

  /// Encrypts one 16-byte block. `in` and `out` may alias.
  void encrypt_block(const std::uint8_t in[kBlockSize],
                     std::uint8_t out[kBlockSize]) const;

  /// Encrypts `n` contiguous blocks. The hardware tiers keep 8 (aesni) or
  /// 16 (avx2 / vaes_avx512) independent blocks in flight to hide aesenc
  /// latency — this is the EphID open sweep of the router's fused pipeline
  /// (EphIdCodec::open_batch_gather) widening with zero call-site changes.
  void encrypt_blocks(const std::uint8_t* in, std::uint8_t* out,
                      std::size_t n) const;

  /// CBC-MAC absorption: x = AES(x ^ block_i) chained over `n` blocks.
  /// A single chain is latency-bound on every tier, so this stays the
  /// 1-chain kernel; the multi-chain driver is crypto::aes_cmac_many.
  void cbc_mac_absorb(std::uint8_t x[kBlockSize], const std::uint8_t* data,
                      std::size_t nblocks) const;

  /// True when the running CPU supports the AES-NI instruction set.
  static bool has_aesni();

  /// Widest tier the CPU supports, after the APNA_CRYPTO_BACKEND cap.
  static Backend best_backend();

  /// Resolves a requested tier against CPU support (and, for auto_detect,
  /// the environment cap): the tier construction would actually use.
  static Backend resolve_backend(Backend requested);

  /// Tier name: "soft", "aesni", "avx2" or "vaes_avx512" — reported by the
  /// benchmarks (E9, and machine_shape in every BENCH JSON) so baselines
  /// from different machines are comparable.
  const char* backend() const;
  static const char* backend_name(Backend b);

  /// This instance's resolved tier.
  Backend tier() const { return tier_; }

  /// Raw expanded key schedule / tier — consumed by the multi-lane CBC-MAC
  /// driver (modes.cpp aes_cmac_many), which interleaves chains under
  /// DIFFERENT keys and therefore reads schedules directly. Internal.
  const std::uint8_t* round_key_bytes() const { return round_keys_.data(); }

 private:
  alignas(16) std::array<std::uint8_t, (kRounds + 1) * kBlockSize> round_keys_;
  Backend tier_;
};

namespace detail {
/// The APNA_CRYPTO_BACKEND cap, parsed once (auto_detect when unset or
/// unrecognized). Non-AES SIMD dispatch (ChaCha20) honors the same cap so
/// one knob forces the whole crypto layer down a tier.
Aes128::Backend env_backend_cap();
// Software backend (aes_soft.cpp).
void soft_expand_key128(const std::uint8_t key[16], std::uint8_t rk[176]);
void soft_encrypt_block(const std::uint8_t rk[176], const std::uint8_t in[16],
                        std::uint8_t out[16]);
// AES-NI backend (aes_ni.cpp, compiled with -maes).
bool aesni_supported();
void aesni_expand_key128(const std::uint8_t key[16], std::uint8_t rk[176]);
void aesni_encrypt_blocks(const std::uint8_t rk[176], const std::uint8_t* in,
                          std::uint8_t* out, std::size_t nblocks);
void aesni_cbcmac_absorb(const std::uint8_t rk[176], std::uint8_t x[16],
                         const std::uint8_t* data, std::size_t nblocks);
/// Interleaves EIGHT independent CBC-MAC chains (each with its own key
/// schedule): for every lane l, absorbs `nblocks` 16-byte blocks starting
/// at data[l] into x[l]. A single CBC chain is latency-bound (each aesenc
/// waits on the previous); eight chains keep the AES unit saturated, which
/// is what makes the batched per-packet MAC stage of the router's fused
/// pipeline pay off. Callers pad unused lanes with duplicates of a live
/// lane (the wasted work rides in the latency shadow). The non-AESNI
/// fallback (non-x86 builds) is the scalar chain per lane; the forced-soft
/// equivalence suite in crypto_property_test pins it against mac2.
void aesni_cbcmac_absorb_8(const std::uint8_t* const rk[8],
                           std::uint8_t* const x[8],
                           const std::uint8_t* const data[8],
                           std::size_t nblocks);
// AVX2 tier (aes_avx2.cpp, compiled with -maes -mavx2): 16-wide siblings.
bool avx2_aes_supported();
void avx2_encrypt_blocks(const std::uint8_t rk[176], const std::uint8_t* in,
                         std::uint8_t* out, std::size_t nblocks);
void avx2_cbcmac_absorb_16(const std::uint8_t* const rk[16],
                           std::uint8_t* const x[16],
                           const std::uint8_t* const data[16],
                           std::size_t nblocks);
// VAES/AVX-512 tier (aes_vaes.cpp, compiled with -mvaes -mavx512f
// -mavx512bw when the compiler has them): 16 blocks per sweep as 4 zmm.
bool vaes_avx512_supported();
void vaes_encrypt_blocks(const std::uint8_t rk[176], const std::uint8_t* in,
                         std::uint8_t* out, std::size_t nblocks);
void vaes_cbcmac_absorb_16(const std::uint8_t* const rk[16],
                           std::uint8_t* const x[16],
                           const std::uint8_t* const data[16],
                           std::size_t nblocks);
}  // namespace detail

}  // namespace apna::crypto
