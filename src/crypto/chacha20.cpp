#include "crypto/chacha20.h"

#include <cstring>

#include "crypto/aes.h"

#if defined(__x86_64__) || defined(__i386__)
#include <emmintrin.h>
#define APNA_HAVE_CHACHA_SSE2_BUILD 1
#endif

namespace apna::crypto {

namespace {

inline std::uint32_t rotl32(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

inline void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                          std::uint32_t& d) {
  a += b; d ^= a; d = rotl32(d, 16);
  c += d; b ^= c; b = rotl32(b, 12);
  a += b; d ^= a; d = rotl32(d, 8);
  c += d; b ^= c; b = rotl32(b, 7);
}

}  // namespace

void chacha20_block(const std::uint8_t key[32], std::uint32_t counter,
                    const std::uint8_t nonce[12], std::uint8_t out[64]) {
  std::uint32_t s[16];
  s[0] = 0x61707865; s[1] = 0x3320646e; s[2] = 0x79622d32; s[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) s[4 + i] = load_le32(key + 4 * i);
  s[12] = counter;
  for (int i = 0; i < 3; ++i) s[13 + i] = load_le32(nonce + 4 * i);

  std::uint32_t w[16];
  std::memcpy(w, s, sizeof(w));
  for (int round = 0; round < 10; ++round) {
    quarter_round(w[0], w[4], w[8], w[12]);
    quarter_round(w[1], w[5], w[9], w[13]);
    quarter_round(w[2], w[6], w[10], w[14]);
    quarter_round(w[3], w[7], w[11], w[15]);
    quarter_round(w[0], w[5], w[10], w[15]);
    quarter_round(w[1], w[6], w[11], w[12]);
    quarter_round(w[2], w[7], w[8], w[13]);
    quarter_round(w[3], w[4], w[9], w[14]);
  }
  for (int i = 0; i < 16; ++i) store_le32(out + 4 * i, w[i] + s[i]);
}

namespace detail {

#if defined(APNA_HAVE_CHACHA_SSE2_BUILD)

namespace {

inline __m128i rotl_sse2(__m128i x, int n) {
  return _mm_or_si128(_mm_slli_epi32(x, n), _mm_srli_epi32(x, 32 - n));
}

inline void qround_sse2(__m128i& a, __m128i& b, __m128i& c, __m128i& d) {
  a = _mm_add_epi32(a, b); d = rotl_sse2(_mm_xor_si128(d, a), 16);
  c = _mm_add_epi32(c, d); b = rotl_sse2(_mm_xor_si128(b, c), 12);
  a = _mm_add_epi32(a, b); d = rotl_sse2(_mm_xor_si128(d, a), 8);
  c = _mm_add_epi32(c, d); b = rotl_sse2(_mm_xor_si128(b, c), 7);
}

/// Transposes rows r[0..3] (4 × 32-bit lanes each) in place.
inline void transpose4x4_sse2(__m128i r[4]) {
  const __m128i t0 = _mm_unpacklo_epi32(r[0], r[1]);
  const __m128i t1 = _mm_unpackhi_epi32(r[0], r[1]);
  const __m128i t2 = _mm_unpacklo_epi32(r[2], r[3]);
  const __m128i t3 = _mm_unpackhi_epi32(r[2], r[3]);
  r[0] = _mm_unpacklo_epi64(t0, t2);
  r[1] = _mm_unpackhi_epi64(t0, t2);
  r[2] = _mm_unpacklo_epi64(t1, t3);
  r[3] = _mm_unpackhi_epi64(t1, t3);
}

}  // namespace

void chacha20_blocks4_sse2(const std::uint8_t key[32], std::uint32_t counter,
                           const std::uint8_t nonce[12],
                           std::uint8_t out[256]) {
  std::uint32_t init[16];
  init[0] = 0x61707865; init[1] = 0x3320646e;
  init[2] = 0x79622d32; init[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) init[4 + i] = load_le32(key + 4 * i);
  init[12] = counter;
  for (int i = 0; i < 3; ++i) init[13 + i] = load_le32(nonce + 4 * i);

  __m128i s[16];
  for (int i = 0; i < 16; ++i)
    s[i] = _mm_set1_epi32(static_cast<int>(init[i]));
  s[12] = _mm_add_epi32(s[12], _mm_setr_epi32(0, 1, 2, 3));
  const __m128i c12 = s[12];

  __m128i w[16];
  for (int i = 0; i < 16; ++i) w[i] = s[i];
  for (int round = 0; round < 10; ++round) {
    qround_sse2(w[0], w[4], w[8], w[12]);
    qround_sse2(w[1], w[5], w[9], w[13]);
    qround_sse2(w[2], w[6], w[10], w[14]);
    qround_sse2(w[3], w[7], w[11], w[15]);
    qround_sse2(w[0], w[5], w[10], w[15]);
    qround_sse2(w[1], w[6], w[11], w[12]);
    qround_sse2(w[2], w[7], w[8], w[13]);
    qround_sse2(w[3], w[4], w[9], w[14]);
  }
  for (int i = 0; i < 16; ++i)
    w[i] = _mm_add_epi32(w[i], i == 12 ? c12 : s[i]);

  // Four 4x4 transposes; block j is row j of each word-quad in order.
  transpose4x4_sse2(w);
  transpose4x4_sse2(w + 4);
  transpose4x4_sse2(w + 8);
  transpose4x4_sse2(w + 12);
  for (int j = 0; j < 4; ++j)
    for (int g = 0; g < 4; ++g)
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(out + 64 * j + 16 * g), w[4 * g + j]);
}

#else  // !APNA_HAVE_CHACHA_SSE2_BUILD

void chacha20_blocks4_sse2(const std::uint8_t key[32], std::uint32_t counter,
                           const std::uint8_t nonce[12],
                           std::uint8_t out[256]) {
  for (int j = 0; j < 4; ++j)
    chacha20_block(key, counter + static_cast<std::uint32_t>(j), nonce,
                   out + 64 * j);
}

#endif

}  // namespace detail

namespace {

/// ChaCha20 lane width, picked once: 8 (AVX2), 4 (SSE2) or 1 (scalar).
/// Honors the APNA_CRYPTO_BACKEND cap — `soft` forces scalar, `aesni` caps
/// at SSE2 (the paper-baseline x86 level), avx2/vaes allow the 8-way path.
std::size_t chacha_lanes() {
  using Backend = Aes128::Backend;
  static const std::size_t lanes = [] {
    const Backend cap = detail::env_backend_cap();
    if (cap == Backend::soft) return std::size_t{1};
#if defined(APNA_HAVE_CHACHA_SSE2_BUILD)
    const bool avx2_ok =
        (cap == Backend::auto_detect || cap >= Backend::avx2) &&
        detail::chacha20_avx2_supported();
    return avx2_ok ? std::size_t{8} : std::size_t{4};
#else
    return std::size_t{1};
#endif
  }();
  return lanes;
}

/// Writes keystream blocks counter, counter+1, ... into ks for a run that
/// still needs `blocks` blocks: one call of the widest kernel when the run
/// is two blocks or longer, one scalar block otherwise. Returns the number
/// of blocks written.
std::size_t keystream(const std::uint8_t key[32], std::uint32_t counter,
                      const std::uint8_t nonce[12], std::size_t blocks,
                      std::uint8_t ks[8 * 64]) {
  const std::size_t lanes = blocks >= 2 ? chacha_lanes() : 1;
  if (lanes == 8)
    detail::chacha20_blocks8_avx2(key, counter, nonce, ks);
  else if (lanes == 4)
    detail::chacha20_blocks4_sse2(key, counter, nonce, ks);
  else
    chacha20_block(key, counter, nonce, ks);
  return lanes;
}

}  // namespace

void chacha20_xcrypt(const std::uint8_t key[32], std::uint32_t counter,
                     const std::uint8_t nonce[12], ByteSpan in,
                     MutByteSpan out) {
  std::uint8_t ks[8 * 64];
  std::size_t off = 0;
  while (off < in.size()) {
    const std::size_t gen =
        keystream(key, counter, nonce, (in.size() - off + 63) / 64, ks);
    counter += static_cast<std::uint32_t>(gen);
    const std::size_t n = std::min(in.size() - off, gen * 64);
    for (std::size_t i = 0; i < n; ++i)
      out[off + i] = static_cast<std::uint8_t>(in[off + i] ^ ks[i]);
    off += n;
  }
}

namespace {

using u128 = unsigned __int128;

/// Incremental Poly1305 accumulator mod 2^130-5 in three 64-bit limbs of
/// 44, 44 and 42 bits with 128-bit products (the donna-64 layout fe25519
/// uses). The shared core of the one-shot poly1305() and the streaming
/// AEAD tag, which authenticates aad ‖ pad ‖ ct ‖ pad ‖ lens WITHOUT
/// materializing that concatenation.
struct Poly1305Core {
  static constexpr std::uint64_t kMask44 = (std::uint64_t{1} << 44) - 1;
  static constexpr std::uint64_t kMask42 = (std::uint64_t{1} << 42) - 1;

  std::uint64_t r0, r1, r2;
  std::uint64_t s1, s2;  // 20·r1, 20·r2: 2^132 ≡ 4·5 (mod 2^130-5)
  std::uint64_t h0 = 0, h1 = 0, h2 = 0;

  explicit Poly1305Core(const std::uint8_t key[32]) {
    // r with RFC 8439 clamping.
    const std::uint64_t t0 = load_le64(key);
    const std::uint64_t t1 = load_le64(key + 8);
    r0 = t0 & 0xffc0fffffff;
    r1 = ((t0 >> 44) | (t1 << 20)) & 0xfffffc0ffff;
    r2 = (t1 >> 24) & 0x00ffffffc0f;
    s1 = r1 * 20;
    s2 = r2 * 20;
  }

  /// Absorbs one 16-byte block. `hibit` is 1 for a full block (the 2^128
  /// bit) and 0 for a short final block the caller padded after its 0x01.
  void absorb(const std::uint8_t m[16], std::uint64_t hibit) {
    const std::uint64_t t0 = load_le64(m);
    const std::uint64_t t1 = load_le64(m + 8);
    h0 += t0 & kMask44;
    h1 += ((t0 >> 44) | (t1 << 20)) & kMask44;
    h2 += (t1 >> 24) | (hibit << 40);

    const u128 d0 = u128{h0} * r0 + u128{h1} * s2 + u128{h2} * s1;
    u128 d1 = u128{h0} * r1 + u128{h1} * r0 + u128{h2} * s2;
    u128 d2 = u128{h0} * r2 + u128{h1} * r1 + u128{h2} * r0;

    // Partial reduction; the top carry folds back in times 5.
    d1 += static_cast<std::uint64_t>(d0 >> 44);
    h0 = static_cast<std::uint64_t>(d0) & kMask44;
    d2 += static_cast<std::uint64_t>(d1 >> 44);
    h1 = static_cast<std::uint64_t>(d1) & kMask44;
    h2 = static_cast<std::uint64_t>(d2) & kMask42;
    h0 += static_cast<std::uint64_t>(d2 >> 42) * 5;
    h1 += h0 >> 44;
    h0 &= kMask44;
  }

  std::array<std::uint8_t, 16> finish(const std::uint8_t key[32]) {
    // Full carry and reduction mod 2^130-5.
    std::uint64_t c;
    for (int pass = 0; pass < 2; ++pass) {
      c = h1 >> 44; h1 &= kMask44; h2 += c;
      c = h2 >> 42; h2 &= kMask42; h0 += c * 5;
      c = h0 >> 44; h0 &= kMask44; h1 += c;
    }

    // Compute h + -p and select it when h >= p.
    std::uint64_t g0 = h0 + 5; c = g0 >> 44; g0 &= kMask44;
    std::uint64_t g1 = h1 + c; c = g1 >> 44; g1 &= kMask44;
    const std::uint64_t g2 = h2 + c - (std::uint64_t{1} << 42);
    const std::uint64_t mask = (g2 >> 63) - 1;  // all-ones if h >= p
    h0 = (h0 & ~mask) | (g0 & mask);
    h1 = (h1 & ~mask) | (g1 & mask);
    h2 = (h2 & ~mask) | (g2 & mask);

    // tag = (h + s) mod 2^128, s = key[16..32).
    const std::uint64_t t0 = load_le64(key + 16);
    const std::uint64_t t1 = load_le64(key + 24);
    h0 += t0 & kMask44; c = h0 >> 44; h0 &= kMask44;
    h1 += (((t0 >> 44) | (t1 << 20)) & kMask44) + c; c = h1 >> 44;
    h1 &= kMask44;
    h2 += (t1 >> 24) + c;

    std::array<std::uint8_t, 16> tag;
    store_le64(tag.data(), h0 | (h1 << 44));
    store_le64(tag.data() + 8, (h1 >> 20) | (h2 << 24));
    return tag;
  }
};

/// Streams a span into the core at 16-byte granularity. A short final
/// block is zero-padded: as a full block in the RFC 8439 AEAD layout
/// (`aead_pad`), after a 0x01 marker byte for the one-shot MAC.
void absorb_span(Poly1305Core& core, ByteSpan data, bool aead_pad) {
  std::size_t off = 0;
  for (; off + 16 <= data.size(); off += 16) core.absorb(data.data() + off, 1);
  if (off == data.size()) return;
  std::uint8_t block[16] = {};
  std::memcpy(block, data.data() + off, data.size() - off);
  if (!aead_pad) block[data.size() - off] = 1;  // the 2^(8·n) bit
  core.absorb(block, aead_pad ? 1 : 0);
}

/// The RFC 8439 §2.8 tag over aad ‖ pad ‖ ct ‖ pad ‖ len(aad) ‖ len(ct).
std::array<std::uint8_t, 16> aead_tag(const std::uint8_t otk[32], ByteSpan aad,
                                      ByteSpan ct) {
  Poly1305Core core(otk);
  absorb_span(core, aad, /*aead_pad=*/true);
  absorb_span(core, ct, /*aead_pad=*/true);
  std::uint8_t lens[16];
  store_le64(lens, aad.size());
  store_le64(lens + 8, ct.size());
  core.absorb(lens, 1);
  return core.finish(otk);
}

/// Frame head: RFC 8439's block 0 (the Poly1305 key, ks[0..32)) and the
/// first data blocks from ONE kernel call — up to 448 data bytes on AVX2,
/// 192 on SSE2, none on the scalar tier. Returns how many of the `len`
/// data bytes the head's keystream (ks + 64) covers.
std::size_t aead_head(const std::uint8_t key[32], const std::uint8_t nonce[12],
                      std::size_t len, std::uint8_t ks[8 * 64]) {
  const std::size_t blocks = keystream(key, 0, nonce, 1 + (len + 63) / 64, ks);
  return std::min(len, 64 * (blocks - 1));
}

/// XORs `in` with the data keystream: the head's first `head` bytes, then
/// chacha20_xcrypt from the next block (head is a whole number of blocks
/// whenever anything is left).
void aead_xcrypt(const std::uint8_t key[32], const std::uint8_t nonce[12],
                 const std::uint8_t ks[8 * 64], std::size_t head, ByteSpan in,
                 MutByteSpan out) {
  for (std::size_t i = 0; i < head; ++i)
    out[i] = static_cast<std::uint8_t>(in[i] ^ ks[64 + i]);
  chacha20_xcrypt(key, static_cast<std::uint32_t>(1 + head / 64), nonce,
                  in.subspan(head), out.subspan(head));
}

}  // namespace

std::array<std::uint8_t, 16> poly1305(const std::uint8_t key[32],
                                      ByteSpan msg) {
  Poly1305Core core(key);
  absorb_span(core, msg, /*aead_pad=*/false);
  return core.finish(key);
}

ChaCha20Poly1305::ChaCha20Poly1305(ByteSpan key32) {
  std::memcpy(key_.data(), key32.data(), 32);
}

void ChaCha20Poly1305::seal_into(ByteSpan nonce, ByteSpan aad,
                                 ByteSpan plaintext, MutByteSpan out) const {
  std::uint8_t ks[8 * 64];
  const std::size_t head =
      aead_head(key_.data(), nonce.data(), plaintext.size(), ks);
  const MutByteSpan ct = out.first(plaintext.size());
  aead_xcrypt(key_.data(), nonce.data(), ks, head, plaintext, ct);
  const auto tag = aead_tag(ks, aad, ct);
  std::memcpy(out.data() + plaintext.size(), tag.data(), kTagSize);
}

bool ChaCha20Poly1305::open_into(ByteSpan nonce, ByteSpan aad,
                                 ByteSpan ciphertext_and_tag,
                                 MutByteSpan plaintext_out) const {
  if (nonce.size() != kNonceSize) return false;
  if (ciphertext_and_tag.size() < kTagSize) return false;
  const std::size_t ct_len = ciphertext_and_tag.size() - kTagSize;
  ByteSpan ct = ciphertext_and_tag.subspan(0, ct_len);
  ByteSpan tag = ciphertext_and_tag.subspan(ct_len);

  std::uint8_t ks[8 * 64];
  const std::size_t head = aead_head(key_.data(), nonce.data(), ct_len, ks);
  if (!ct_equal(aead_tag(ks, aad, ct), tag)) return false;
  aead_xcrypt(key_.data(), nonce.data(), ks, head, ct, plaintext_out);
  return true;
}

}  // namespace apna::crypto
