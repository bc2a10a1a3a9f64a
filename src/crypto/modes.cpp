#include "crypto/modes.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace apna::crypto {

namespace {

inline void increment_be32_tail(std::uint8_t block[16]) {
  for (int i = 15; i >= 12; --i) {
    if (++block[i] != 0) break;
  }
}

// Doubles a value in GF(2^128) with the CMAC polynomial (x^128 + x^7 + x^2 +
// x + 1); used for RFC 4493 subkey generation.
void gf128_double(std::array<std::uint8_t, 16>& v) {
  const std::uint8_t carry = static_cast<std::uint8_t>(v[0] >> 7);
  for (int i = 0; i < 15; ++i)
    v[i] = static_cast<std::uint8_t>((v[i] << 1) | (v[i + 1] >> 7));
  v[15] = static_cast<std::uint8_t>(v[15] << 1);
  if (carry) v[15] ^= 0x87;
}

}  // namespace

void aes_ctr_xcrypt(const Aes128& aes, const std::uint8_t counter_block[16],
                    ByteSpan in, MutByteSpan out) {
  std::uint8_t ctr[16];
  std::memcpy(ctr, counter_block, 16);

  // Generate keystream in batches so the AES-NI backend can pipeline.
  constexpr std::size_t kBatchBlocks = 32;
  std::uint8_t ctr_batch[kBatchBlocks * 16];
  std::uint8_t ks[kBatchBlocks * 16];

  std::size_t off = 0;
  while (off < in.size()) {
    const std::size_t remaining = in.size() - off;
    const std::size_t blocks =
        std::min(kBatchBlocks, (remaining + 15) / 16);
    for (std::size_t b = 0; b < blocks; ++b) {
      std::memcpy(ctr_batch + 16 * b, ctr, 16);
      increment_be32_tail(ctr);
    }
    aes.encrypt_blocks(ctr_batch, ks, blocks);
    const std::size_t nbytes = std::min(remaining, blocks * 16);
    for (std::size_t i = 0; i < nbytes; ++i)
      out[off + i] = static_cast<std::uint8_t>(in[off + i] ^ ks[i]);
    off += nbytes;
  }
}

Bytes aes_ctr(const Aes128& aes, const std::uint8_t counter_block[16],
              ByteSpan in) {
  Bytes out(in.size());
  aes_ctr_xcrypt(aes, counter_block, in, out);
  return out;
}

std::array<std::uint8_t, 16> aes_cbc_mac(const Aes128& aes, ByteSpan data) {
  std::array<std::uint8_t, 16> x{};
  const std::size_t blocks = data.size() / 16;
  for (std::size_t b = 0; b < blocks; ++b) {
    for (int i = 0; i < 16; ++i) x[i] ^= data[16 * b + i];
    aes.encrypt_block(x.data(), x.data());
  }
  return x;
}

Ff1Binary::Ff1Binary(ByteSpan key16, unsigned bits)
    : aes_(key16), u_(bits / 2), v_(bits - bits / 2) {
  assert(bits >= 2 && bits <= 32);
  // P = [1] ‖ [2] ‖ [1] ‖ [radix]^3 ‖ [10] ‖ [u mod 256] ‖ [n]^4 ‖ [t]^4.
  p_mac_ = {1, 2, 1, 0, 0, 2, 10, static_cast<std::uint8_t>(u_)};
  store_be32(p_mac_.data() + 8, bits);
  aes_.encrypt_block(p_mac_.data(), p_mac_.data());
}

std::uint32_t Ff1Binary::encrypt(std::uint32_t x) const {
  // b = ceil(v / 8) bytes carry NUM(B); d = 8, so y is R's first 8 bytes.
  const unsigned b = (v_ + 7) / 8;
  std::uint32_t a = (x >> v_) & ((1u << u_) - 1);
  std::uint32_t bb = x & ((1u << v_) - 1);
  for (unsigned i = 0; i < 10; ++i) {
    // Q = [0]^(15-b) ‖ [i] ‖ [NUM(B)]^b; R = CIPH_K(CIPH_K(P) ⊕ Q).
    std::uint8_t r[16];
    std::memcpy(r, p_mac_.data(), 16);
    r[15 - b] ^= static_cast<std::uint8_t>(i);
    for (unsigned j = 0; j < b; ++j)
      r[15 - j] ^= static_cast<std::uint8_t>(bb >> (8 * j));
    aes_.encrypt_block(r, r);
    const unsigned m = (i % 2 == 0) ? u_ : v_;
    const std::uint64_t c = (a + load_be64(r)) & ((1ull << m) - 1);
    a = bb;
    bb = static_cast<std::uint32_t>(c);
  }
  return (a << v_) | bb;
}

AesCmac::AesCmac(ByteSpan key16, Aes128::Backend backend)
    : aes_(key16, backend) {
  std::array<std::uint8_t, 16> l{};
  aes_.encrypt_block(l.data(), l.data());
  k1_ = l;
  gf128_double(k1_);
  k2_ = k1_;
  gf128_double(k2_);
}

const char* AesCmac::backend() const { return aes_.backend(); }

std::array<std::uint8_t, 16> AesCmac::mac(ByteSpan data) const {
  return mac2(data, {});
}

namespace {
// Streaming CMAC state: holds back up to one block so the final block can
// receive the RFC 4493 subkey treatment. Blocks are processed straight from
// the input spans (no concatenation buffer).
struct CmacStream {
  const Aes128& aes;
  std::array<std::uint8_t, 16> x{};
  std::uint8_t buf[16];
  std::size_t buf_len = 0;
  bool any = false;

  explicit CmacStream(const Aes128& a) : aes(a) {}

  void absorb_block(const std::uint8_t* p) {
    for (int i = 0; i < 16; ++i) x[i] ^= p[i];
    aes.encrypt_block(x.data(), x.data());
  }

  void update(ByteSpan data) {
    if (data.empty()) return;
    any = true;
    std::size_t off = 0;
    // Flush a previously held-back full block only once new data proves it
    // is not the final one.
    if (buf_len == 16) {
      absorb_block(buf);
      buf_len = 0;
    }
    if (buf_len > 0) {
      const std::size_t take = std::min(data.size(), 16 - buf_len);
      std::memcpy(buf + buf_len, data.data(), take);
      buf_len += take;
      off = take;
      if (buf_len == 16 && off < data.size()) {
        absorb_block(buf);
        buf_len = 0;
      }
    }
    // Bulk full blocks, keeping at least one byte for the buffer. The
    // fused kernel holds AES round keys in registers across the chain.
    if (off + 16 < data.size()) {
      const std::size_t bulk = (data.size() - off - 1) / 16;
      aes.cbc_mac_absorb(x.data(), data.data() + off, bulk);
      off += 16 * bulk;
    }
    if (off < data.size()) {
      std::memcpy(buf, data.data() + off, data.size() - off);
      buf_len = data.size() - off;
    }
  }

  std::array<std::uint8_t, 16> finish(
      const std::array<std::uint8_t, 16>& k1,
      const std::array<std::uint8_t, 16>& k2) {
    std::uint8_t block[16] = {};
    const std::array<std::uint8_t, 16>* subkey;
    if (any && buf_len == 16) {
      std::memcpy(block, buf, 16);
      subkey = &k1;
    } else {
      std::memcpy(block, buf, buf_len);
      block[buf_len] = 0x80;
      subkey = &k2;
    }
    for (int i = 0; i < 16; ++i)
      x[i] = static_cast<std::uint8_t>(x[i] ^ block[i] ^ (*subkey)[i]);
    aes.encrypt_block(x.data(), x.data());
    return x;
  }
};
}  // namespace

std::array<std::uint8_t, 16> AesCmac::mac2(ByteSpan a, ByteSpan b) const {
  CmacStream s(aes_);
  s.update(a);
  s.update(b);
  return s.finish(k1_, k2_);
}

bool AesCmac::verify(ByteSpan data, ByteSpan tag) const {
  if (tag.empty() || tag.size() > 16) return false;
  const auto full = mac(data);
  return ct_equal(ByteSpan(full.data(), tag.size()), tag);
}

// ---- Multi-lane CMAC --------------------------------------------------------

namespace {

constexpr std::size_t kCmacLanesMax = 16;

/// Per-lane extent walk over one CMAC input a ‖ b, decomposed into at most
/// four contiguous block runs: [a's full blocks][one staged straddle
/// block][b's full blocks][one staged final block]. The RFC 4493 subkey
/// treatment is folded into the staged final block, so absorbing the
/// extents in order with the raw CBC kernel IS the full CMAC. No default
/// member initializers: walks live in a per-call stack array, and init()
/// sets every field a lane reads.
struct CmacLaneWalk {
  const Aes128* aes;
  std::array<std::uint8_t, 16> x;
  const std::uint8_t* ext_ptr[4];
  std::size_t ext_blocks[4];
  int ext;
  std::size_t off;
  std::uint8_t straddle[16];
  std::uint8_t final_blk[16];

  void init(const CmacJob& job, const Aes128& lane_aes,
            const std::array<std::uint8_t, 16>& k1,
            const std::array<std::uint8_t, 16>& k2) {
    aes = &lane_aes;
    x = {};
    ext = 0;
    off = 0;
    const ByteSpan a = job.a;
    const ByteSpan b = job.b;
    const std::size_t total = a.size() + b.size();
    const std::size_t full = total == 0 ? 0 : (total - 1) / 16;

    // a's own full blocks (capped so the final block is never consumed
    // early).
    const std::size_t a_full = std::min(a.size() / 16, full);
    ext_ptr[0] = a.data();
    ext_blocks[0] = a_full;
    std::size_t consumed = 16 * a_full;

    ext_ptr[1] = straddle;
    ext_blocks[1] = 0;
    if (consumed < 16 * full && consumed < a.size()) {
      // One straddle block mixing a's tail with b's head.
      const std::size_t a_rem = a.size() - consumed;
      std::memcpy(straddle, a.data() + consumed, a_rem);
      std::memcpy(straddle + a_rem, b.data(), 16 - a_rem);
      ext_blocks[1] = 1;
      consumed += 16;
    }
    ext_ptr[2] = b.data();
    ext_blocks[2] = 0;
    if (consumed < 16 * full) {
      // b's remaining full blocks, read in place.
      ext_ptr[2] = b.data() + (consumed - a.size());
      ext_blocks[2] = full - consumed / 16;
    }
    // Final block: complete blocks XOR K1, padded blocks XOR K2.
    const std::size_t pos = 16 * full;
    const std::size_t fin = total - pos;  // 0 (empty input) or 1..16
    std::uint8_t raw[16] = {};
    const std::size_t from_a =
        pos < a.size() ? std::min(fin, a.size() - pos) : 0;
    if (from_a > 0) std::memcpy(raw, a.data() + pos, from_a);
    if (fin > from_a)
      std::memcpy(raw + from_a, b.data() + (pos + from_a - a.size()),
                  fin - from_a);
    const bool complete = total > 0 && fin == 16;
    if (!complete) raw[fin] = 0x80;
    const std::array<std::uint8_t, 16>& sub = complete ? k1 : k2;
    for (int i = 0; i < 16; ++i)
      final_blk[i] = static_cast<std::uint8_t>(raw[i] ^ sub[i]);
    ext_ptr[3] = final_blk;
    ext_blocks[3] = 1;
    skip_empty();
  }

  void skip_empty() {
    while (ext < 4 && off == ext_blocks[ext]) {
      ++ext;
      off = 0;
    }
  }
  /// Advances past `blocks` absorbed blocks; true once the lane is done.
  bool advance(std::size_t blocks) {
    off += blocks;
    skip_empty();
    return ext == 4;
  }
  std::size_t run() const { return ext_blocks[ext] - off; }
  const std::uint8_t* ptr() const { return ext_ptr[ext] + 16 * off; }

  /// Absorbs what is left of the lane on its key's 1-chain kernel.
  void finish_serial() {
    for (; ext < 4; ++ext, off = 0)
      if (off < ext_blocks[ext])
        aes->cbc_mac_absorb(x.data(), ptr(), run());
  }
};

}  // namespace

void aes_cmac_many(std::span<const CmacJob> jobs,
                   std::array<std::uint8_t, 16>* tags) {
  using Backend = Aes128::Backend;
  std::size_t base = 0;
  while (base < jobs.size()) {
    // Scan the next run of hardware-backed keys (stopping at any soft-tier
    // key) and track the narrowest tier: the whole group must use a kernel
    // every lane's key supports. The aesni tier carries 8 chains at most.
    std::size_t n = 0;
    Backend group = Backend::vaes_avx512;
    while (n < kCmacLanesMax && base + n < jobs.size()) {
      const Backend t = jobs[base + n].key->aes_.tier();
      if (t == Backend::soft) break;
      group = std::min(group, t);
      ++n;
    }
    if (group < Backend::avx2) n = std::min(n, std::size_t{8});
    if (n < kCmacMinLanes) {
      // A soft-tier key, or too few chains to fill an interleaved pass:
      // the serial chain.
      const std::size_t m = std::max(n, std::size_t{1});
      for (std::size_t j = 0; j < m; ++j)
        tags[base + j] = jobs[base + j].key->mac2(jobs[base + j].a,
                                                  jobs[base + j].b);
      base += m;
      continue;
    }

    CmacLaneWalk walk[kCmacLanesMax];
    std::uint8_t live[kCmacLanesMax];  // lanes still absorbing, in order
    for (std::size_t j = 0; j < n; ++j) {
      const AesCmac& key = *jobs[base + j].key;
      walk[j].init(jobs[base + j], key.aes_, key.k1_, key.k2_);
      live[j] = static_cast<std::uint8_t>(j);
    }
    std::size_t nlive = n;

    // Lockstep passes: each absorbs the longest run every live lane can
    // sustain contiguously, 16 chains wide while more than 8 live on a
    // wide tier, else 8 wide. Padding lanes duplicate the first live lane
    // into a scratch state. Once fewer than kCmacMinLanes remain, the
    // stragglers finish one after another instead of being padded.
    while (nlive >= kCmacMinLanes) {
      const std::size_t width =
          (nlive > 8 && group >= Backend::avx2) ? std::size_t{16}
                                                : std::size_t{8};
      std::size_t run = walk[live[0]].run();
      for (std::size_t k = 1; k < nlive; ++k)
        run = std::min(run, walk[live[k]].run());

      const std::uint8_t* rk[kCmacLanesMax];
      std::uint8_t* xs[kCmacLanesMax];
      const std::uint8_t* dp[kCmacLanesMax];
      std::uint8_t dummy_x[16];
      std::memcpy(dummy_x, walk[live[0]].x.data(), 16);
      for (std::size_t l = 0; l < width; ++l) {
        CmacLaneWalk& w = walk[live[l < nlive ? l : 0]];
        rk[l] = w.aes->round_key_bytes();
        xs[l] = l < nlive ? w.x.data() : dummy_x;
        dp[l] = w.ptr();
      }
      if (width == 16) {
        if (group == Backend::vaes_avx512)
          detail::vaes_cbcmac_absorb_16(rk, xs, dp, run);
        else
          detail::avx2_cbcmac_absorb_16(rk, xs, dp, run);
      } else {
        detail::aesni_cbcmac_absorb_8(rk, xs, dp, run);
      }
      std::size_t keep = 0;
      for (std::size_t k = 0; k < nlive; ++k)
        if (!walk[live[k]].advance(run)) live[keep++] = live[k];
      nlive = keep;
    }
    for (std::size_t k = 0; k < nlive; ++k) walk[live[k]].finish_serial();
    for (std::size_t j = 0; j < n; ++j) tags[base + j] = walk[j].x;
    base += n;
  }
}

}  // namespace apna::crypto
