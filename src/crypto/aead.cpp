#include "crypto/aead.h"

#include <algorithm>
#include <cassert>

#include "crypto/chacha20.h"
#include "crypto/hmac.h"
#include "crypto/modes.h"

namespace apna::crypto {

const char* aead_suite_name(AeadSuite s) {
  switch (s) {
    case AeadSuite::chacha20_poly1305: return "chacha20-poly1305";
    case AeadSuite::aes128_ctr_cmac: return "aes128-ctr-cmac";
  }
  return "unknown";
}

Bytes Aead::seal(ByteSpan nonce12, ByteSpan aad, ByteSpan plaintext) const {
  Bytes out(plaintext.size() + kTagSize);
  seal_into(nonce12, aad, plaintext, out);
  return out;
}

std::optional<Bytes> Aead::open(ByteSpan nonce12, ByteSpan aad,
                                ByteSpan ciphertext_and_tag) const {
  if (ciphertext_and_tag.size() < kTagSize) return std::nullopt;
  Bytes pt(ciphertext_and_tag.size() - kTagSize);
  if (!open_into(nonce12, aad, ciphertext_and_tag, pt)) return std::nullopt;
  return pt;
}

namespace {

// Encrypt-then-MAC generic composition [Bellare-Namprempre]: AES-CTR under
// k_enc, then CMAC over nonce ‖ aad ‖ ciphertext under an independent k_mac.
class EtmAead final : public Aead {
 public:
  explicit EtmAead(ByteSpan key32)
      : enc_(derive_key16(key32, "apna-aead-etm-enc")),
        mac_(derive_key16(key32, "apna-aead-etm-mac")) {}

  AeadSuite suite() const override { return AeadSuite::aes128_ctr_cmac; }

  void seal_into(ByteSpan nonce, ByteSpan aad, ByteSpan pt,
                 MutByteSpan out) const override {
    const MutByteSpan ct = out.first(pt.size());
    xcrypt(nonce, pt, ct);
    const auto tag = tag_of(nonce, aad, ct);
    std::memcpy(out.data() + pt.size(), tag.data(), kTagSize);
  }

  bool open_into(ByteSpan nonce, ByteSpan aad, ByteSpan ct_tag,
                 MutByteSpan pt_out) const override {
    if (ct_tag.size() < kTagSize) return false;
    const std::size_t ct_len = ct_tag.size() - kTagSize;
    const ByteSpan ct = ct_tag.first(ct_len);
    if (!ct_equal(tag_of(nonce, aad, ct), ct_tag.subspan(ct_len)))
      return false;
    xcrypt(nonce, ct, pt_out);
    return true;
  }

 private:
  void xcrypt(ByteSpan nonce, ByteSpan in, MutByteSpan out) const {
    std::uint8_t ctr[16] = {};
    std::memcpy(ctr, nonce.data(), std::min<std::size_t>(nonce.size(), 12));
    aes_ctr_xcrypt(enc_, ctr, in, out);
  }

  // CMAC over the length-prefixed preamble lens ‖ nonce ‖ aad, then the
  // ciphertext; the prefix makes (nonce, aad, ct) parsing unambiguous. The
  // preamble is built on the stack unless the aad is unusually long.
  std::array<std::uint8_t, 16> tag_of(ByteSpan nonce, ByteSpan aad,
                                      ByteSpan ct) const {
    const std::size_t n = 8 + nonce.size() + aad.size();
    std::uint8_t stack[128];
    Bytes heap;
    std::uint8_t* p = stack;
    if (n > sizeof stack) {
      heap.resize(n);
      p = heap.data();
    }
    store_be32(p, static_cast<std::uint32_t>(nonce.size()));
    store_be32(p + 4, static_cast<std::uint32_t>(aad.size()));
    std::copy(nonce.begin(), nonce.end(), p + 8);
    std::copy(aad.begin(), aad.end(), p + 8 + nonce.size());
    return mac_.mac2(ByteSpan(p, n), ct);
  }

  Aes128 enc_;
  AesCmac mac_;
};

}  // namespace

std::unique_ptr<Aead> Aead::create(AeadSuite suite, ByteSpan key32) {
  assert(key32.size() == 32);
  switch (suite) {
    case AeadSuite::chacha20_poly1305:
      return std::make_unique<ChaCha20Poly1305>(key32);
    case AeadSuite::aes128_ctr_cmac:
      return std::make_unique<EtmAead>(key32);
  }
  return nullptr;
}

}  // namespace apna::crypto
