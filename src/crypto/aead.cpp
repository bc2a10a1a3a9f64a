#include "crypto/aead.h"

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

namespace {

class ChaChaAead final : public Aead {
 public:
  explicit ChaChaAead(ByteSpan key32) : impl_(key32) {}
  AeadSuite suite() const override { return AeadSuite::chacha20_poly1305; }
  Bytes seal(ByteSpan n, ByteSpan aad, ByteSpan pt) const override {
    return impl_.seal(n, aad, pt);
  }
  std::optional<Bytes> open(ByteSpan n, ByteSpan aad,
                            ByteSpan ct) const override {
    return impl_.open(n, aad, ct);
  }

 private:
  ChaCha20Poly1305 impl_;
};

// Encrypt-then-MAC generic composition [Bellare-Namprempre]: AES-CTR under
// k_enc, then CMAC over nonce ‖ aad ‖ ciphertext under an independent k_mac.
class EtmAead final : public Aead {
 public:
  explicit EtmAead(ByteSpan key32)
      : enc_(derive_key16(key32, "apna-aead-etm-enc")),
        mac_(derive_key16(key32, "apna-aead-etm-mac")) {}

  AeadSuite suite() const override { return AeadSuite::aes128_ctr_cmac; }

  Bytes seal(ByteSpan nonce, ByteSpan aad, ByteSpan pt) const override {
    std::uint8_t ctr[16] = {};
    std::memcpy(ctr, nonce.data(), std::min<std::size_t>(nonce.size(), 12));
    Bytes out(pt.size() + kTagSize);
    aes_ctr_xcrypt(enc_, ctr, pt, MutByteSpan(out.data(), pt.size()));
    const auto tag =
        mac_.mac2(mac_preamble(nonce, aad), ByteSpan(out.data(), pt.size()));
    std::memcpy(out.data() + pt.size(), tag.data(), kTagSize);
    return out;
  }

  std::optional<Bytes> open(ByteSpan nonce, ByteSpan aad,
                            ByteSpan ct_tag) const override {
    if (ct_tag.size() < kTagSize) return std::nullopt;
    const std::size_t ct_len = ct_tag.size() - kTagSize;
    ByteSpan ct = ct_tag.subspan(0, ct_len);
    const auto tag = mac_.mac2(mac_preamble(nonce, aad), ct);
    if (!ct_equal(ByteSpan(tag.data(), kTagSize), ct_tag.subspan(ct_len)))
      return std::nullopt;
    std::uint8_t ctr[16] = {};
    std::memcpy(ctr, nonce.data(), std::min<std::size_t>(nonce.size(), 12));
    Bytes pt(ct_len);
    aes_ctr_xcrypt(enc_, ctr, ct, pt);
    return pt;
  }

 private:
  // Length-prefixed preamble makes (nonce, aad, ct) parsing unambiguous.
  static Bytes mac_preamble(ByteSpan nonce, ByteSpan aad) {
    Bytes p;
    p.reserve(nonce.size() + aad.size() + 8);
    std::uint8_t lens[8];
    store_be32(lens, static_cast<std::uint32_t>(nonce.size()));
    store_be32(lens + 4, static_cast<std::uint32_t>(aad.size()));
    append(p, ByteSpan(lens, 8));
    append(p, nonce);
    append(p, aad);
    return p;
  }

  Aes128 enc_;
  AesCmac mac_;
};

}  // namespace

std::unique_ptr<Aead> Aead::create(AeadSuite suite, ByteSpan key32) {
  assert(key32.size() == 32);
  switch (suite) {
    case AeadSuite::chacha20_poly1305:
      return std::make_unique<ChaChaAead>(key32);
    case AeadSuite::aes128_ctr_cmac:
      return std::make_unique<EtmAead>(key32);
  }
  return nullptr;
}

}  // namespace apna::crypto
