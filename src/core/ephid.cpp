#include "core/ephid.h"

#include <algorithm>
#include <cstring>

#include "crypto/hmac.h"

namespace apna::core {

EphIdCodec::EphIdCodec(ByteSpan ka16)
    : enc_(crypto::derive_key16(ka16, "apna-ka-prime")),
      mac_(crypto::derive_key16(ka16, "apna-ka-double-prime")),
      iv_(crypto::derive_key16(ka16, "apna-ka-iv")) {}

EphId EphIdCodec::issue_with_iv(Hid hid, ExpTime exp_time,
                                std::uint32_t iv) const {
  // Counter block: IV(4) ‖ 0^12 (Fig 6 top-left).
  std::uint8_t counter[16] = {};
  store_be32(counter, iv);

  // Plaintext block: HID(4) ‖ ExpTime(4) ‖ 0^8, one AES operation.
  std::uint8_t keystream[16];
  enc_.encrypt_block(counter, keystream);
  std::uint8_t ct[8];
  std::uint8_t pt[8];
  store_be32(pt, hid);
  store_be32(pt + 4, exp_time);
  for (int i = 0; i < 8; ++i)
    ct[i] = static_cast<std::uint8_t>(pt[i] ^ keystream[i]);

  // Tag input: CT(8) ‖ IV(4) ‖ 0^4 — one fixed-length block (footnote 3).
  std::uint8_t mac_in[16] = {};
  std::memcpy(mac_in, ct, 8);
  store_be32(mac_in + 8, iv);
  std::uint8_t tag[16];
  mac_.encrypt_block(mac_in, tag);  // single-block CBC-MAC == raw AES

  EphId out;
  std::memcpy(out.bytes.data() + kCtOffset, ct, 8);
  store_be32(out.bytes.data() + kIvOffset, iv);
  std::memcpy(out.bytes.data() + kMacOffset, tag, 4);
  return out;
}

EphId EphIdCodec::issue(Hid hid, ExpTime exp_time, crypto::Rng& rng) const {
  return issue_with_iv(hid, exp_time, rng.next_u32());
}

EphId EphIdCodec::issue_counted(Hid hid, ExpTime exp_time,
                                std::uint32_t counter) const {
  return issue_with_iv(hid, exp_time, iv_.encrypt(counter));
}

Result<EphIdPlain> EphIdCodec::open(const EphId& ephid) const {
  const std::uint8_t* ct = ephid.bytes.data() + kCtOffset;
  const std::uint32_t iv = load_be32(ephid.bytes.data() + kIvOffset);

  // Verify the tag before touching the plaintext (Encrypt-then-MAC).
  std::uint8_t mac_in[16] = {};
  std::memcpy(mac_in, ct, 8);
  store_be32(mac_in + 8, iv);
  std::uint8_t tag[16];
  mac_.encrypt_block(mac_in, tag);
  if (!ct_equal(ByteSpan(tag, 4), ByteSpan(ephid.bytes.data() + kMacOffset, 4)))
    return Result<EphIdPlain>(Errc::decrypt_failed, "EphID tag mismatch");

  std::uint8_t counter[16] = {};
  store_be32(counter, iv);
  std::uint8_t keystream[16];
  enc_.encrypt_block(counter, keystream);

  std::uint8_t pt[8];
  for (int i = 0; i < 8; ++i)
    pt[i] = static_cast<std::uint8_t>(ct[i] ^ keystream[i]);

  EphIdPlain plain;
  plain.hid = load_be32(pt);
  plain.exp_time = load_be32(pt + 4);
  return plain;
}

void EphIdCodec::open_batch_gather(const std::uint8_t* const* ephids16,
                                   std::size_t n, EphIdPlain* plain,
                                   std::uint8_t* ok) const {
  // Gather/scatter in fixed chunks so the working buffers stay on the stack
  // and encrypt_blocks sees enough independent blocks to pipeline.
  constexpr std::size_t kChunk = 32;
  std::uint8_t in[kChunk * 16];
  std::uint8_t out[kChunk * 16];

  for (std::size_t base = 0; base < n; base += kChunk) {
    const std::size_t m = std::min(kChunk, n - base);

    // Pass 1 — tag check (Encrypt-then-MAC: verify before decrypting).
    // Single-block CBC-MAC == one AES call, so the whole chunk's tags are
    // one gathered encrypt_blocks invocation.
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint8_t* bytes = ephids16[base + i];
      std::uint8_t* mac_in = in + 16 * i;
      std::memset(mac_in, 0, 16);
      std::memcpy(mac_in, bytes + kCtOffset, 8);
      std::memcpy(mac_in + 8, bytes + kIvOffset, 4);  // IV, already BE
    }
    mac_.encrypt_blocks(in, out, m);
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint8_t* bytes = ephids16[base + i];
      ok[base + i] = ct_equal(ByteSpan(out + 16 * i, 4),
                              ByteSpan(bytes + kMacOffset, 4))
                         ? 1
                         : 0;
    }

    // Pass 2 — CTR keystream for the whole chunk (computed branchlessly for
    // failed tags too; their plaintext is simply never exposed).
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint8_t* bytes = ephids16[base + i];
      std::uint8_t* counter = in + 16 * i;
      std::memset(counter, 0, 16);
      std::memcpy(counter, bytes + kIvOffset, 4);
    }
    enc_.encrypt_blocks(in, out, m);
    for (std::size_t i = 0; i < m; ++i) {
      plain[base + i] = EphIdPlain{};
      if (!ok[base + i]) continue;
      const std::uint8_t* ct = ephids16[base + i] + kCtOffset;
      const std::uint8_t* ks = out + 16 * i;
      std::uint8_t pt[8];
      for (int b = 0; b < 8; ++b)
        pt[b] = static_cast<std::uint8_t>(ct[b] ^ ks[b]);
      plain[base + i].hid = load_be32(pt);
      plain[base + i].exp_time = load_be32(pt + 4);
    }
  }
}

}  // namespace apna::core
