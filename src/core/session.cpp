#include "core/session.h"

#include "crypto/hmac.h"
#include "crypto/x25519.h"
#include "wire/codec.h"

namespace apna::core {

namespace {
// Orders the two EphIDs so both sides build the same KDF salt.
Bytes canonical_pair(const EphId& a, const EphId& b) {
  const bool a_first =
      std::lexicographical_compare(a.bytes.begin(), a.bytes.end(),
                                   b.bytes.begin(), b.bytes.end());
  Bytes salt;
  salt.reserve(32);
  const EphId& first = a_first ? a : b;
  const EphId& second = a_first ? b : a;
  append(salt, ByteSpan(first.bytes.data(), 16));
  append(salt, ByteSpan(second.bytes.data(), 16));
  return salt;
}
}  // namespace

Result<Session> Session::derive_checked(
    const EphIdKeyPair& my, const EphId& my_ephid,
    const crypto::X25519PublicKey& peer_dh_pub, const EphId& peer_ephid,
    crypto::AeadSuite suite, bool initiator) {
  const auto dh = crypto::x25519_shared(my.dh_priv, peer_dh_pub);
  std::uint8_t acc = 0;
  for (auto b : dh) acc |= b;
  if (acc == 0)
    return Result<Session>(Errc::bad_certificate,
                           "peer DH key is in the small subgroup");
  return derive(my, my_ephid, peer_dh_pub, peer_ephid, suite, initiator);
}

Session Session::derive(const EphIdKeyPair& my, const EphId& my_ephid,
                        const crypto::X25519PublicKey& peer_dh_pub,
                        const EphId& peer_ephid, crypto::AeadSuite suite,
                        bool initiator) {
  const auto dh = crypto::x25519_shared(my.dh_priv, peer_dh_pub);
  const Bytes salt = canonical_pair(my_ephid, peer_ephid);
  const auto prk = crypto::hkdf_extract(salt, ByteSpan(dh.data(), dh.size()));

  const Bytes k_i2r = crypto::hkdf_expand(prk, to_bytes("apna-sess-i2r"), 32);
  const Bytes k_r2i = crypto::hkdf_expand(prk, to_bytes("apna-sess-r2i"), 32);

  Session s;
  s.suite_ = suite;
  s.my_ephid_ = my_ephid;
  s.peer_ephid_ = peer_ephid;
  s.send_ = crypto::Aead::create(suite, initiator ? k_i2r : k_r2i);
  s.recv_ = crypto::Aead::create(suite, initiator ? k_r2i : k_i2r);
  return s;
}

Bytes Session::seal(ByteSpan plaintext) {
  const std::uint64_t counter = send_counter_++;
  std::uint8_t nonce[12] = {};
  store_be64(nonce + 4, counter);
  Bytes frame(8 + plaintext.size() + crypto::Aead::kTagSize);
  store_be64(frame.data(), counter);
  send_->seal_into(ByteSpan(nonce, 12), {}, plaintext,
                   MutByteSpan(frame).subspan(8));
  return frame;
}

Result<Bytes> Session::open(ByteSpan frame) {
  wire::Reader r(frame);
  auto counter = r.u64();
  if (!counter) return counter.error();
  std::uint8_t nonce[12] = {};
  store_be64(nonce + 4, *counter);
  auto pt = recv_->open(ByteSpan(nonce, 12), {}, r.rest());
  if (!pt) return Result<Bytes>(Errc::decrypt_failed, "session frame rejected");
  // Replay check AFTER authentication so attackers cannot poison the window.
  if (auto fresh = recv_window_.accept(*counter); !fresh) return fresh.error();
  return std::move(*pt);
}

}  // namespace apna::core
