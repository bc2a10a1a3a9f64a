// End-to-end encrypted sessions (§IV-D1/2).
//
// "two hosts first generate a shared symmetric key for their communication
// session. This key is then used to encrypt all traffic that belongs to
// this communication session." The key is derived ONLY from the two
// EphID key pairs — never from long-term keys — which is exactly what gives
// perfect forward secrecy (§VI-B): compromise of K-_AS or K-_H reveals
// nothing about past session keys.
//
// Wire framing of one encrypted data unit:  u64 counter ‖ AEAD(ct ‖ tag).
// Direction separation comes from distinct send/recv keys, and a sliding
// replay window rejects duplicated frames (§VIII-D). seal() builds the
// frame in one buffer and open() hands back the AEAD's plaintext buffer:
// one heap allocation each (pinned by alloc_count_test).
#pragma once

#include <cstdint>
#include <memory>

#include "core/ids.h"
#include "core/keys.h"
#include "core/replay.h"
#include "crypto/aead.h"
#include "util/result.h"

namespace apna::core {

class Session {
 public:
  /// Derives the session key k_{EaEb} between `my` (private half held
  /// locally) and the peer's certificate public key, bound to the two
  /// EphIDs. Both sides derive identical material; `initiator` selects
  /// which derived key is used for sending vs receiving.
  static Session derive(const EphIdKeyPair& my, const EphId& my_ephid,
                        const crypto::X25519PublicKey& peer_dh_pub,
                        const EphId& peer_ephid, crypto::AeadSuite suite,
                        bool initiator);

  /// Like derive(), but rejects peer public keys in the small subgroup
  /// (all-zero X25519 output, RFC 7748 §6.1) — a malicious peer must not be
  /// able to force a predictable session key. Handshakes use this form.
  static Result<Session> derive_checked(
      const EphIdKeyPair& my, const EphId& my_ephid,
      const crypto::X25519PublicKey& peer_dh_pub, const EphId& peer_ephid,
      crypto::AeadSuite suite, bool initiator);

  /// Encrypts one application payload into a wire frame.
  Bytes seal(ByteSpan plaintext);

  /// Authenticates, replay-checks and decrypts one frame.
  Result<Bytes> open(ByteSpan frame);

  crypto::AeadSuite suite() const { return suite_; }
  const EphId& my_ephid() const { return my_ephid_; }
  const EphId& peer_ephid() const { return peer_ephid_; }
  std::uint64_t frames_sent() const { return send_counter_; }

  Session(Session&&) = default;
  Session& operator=(Session&&) = default;

 private:
  Session() = default;

  crypto::AeadSuite suite_ = crypto::AeadSuite::chacha20_poly1305;
  std::unique_ptr<crypto::Aead> send_;
  std::unique_ptr<crypto::Aead> recv_;
  std::uint64_t send_counter_ = 0;
  ReplayWindow recv_window_{1024};
  EphId my_ephid_;
  EphId peer_ephid_;
};

}  // namespace apna::core
