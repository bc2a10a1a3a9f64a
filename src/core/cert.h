// Short-lived EphID certificates (§IV-C, Fig 3):
//
//   C_EphID = { EphID, ExpTime, K+_EphID, AID_AS, EphID_aa } signed K-_AS
//
// The certificate binds an EphID to its (host-generated) public keys, names
// the issuing AS, and carries the accountability agent's EphID so a peer
// can address shutoff requests (§IV-E). Receive-only EphIDs (§VII-A) and
// AS-service EphIDs are marked by flags.
#pragma once

#include <cstdint>

#include "core/ids.h"
#include "core/keys.h"
#include "crypto/ed25519.h"
#include "util/result.h"
#include "wire/codec.h"

namespace apna::wire {
class MsgWriter;  // wire/msg_codec.h — pooled span-based encoder
}

namespace apna::core {

enum CertFlags : std::uint8_t {
  kCertReceiveOnly = 0x01,  // never valid as a source EphID (§VII-A)
  kCertService = 0x02,      // an AS-internal service endpoint (MS, DNS, AA)
};

struct EphIdCertificate {
  EphId ephid;
  ExpTime exp_time = 0;
  EphIdPublicKeys pub;    // K+_EphID (DH + signature halves)
  Aid aid = 0;            // issuing AS
  EphId aa_ephid;         // accountability agent of the issuing AS
  std::uint8_t flags = 0;
  crypto::Ed25519Signature sig{};  // by K-_AS

  bool receive_only() const { return (flags & kCertReceiveOnly) != 0; }
  bool service() const { return (flags & kCertService) != 0; }

  /// Signs in place with the AS's signing key.
  void sign_with(const crypto::Ed25519KeyPair& as_key);

  /// Signature + expiry check against the claimed issuer key.
  /// Errc::bad_signature / Errc::expired on failure.
  Result<void> verify(const crypto::Ed25519PublicKey& as_pub,
                      ExpTime now) const;

  /// Wire form: the to-be-signed fields followed by the signature.
  void encode(wire::MsgWriter& w) const;
  static Result<EphIdCertificate> decode(wire::Reader& r);
  /// Appends the to-be-signed bytes (every field except the signature) to
  /// a pooled scratch writer for sign/verify call sites.
  void tbs_into(wire::MsgWriter& w) const;

  bool operator==(const EphIdCertificate&) const = default;
};

}  // namespace apna::core
