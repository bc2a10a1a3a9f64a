// Control-plane message formats.
//
// Everything above the APNA header is one of these messages; each maps to a
// protocol figure in the paper:
//   Bootstrap{Request,Response}   — Fig 2 (host ↔ Registry Service)
//   EphIdRequest/Response         — Fig 3 (host ↔ Management Service),
//                                   carried AEAD-encrypted under kHA
//   Handshake{Init,Response}      — §IV-D1 / §VII-A connection establishment
//   DataFrame                     — §IV-D2 encrypted communication
//   Dns{Query,Response}           — §VII-A (run over an encrypted session)
//   ShutoffRequest                — Fig 5 (destination host → source AA)
//   IcmpMessage                   — §VIII-B network feedback
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "core/cert.h"
#include "core/ids.h"
#include "core/keys.h"
#include "crypto/aead.h"
#include "util/result.h"
#include "wire/codec.h"
#include "wire/msg_codec.h"

namespace apna::core {

// Every message has exactly one codec: encode(wire::MsgWriter&) appends the
// wire form into pooled storage (usually a PacketWriter's payload region),
// and decode(wire::Reader&) reads it in place. wire::MsgReader derives from
// wire::Reader, so packet payloads and journal/snapshot replay share the
// one decoder; decode_msg<M> is the strict whole-buffer entry point.
// tests/codec_golden_test.cpp pins every wire form to checked-in bytes.

// ---- Bootstrap (Fig 2) ------------------------------------------------------

struct BootstrapRequest {
  std::uint32_t subscriber_id = 0;   // who is authenticating
  Bytes credential;                  // opaque proof (e.g. password digest)
  crypto::X25519PublicKey host_pub{};  // K+_H, learned by the AS (§IV-B)

  void encode(wire::MsgWriter& w) const;
  static Result<BootstrapRequest> decode(wire::Reader& r);
  bool operator==(const BootstrapRequest&) const = default;
};

/// id_info = {EphID_ctrl, ExpTime} signed with K-_AS, plus the service
/// certificates the host needs (MS, DNS) and AS public parameters.
struct BootstrapResponse {
  Hid hid = 0;
  EphId ctrl_ephid;
  ExpTime ctrl_exp_time = 0;
  crypto::Ed25519Signature id_info_sig{};  // over (ctrl_ephid ‖ exp ‖ hid)
  EphIdCertificate ms_cert;
  EphIdCertificate dns_cert;
  Aid aid = 0;
  EphId aa_ephid;  // accountability agent endpoint for THIS AS

  /// The signed id_info bytes.
  Bytes id_info_tbs() const;

  void encode(wire::MsgWriter& w) const;
  static Result<BootstrapResponse> decode(wire::Reader& r);
  bool operator==(const BootstrapResponse&) const = default;
};

// ---- EphID issuance (Fig 3) -------------------------------------------------

/// Lifetime classes (§VIII-G1: "an AS may specify three categories ... to
/// accommodate diverse nature of flow duration time").
enum class EphIdLifetime : std::uint8_t {
  short_term = 0,   // e.g. 15 min — covers 98% of flows [11]
  medium_term = 1,  // e.g. 2 h
  long_term = 2,    // e.g. 24 h — DNS-published / control EphIDs
};

enum EphIdRequestFlags : std::uint8_t {
  kRequestReceiveOnly = 0x01,  // §VII-A receive-only EphID
};

struct EphIdRequest {
  EphIdPublicKeys ephid_pub;  // K+_EphID generated by the host
  std::uint8_t flags = 0;
  EphIdLifetime lifetime = EphIdLifetime::short_term;
  /// Proof of possession: the host signs pop_tbs() with the NEW EphID's
  /// Ed25519 secret, so the MS never certifies a public key whose private
  /// half the requester does not hold (certify-then-abuse hardening of the
  /// Fig 3 exchange). Deliberately NOT bound to the control EphID or AS:
  /// the §VII-B NAT-AP proxies inner host requests under its own control
  /// channel, and the inner host's PoP must survive that re-wrapping.
  crypto::Ed25519Signature pop_sig{};

  /// The bytes pop_sig covers: a domain separator ‖ dh ‖ sig ‖ flags ‖
  /// lifetime.
  std::array<std::uint8_t, 16 + 64 + 2> pop_tbs() const;

  void encode(wire::MsgWriter& w) const;
  static Result<EphIdRequest> decode(wire::Reader& r);
  bool operator==(const EphIdRequest&) const = default;
};

struct EphIdResponse {
  EphIdCertificate cert;

  void encode(wire::MsgWriter& w) const;
  static Result<EphIdResponse> decode(wire::Reader& r);
  bool operator==(const EphIdResponse&) const = default;
};

/// Fig 3's E_kHA(...): AEAD-encrypts a control payload under the host↔AS
/// key so observers cannot link EphIDs to the control EphID (§IV-C).
/// Appends {counter ‖ ciphertext ‖ tag} directly to `out` (typically a
/// PacketWriter's payload region); allocation-free in steady state, since
/// the AEAD lives on the stack and encrypts straight into pooled storage.
/// `from_host` separates the two nonce spaces (host→AS vs AS→host) so the
/// shared key never sees a repeated (key, nonce) pair.
void seal_control_into(wire::MsgWriter& out, const HostAsKeys& keys,
                       std::uint64_t nonce_counter, bool from_host,
                       ByteSpan plaintext);

/// Inverse of seal_control_into: decrypts into `scratch` (cleared first)
/// and returns the plaintext span, which stays valid until the scratch
/// writer's next append. The per-request hot path (E1 issuance) uses this
/// to keep allocations per request flat.
Result<ByteSpan> open_control_into(wire::MsgWriter& scratch,
                                   const HostAsKeys& keys, bool from_host,
                                   ByteSpan sealed);

/// Owned-Bytes wrappers over seal_control_into / open_control_into, for
/// callers that keep the sealed or opened payload.
Bytes seal_control(const HostAsKeys& keys, std::uint64_t nonce_counter,
                   bool from_host, ByteSpan plaintext);
Result<Bytes> open_control(const HostAsKeys& keys, bool from_host,
                           ByteSpan sealed);

/// Strict whole-payload decode through the span codec: the message must
/// consume every byte (truncation AND trailing garbage are malformed).
template <class M>
Result<M> decode_msg(ByteSpan data) {
  wire::Reader r(data);
  auto m = M::decode(r);
  if (!m) return m;
  if (!r.done()) return Result<M>(Errc::malformed, "trailing bytes");
  return m;
}

// ---- Connection establishment (§IV-D1, §VII-A) -------------------------------

struct HandshakeInit {
  EphIdCertificate client_cert;
  std::uint64_t client_nonce = 0;
  crypto::AeadSuite suite = crypto::AeadSuite::chacha20_poly1305;
  /// 0-RTT early data (§VII-C), encrypted under the shared key derived from
  /// the destination's published certificate. Empty when unused.
  Bytes early_data;

  void encode(wire::MsgWriter& w) const;
  static Result<HandshakeInit> decode(wire::Reader& r);
  bool operator==(const HandshakeInit&) const = default;
};

struct HandshakeResponse {
  /// The certificate the responder will SERVE with. Equal to the contacted
  /// EphID's certificate for host-to-host; a different (serving) EphID when
  /// the contacted one was receive-only (§VII-A).
  EphIdCertificate serving_cert;
  std::uint64_t server_nonce = 0;
  crypto::AeadSuite suite = crypto::AeadSuite::chacha20_poly1305;

  void encode(wire::MsgWriter& w) const;
  static Result<HandshakeResponse> decode(wire::Reader& r);
  bool operator==(const HandshakeResponse&) const = default;
};

// ---- DNS (§VII-A) -----------------------------------------------------------

struct DnsQuery {
  std::string name;

  void encode(wire::MsgWriter& w) const;
  static Result<DnsQuery> decode(wire::Reader& r);
  bool operator==(const DnsQuery&) const = default;
};

/// A signed record binding a name to a (receive-only) EphID certificate.
/// The signature by the DNS service's EphID key stands in for DNSSEC
/// (§VII-A footnote: "We assume DNSSec to authenticate DNS records").
struct DnsRecord {
  std::string name;
  EphIdCertificate cert;        // receive-only endpoint of the named service
  std::uint32_t ipv4 = 0;       // optional legacy address (§VII-D); 0 = none
  crypto::Ed25519Signature sig{};

  /// Appends the signed bytes (every field except sig) to `w`.
  void tbs_into(wire::MsgWriter& w) const;
  void encode(wire::MsgWriter& w) const;
  static Result<DnsRecord> decode(wire::Reader& r);
  bool operator==(const DnsRecord&) const = default;
};

struct DnsResponse {
  std::uint8_t status = 0;  // 0 = ok, 1 = NXDOMAIN
  std::optional<DnsRecord> record;

  void encode(wire::MsgWriter& w) const;
  static Result<DnsResponse> decode(wire::Reader& r);
  bool operator==(const DnsResponse&) const = default;
};

/// Server-side publication (§VII-A task 2: "it registers the certificate
/// under the domain name to DNS"). The DNS service signs the stored record.
struct DnsPublish {
  std::string name;
  EphIdCertificate cert;   // typically a receive-only EphID certificate
  std::uint32_t ipv4 = 0;  // optional legacy address for gateways (§VII-D)

  void encode(wire::MsgWriter& w) const;
  static Result<DnsPublish> decode(wire::Reader& r);
  bool operator==(const DnsPublish&) const = default;
};

// ---- Shutoff (Fig 5) ----------------------------------------------------------

/// Discriminator byte at the start of every NextProto::shutoff payload.
enum class ShutoffKind : std::uint8_t {
  shutoff_request = 0,  // Fig 5, victim → source AA
  revoke_request = 1,   // §VIII-G2 voluntary revocation, host → own AA
  response = 2,         // AA → requester
};

struct ShutoffRequest {
  Bytes offending_packet;            // the unwanted packet, as evidence
  crypto::Ed25519Signature sig{};    // {pkt} signed with K-_EphID_d
  EphIdCertificate dst_cert;         // proves requester owns EphID_d

  void encode(wire::MsgWriter& w) const;
  static Result<ShutoffRequest> decode(wire::Reader& r);
  bool operator==(const ShutoffRequest&) const = default;
};

/// §VIII-G2: "a host could revoke an EphID that is no longer needed."
/// Ownership is proven by a signature under the EphID's own key; the AS
/// counts voluntary revocations toward the same escalation limit as
/// shutoffs ("a maximum number of EphIDs that can be preemptively revoked").
struct EphIdRevokeRequest {
  EphId ephid;
  crypto::Ed25519Signature sig{};  // over revoke_tbs(ephid)
  EphIdCertificate cert;           // the certificate of the EphID itself

  /// The signed statement.
  static Bytes revoke_tbs(const EphId& ephid);

  void encode(wire::MsgWriter& w) const;
  static Result<EphIdRevokeRequest> decode(wire::Reader& r);
  bool operator==(const EphIdRevokeRequest&) const = default;
};

struct ShutoffResponse {
  std::uint8_t status = 0;  // 0 = revoked, nonzero = Errc of the failure

  void encode(wire::MsgWriter& w) const;
  static Result<ShutoffResponse> decode(wire::Reader& r);
  bool operator==(const ShutoffResponse&) const = default;
};

// ---- ICMP (§VIII-B) -----------------------------------------------------------

enum class IcmpType : std::uint8_t {
  echo_request = 0,
  echo_reply = 1,
  dest_unreachable = 2,
  time_exceeded = 3,
  packet_too_big = 4,  // MTU discovery (§II-C "performance optimizations")
};

struct IcmpMessage {
  IcmpType type = IcmpType::echo_request;
  std::uint32_t code = 0;    // e.g. next-hop MTU for packet_too_big
  Bytes data;                // echo payload / offending-header snippet

  void encode(wire::MsgWriter& w) const;
  static Result<IcmpMessage> decode(wire::Reader& r);
  bool operator==(const IcmpMessage&) const = default;
};

}  // namespace apna::core
