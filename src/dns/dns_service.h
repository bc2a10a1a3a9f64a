// DNS service (§VII-A) — the session-facing front of the resolver.
//
// Queries and publications run over ordinary APNA encrypted sessions —
// "DNS queries are encrypted just like any other data communication" — so
// only the DNS server and the querying host see names. Record signatures
// by the DNS service's EphID key stand in for DNSSEC.
//
// Rewritten (ROADMAP item 2) on top of the dns subsystem: every lookup
// goes through dns::Resolver (domain policy → sharded TTL/negative cache →
// shared zone), publications are admitted through the AccountabilityAgent's
// DomainPolicy hook before they are signed into the zone, and the session
// frame ops keep the original one-byte codes (host/host.cpp mirrors them).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "core/as_state.h"
#include "core/handshake.h"
#include "core/messages.h"
#include "crypto/rng.h"
#include "dns/resolver.h"
#include "net/sim.h"
#include "services/service_identity.h"
#include "services/service_runtime.h"
#include "util/counters.h"
#include "wire/packet_buf.h"

namespace apna::dns {

/// Session-layer operation codes carried in DNS data frames.
enum class DnsOp : std::uint8_t { query = 0, publish = 1, response = 2 };

class DnsService : public services::ControlService {
 public:
  /// Plain copyable counters — what stats() returns.
  struct Stats {
    std::uint64_t queries = 0;
    std::uint64_t nxdomain = 0;
    std::uint64_t blocked = 0;  // domain-policy refusals (query or publish)
    std::uint64_t publications = 0;
    std::uint64_t sessions = 0;
    std::uint64_t rejected = 0;
  };

  DnsService(core::AsState& as, const core::AsDirectory& directory,
             net::EventLoop& loop, crypto::Rng& rng,
             services::ServiceIdentity ident, Resolver& resolver)
      : as_(as),
        directory_(directory),
        loop_(loop),
        rng_(rng),
        ident_(std::move(ident)),
        resolver_(resolver) {}

  // ---- ControlService --------------------------------------------------------
  const core::EphId& service_ephid() const override {
    return ident_.cert.ephid;
  }
  core::Hid service_hid() const override { return ident_.hid; }
  const char* service_name() const override { return "dns"; }

  /// Handshake or data packet addressed to the DNS EphID. Returns the
  /// sealed reply (handshake response, or a DnsResponse/status frame).
  Result<wire::PacketBuf> handle_packet(const wire::PacketView& pkt) override;

  /// Signs a record under the DNS service key (DNSSEC stand-in).
  core::DnsRecord sign_record(const std::string& name,
                              const core::EphIdCertificate& cert,
                              std::uint32_t ipv4) const;

  /// Local-resolver conveniences (in-AS callers and tests). Response
  /// status: 0 ok, 1 NXDOMAIN, 2 refused (domain policy), 3 servfail.
  Result<core::DnsResponse> resolve(const core::DnsQuery& q);
  Result<void> publish(const core::DnsPublish& p);

  Resolver& resolver() { return resolver_; }
  const core::EphIdCertificate& cert() const { return ident_.cert; }
  const services::ServiceIdentity& identity() const { return ident_; }
  const crypto::Ed25519PublicKey& record_key() const {
    return ident_.kp.pub.sig;
  }
  Stats stats() const { return counters_.snapshot(); }

 private:
  wire::PacketBuf make_reply(const wire::PacketView& req,
                             wire::NextProto proto, ByteSpan payload) const;
  Result<Bytes> handle_op(ByteSpan plaintext);

  core::AsState& as_;
  const core::AsDirectory& directory_;
  net::EventLoop& loop_;
  crypto::Rng& rng_;
  services::ServiceIdentity ident_;
  Resolver& resolver_;
  util::Counters<Stats> counters_;
  std::uint64_t nonce_ = 1;
  // Live sessions keyed by client EphID.
  std::unordered_map<core::EphId, core::Session, core::EphIdHash> sessions_;
};

}  // namespace apna::dns
