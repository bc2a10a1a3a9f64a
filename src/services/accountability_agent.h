// Accountability Agent — the shutoff protocol (Fig 5, §IV-E).
//
// Validation order follows the figure exactly, cheapest-reject-first where
// the figure allows it:
//   1. verifyCert(C_EphID_d)            — requester's certificate, against
//                                          the requester AS's key (RPKI).
//   2. verifySig(K+_EphID_d, {pkt})     — requester owns EphID_d.
//   3. (HID_S, T) = E^-1_kA(EphID_s)    — the offending packet really names
//      T ≥ now, HID_S ∈ host_info          one of OUR customers.
//   4. requester was the packet's recipient (dst EphID/AID match) —
//      authorization (§VI-C "only the destination host ... authorized").
//   5. verifyMAC(k_HSAS, pkt)           — our customer really sent it; a
//                                          rogue packet fails here.
//   6. MAC_kAS(revoke EphID_s) to the border routers, which verify and
//      insert into revoked_ids.
//
// process() is thread-safe (sharded AsState, immutable key material,
// atomic counters): services::ServicePool fans shutoff-verification bursts
// across M workers.
#pragma once

#include <cstdint>
#include <string_view>

#include "core/as_directory.h"
#include "core/as_state.h"
#include "core/messages.h"
#include "net/sim.h"
#include "persist/sink.h"
#include "services/service_identity.h"
#include "services/service_runtime.h"
#include "util/counters.h"
#include "wire/packet_buf.h"

namespace apna::services {

/// Per-domain accountability policy hook (§VIII-G at domain granularity):
/// the DNS layer implements this over a longest-parent-suffix trie
/// (dns/domain_trie.h), so a rule at "evil.com" covers every subdomain.
/// Implementations must be safe for concurrent blocked() calls.
class DomainPolicy {
 public:
  virtual ~DomainPolicy() = default;
  /// True when `name` or any parent domain carries a block rule. When
  /// matched and `matched` is non-null, receives the rule's domain.
  virtual bool blocked(std::string_view name, std::string* matched) const = 0;
};

class AccountabilityAgent : public ControlService {
 public:
  /// Plain copyable counters — what stats() returns (live counters are
  /// atomics for the M-worker verification pool).
  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t rejected_bad_cert = 0;
    std::uint64_t rejected_bad_sig = 0;
    std::uint64_t rejected_unauthorized = 0;
    std::uint64_t rejected_not_our_host = 0;
    std::uint64_t rejected_bad_mac = 0;
    std::uint64_t rejected_malformed = 0;
    std::uint64_t hid_escalations = 0;        // §VIII-G2 limit exceeded
    std::uint64_t revocation_instructions = 0;  // MAC_kAS messages to BRs
    std::uint64_t onpath_accepted = 0;        // §VIII-C extension
    std::uint64_t voluntary_revocations = 0;  // §VIII-G2 host-initiated
    std::uint64_t domain_blocks = 0;          // DomainPolicy hits enforced
  };

  AccountabilityAgent(core::AsState& as, const core::AsDirectory& directory,
                      net::EventLoop& loop, ServiceIdentity ident)
      : as_(as), directory_(directory), loop_(loop), ident_(std::move(ident)) {}

  // ---- ControlService --------------------------------------------------------
  const core::EphId& service_ephid() const override {
    return ident_.cert.ephid;
  }
  core::Hid service_hid() const override { return ident_.hid; }
  const char* service_name() const override { return "accountability"; }

  /// Full packet path: parse the request in place, process, and build the
  /// signed response directly in pooled storage.
  Result<wire::PacketBuf> handle_packet(const wire::PacketView& pkt) override;

  /// The Fig 5 validation pipeline. Thread-safe.
  Result<void> process(const core::ShutoffRequest& req, core::ExpTime now);

  /// §VIII-G2 voluntary revocation: a host retires its own EphID.
  Result<void> process_revoke(const core::EphIdRevokeRequest& req,
                              core::ExpTime now);

  /// §VIII-C: builds a shutoff request this AS (as an ON-PATH AS) can send
  /// to another AS's agent about a packet its routers observed. The request
  /// is authorized at the remote agent only when the packet carries this
  /// AS's AID in its path stamp.
  core::ShutoffRequest make_onpath_request(
      const wire::PacketView& observed) const;

  /// Installs the per-domain policy (not owned; wire before concurrent
  /// use). Null disables domain enforcement.
  void set_domain_policy(const DomainPolicy* policy) { policy_ = policy; }
  const DomainPolicy* domain_policy() const { return policy_; }

  /// Attaches the durability hook: revocations and §VIII-G2 escalations
  /// this agent applies are journaled through `sink`. nullptr (default)
  /// keeps the shutoff path persistence-free.
  void set_persist_sink(persist::Sink* sink) { persist_ = sink; }

  /// Domain-granular shutoff riding the Fig-5 tail: when the configured
  /// policy blocks `name`, the EphID published under it is revoked through
  /// the same MAC_kAS instruction path as a shutoff request (including the
  /// §VIII-G2 escalation), and Errc::unauthorized is returned so the
  /// caller rejects the publication/record. Foreign EphIDs (not decodable
  /// under our kA) are still blocked, just with nothing to revoke locally.
  /// Success means the name is not blocked. Thread-safe.
  Result<void> enforce_domain_policy(std::string_view name,
                                     const core::EphId& ephid,
                                     core::ExpTime now);

  const core::EphIdCertificate& cert() const { return ident_.cert; }
  const ServiceIdentity& identity() const { return ident_; }
  Stats stats() const { return counters_.snapshot(); }

 private:
  /// Models "MAC_kAS(revoke EphID_s)" + BR-side verification (Fig 5 tail):
  /// builds the authenticated instruction, verifies it as a border router
  /// would, then applies it to revoked_ids. An EphID already there is left
  /// as it is: nothing journaled, no epoch bump, no escalation.
  Result<void> instruct_revocation(const core::EphId& ephid,
                                   core::ExpTime exp_time, core::Hid hid);

  core::AsState& as_;
  const core::AsDirectory& directory_;
  net::EventLoop& loop_;
  ServiceIdentity ident_;
  const DomainPolicy* policy_ = nullptr;  // wired once at AS assembly
  persist::Sink* persist_ = nullptr;      // wired once at AS assembly
  util::Counters<Stats> counters_;
};

}  // namespace apna::services
