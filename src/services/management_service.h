// Management Service — EphID issuance (Fig 3, §V-A).
//
// Receives AEAD-encrypted EphID requests addressed to EphID_ms, validates
// the requester's control EphID (expiry, HID validity, message
// authenticity), then issues an EphID and the short-lived certificate
// C_EphID, returned encrypted under kHA so observers cannot link new EphIDs
// to the requesting control EphID (§IV-C).
//
// issue_into() is exactly the per-request server work measured in the
// paper's MS experiment (§V-A3); bench E1 drives it directly — single
// threaded and fanned across M workers through services::ServicePool. It
// is thread-safe: the AS state is sharded/immutable, the counters are a
// util::Counters set of relaxed atomics, and the caller supplies the reply
// nonce (so pooled bursts stay deterministic regardless of worker
// scheduling).
//
// The reply nonce also picks the new EphID's IV: EphIdCodec::issue_counted
// permutes it under a kA-derived key, so IVs never repeat within one MS
// lifetime and only the AS can relate an IV to its reply. The counter's
// 2^32 values are the budget of one kA; past it the MS refuses
// (Stats::rejected_iv_exhausted) instead of reusing an IV.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/as_state.h"
#include "core/messages.h"
#include "crypto/rng.h"
#include "net/sim.h"
#include "persist/sink.h"
#include "services/service_identity.h"
#include "services/service_runtime.h"
#include "util/counters.h"
#include "wire/msg_codec.h"
#include "wire/packet_buf.h"

namespace apna::services {

class ManagementService : public ControlService {
 public:
  /// §VIII-G1: three lifetime categories accommodating flow durations.
  struct LifetimePolicy {
    core::ExpTime short_s = 15 * 60;  // 98% of flows last < 15 min [11]
    core::ExpTime medium_s = 2 * 3600;
    core::ExpTime long_s = 24 * 3600;

    core::ExpTime seconds_for(core::EphIdLifetime lt) const {
      switch (lt) {
        case core::EphIdLifetime::short_term: return short_s;
        case core::EphIdLifetime::medium_term: return medium_s;
        case core::EphIdLifetime::long_term: return long_s;
      }
      return short_s;
    }
  };

  /// Plain copyable counters — what stats() returns. The live counters are
  /// atomics (M pool workers issue concurrently); this snapshot is the one
  /// callers read, so no caller ever loads individual atomics racily.
  struct Stats {
    std::uint64_t issued = 0;
    std::uint64_t rejected_expired = 0;
    std::uint64_t rejected_unknown_host = 0;
    std::uint64_t rejected_bad_payload = 0;
    std::uint64_t rejected_revoked = 0;
    std::uint64_t rejected_bad_pop = 0;  // proof-of-possession sig invalid
    std::uint64_t rejected_iv_exhausted = 0;  // reply counter past 2^32 - 1
  };

  /// Issuance draws no randomness (the IV comes from the reply counter);
  /// the Rng& parameter is kept for existing callers and not used.
  ManagementService(core::AsState& as, net::EventLoop& loop, crypto::Rng&,
                    ServiceIdentity ident, LifetimePolicy policy)
      : as_(as), loop_(loop), ident_(std::move(ident)), policy_(policy) {}
  ManagementService(core::AsState& as, net::EventLoop& loop, crypto::Rng& rng,
                    ServiceIdentity ident)
      : ManagementService(as, loop, rng, std::move(ident), LifetimePolicy()) {}

  // ---- ControlService --------------------------------------------------------
  const core::EphId& service_ephid() const override {
    return ident_.cert.ephid;
  }
  core::Hid service_hid() const override { return ident_.hid; }
  const char* service_name() const override { return "management"; }

  /// Full packet path: validate the request in place (views only), issue,
  /// and encode the sealed response DIRECTLY into the reply packet's wire
  /// image (src = EphID_ms, dst = the requesting control EphID, MAC
  /// stamped at its fixed offset) — no intermediate payload buffer.
  Result<wire::PacketBuf> handle_packet(const wire::PacketView& req) override;

  // ---- Issuance (the §V-A3 measured work) -----------------------------------

  /// The server side of Fig 3 for one request, everything except
  /// transport: appends the E_kHA-sealed EphIdResponse to `out`.
  /// Thread-safe; the reply nonce comes from the caller so pooled bursts
  /// are deterministic (ServicePool derives it from the request index).
  /// Each nonce must come from reserve_reply_nonces and be used once: it
  /// is also the EphID's IV counter. Verifies the request's
  /// proof-of-possession signature with the scalar ed25519_verify;
  /// ServicePool uses the begin/finish split below to amortize that check
  /// across a chunk with ed25519_verify_batch.
  Result<void> issue_into(const core::EphId& ctrl_ephid,
                          ByteSpan sealed_request, core::ExpTime now,
                          std::uint64_t reply_nonce, wire::MsgWriter& out);

  /// A validated, decrypted, decoded issuance request whose
  /// proof-of-possession signature has NOT yet been checked — the split
  /// point that lets ServicePool verify a whole chunk's PoP signatures in
  /// one ed25519_verify_batch sweep before finishing each request.
  struct PreparedIssue {
    core::Hid hid = 0;
    core::HostRecord host;
    core::EphIdRequest request;
    std::array<std::uint8_t, 16 + 64 + 2> pop_tbs{};
  };

  /// Fig 3 steps up to (not including) the PoP check: control-EphID open /
  /// expiry / revocation / host lookup / kHA open / request decode.
  Result<void> begin_issue(const core::EphId& ctrl_ephid,
                           ByteSpan sealed_request, core::ExpTime now,
                           PreparedIssue& prep);

  /// Fig 3 steps after the PoP check. `pop_ok` is the verdict for
  /// prep.request.pop_sig over prep.pop_tbs (scalar or batch verified —
  /// the two are bit-identical); false is counted and rejected here so
  /// both paths share the bookkeeping. A reply nonce past 2^32 - 1 is
  /// refused (Errc::exhausted) before anything is signed.
  Result<void> finish_issue(const PreparedIssue& prep, bool pop_ok,
                            core::ExpTime now, std::uint64_t reply_nonce,
                            wire::MsgWriter& out);

  /// Bytes-returning convenience over issue_into (tests, single-thread
  /// bench path); draws the reply nonce from the internal counter.
  Result<Bytes> issue_sealed(const core::EphId& ctrl_ephid,
                             ByteSpan sealed_request, core::ExpTime now);

  /// Reserves a contiguous block of `n` reply nonces (ServicePool bursts:
  /// request i of a burst uses base+i, independent of worker scheduling).
  std::uint64_t reserve_reply_nonces(std::uint64_t n) {
    return reply_nonce_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Accepts the durability hook the other services take, and ignores it:
  /// issuance journals nothing. Every EphID seals its HID ‖ ExpTime under
  /// kA (Fig 6), so after a crash the MS, AA and routers read both back
  /// from the EphID itself and no issued-EphID table needs to survive.
  void set_persist_sink(persist::Sink*) {}

  const core::EphIdCertificate& cert() const { return ident_.cert; }
  const ServiceIdentity& identity() const { return ident_; }
  Stats stats() const { return counters_.snapshot(); }

 private:
  core::AsState& as_;
  net::EventLoop& loop_;
  ServiceIdentity ident_;
  LifetimePolicy policy_;
  util::Counters<Stats> counters_;
  std::atomic<std::uint64_t> reply_nonce_{1};
};

}  // namespace apna::services
