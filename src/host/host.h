// The APNA host stack.
//
// One object per end host. Drives the full §III-C lifecycle:
//   1. bootstrap()            — Fig 2, via the AS's Registry Service
//   2. request_ephid()        — Fig 3, encrypted RPC to the MS
//   3. connect()/accept       — §IV-D1 / §VII-A connection establishment
//   4. send_data()            — §IV-D2: AEAD payload + per-packet MAC
// plus ICMP (§VIII-B), shutoff requests (Fig 5, client side), the DNS
// client (§VII-A) and the §VIII-A granularity policies.
//
// Everything after bootstrap is asynchronous over the simulated network:
// methods send packets and invoke callbacks when replies arrive.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/as_directory.h"
#include "core/handshake.h"
#include "core/messages.h"
#include "core/packet_auth.h"
#include "core/replay.h"
#include "crypto/rng.h"
#include "host/ephid_pool.h"
#include "net/sim.h"
#include "util/result.h"
#include "wire/apna_header.h"
#include "wire/msg_codec.h"
#include "wire/packet_buf.h"

namespace apna::host {

/// Handshake sub-type byte carried at the start of handshake payloads.
enum class HandshakeKind : std::uint8_t { init = 0, response = 1 };

class Host {
 public:
  struct Config {
    std::string name = "host";
    std::uint32_t subscriber_id = 0;
    Bytes credential;
    Granularity granularity = Granularity::per_flow;
    crypto::AeadSuite suite = crypto::AeadSuite::chacha20_poly1305;
    bool add_replay_nonce = true;  // §VIII-D header nonce on data packets
    std::uint64_t rng_seed = 0;    // 0 = derive from name
  };

  /// Uplink transmit hook. Consumes the sealed wire image (zero-copy
  /// handoff into the AS fabric).
  using SendFn = std::function<void(wire::PacketBuf)>;
  using BootstrapFn =
      std::function<Result<core::BootstrapResponse>(const core::BootstrapRequest&)>;
  using EphIdCallback = std::function<void(Result<const OwnedEphId*>)>;
  using ConnectCallback = std::function<void(Result<std::uint64_t>)>;
  using DataHandler =
      std::function<void(std::uint64_t session_id, ByteSpan data)>;
  using IcmpHandler = std::function<void(const core::Endpoint& from,
                                         const core::IcmpMessage& msg)>;
  using EchoCallback = std::function<void(net::TimeUs rtt_us)>;
  using ShutoffCallback = std::function<void(Result<void>)>;
  using ResolveCallback = std::function<void(Result<core::DnsRecord>)>;
  using PublishCallback = std::function<void(Result<void>)>;

  struct ConnectOptions {
    Bytes early_data;          // non-empty ⇒ 0-RTT (§VII-C)
    std::string app = "app";   // granularity labels (§VIII-A)
    std::string flow;          // defaults to a fresh flow id
  };

  struct Stats {
    std::uint64_t packets_sent = 0;
    std::uint64_t packets_received = 0;
    std::uint64_t data_frames_received = 0;
    std::uint64_t handshakes_accepted = 0;
    std::uint64_t handshakes_rejected = 0;
    std::uint64_t replay_drops = 0;
    std::uint64_t decrypt_drops = 0;
    std::uint64_t unsolicited = 0;  // data packets with no matching session
    std::uint64_t icmp_received = 0;
  };

  Host(Config cfg, const core::AsDirectory& directory, net::EventLoop& loop);

  // ---- Attachment & bootstrap ------------------------------------------------

  void set_uplink(SendFn send) { send_ = std::move(send); }

  /// Fig 2 over the physical attachment. Verifies id_info and the service
  /// certificates against the AS's published key before accepting them.
  Result<void> bootstrap(const BootstrapFn& rs);

  bool bootstrapped() const { return bootstrapped_; }
  core::Aid aid() const { return aid_; }
  core::Hid hid() const { return hid_; }
  const core::EphId& ctrl_ephid() const { return ctrl_ephid_; }
  const std::string& name() const { return cfg_.name; }
  const core::EphIdCertificate& dns_cert() const { return dns_cert_; }

  /// Entry point for packets the AS fabric delivers to this host. Takes
  /// ownership of the buffer; receive handlers parse it in place.
  void on_packet(wire::PacketBuf pkt);

  // ---- EphID management (Fig 3 client side) -----------------------------------

  void request_ephid(core::EphIdLifetime lifetime, std::uint8_t flags,
                     EphIdCallback cb);

  /// Proxy issuance (§VII-B NAT-mode): requests an EphID bound to keys
  /// supplied by SOMEONE ELSE (an inner host behind an AP). The certificate
  /// is returned without entering this host's pool — the private keys live
  /// with the inner host ("the AP uses an ephemeral public key that is
  /// supplied by its host"), so the proof-of-possession signature must also
  /// come from the inner host and is forwarded verbatim.
  using CertCallback = std::function<void(Result<core::EphIdCertificate>)>;
  void request_ephid_for(const core::EphIdPublicKeys& pub,
                         const crypto::Ed25519Signature& pop_sig,
                         core::EphIdLifetime lifetime, std::uint8_t flags,
                         CertCallback cb);

  /// Re-originates a packet as this host's own traffic: re-stamps the kHA
  /// MAC IN PLACE on the wire image and transmits the same buffer (§VII-B
  /// NAT-mode: "the AP replaces the MAC using its shared key with the AS
  /// before forwarding the packets"). The NAT-mode AP's uplink calls it
  /// once per inner packet.
  void forward_as_own(wire::PacketBuf pkt);

  /// Re-requests `lifetime`-class EphIDs proactively ahead of expiry: the
  /// lifecycle manager (host/ephid_pool.h) keeps every enabled class
  /// stocked with jittered refresh scheduling and exponential backoff on
  /// MS failure, driven by net::EventLoop timers. Live sessions stay
  /// pinned to their issuing EphID across rollover; only NEW flows move to
  /// the fresh certificates. Off by default (the tick re-schedules itself,
  /// so an idle loop.run() would never drain with it enabled).
  void start_auto_renew(EphIdLifecycleManager::Config cfg);
  /// Stops the renewal loop; the already-scheduled tick becomes a no-op.
  void stop_auto_renew();
  bool auto_renew_active() const { return lifecycle_.has_value(); }
  /// Lifecycle state/stats while auto-renew is active (else nullptr).
  const EphIdLifecycleManager* lifecycle() const {
    return lifecycle_ ? &*lifecycle_ : nullptr;
  }

  EphIdPool& pool() { return pool_; }
  const EphIdPool& pool() const { return pool_; }

  // ---- Connections (§IV-D) -----------------------------------------------------

  /// Initiates a connection to the owner of `peer_cert`. The session id is
  /// returned immediately; `cb` fires when the handshake completes (or
  /// immediately for 0-RTT early data, which is sent in the first packet).
  Result<std::uint64_t> connect(const core::EphIdCertificate& peer_cert,
                                ConnectOptions opts, ConnectCallback cb);

  /// Sends application data. Queues until the handshake completes unless
  /// the session was opened with early data (0-RTT).
  Result<void> send_data(std::uint64_t session_id, ByteSpan data);

  void set_data_handler(DataHandler h) { on_data_ = std::move(h); }

  /// Closes a session and drops its keys. With `retire_ephid`, the
  /// session's source EphID is also voluntarily revoked at the AS
  /// (§VIII-G2 "a host could revoke an EphID that is no longer needed") —
  /// but only when no other live session still uses it (flows sharing an
  /// EphID are fate-sharing, §III-B).
  Result<void> close_session(std::uint64_t id, bool retire_ephid = false);

  /// The EphIDs a session currently uses (mine, peer's).
  std::optional<std::pair<core::EphId, core::EphId>> session_ephids(
      std::uint64_t id) const;

  // ---- ICMP (§VIII-B) ------------------------------------------------------------

  Result<void> ping(const core::Endpoint& target, EchoCallback cb);
  void set_icmp_handler(IcmpHandler h) { on_icmp_ = std::move(h); }

  // ---- Shutoff (Fig 5 client side) ----------------------------------------------

  /// Asks the sender's AS to revoke the source EphID of `offending`.
  /// This host must own the packet's destination EphID. The request embeds
  /// the offending wire image verbatim (no re-serialization).
  Result<void> request_shutoff(const wire::PacketView& offending,
                               ShutoffCallback cb);

  /// §VIII-G2: voluntarily retires one of this host's own EphIDs at its AS
  /// ("a host could revoke an EphID that is no longer needed"). The pool
  /// stops using it immediately; the callback reports the AS-side result.
  Result<void> revoke_own_ephid(const core::EphId& ephid, ShutoffCallback cb);

  /// The last data/handshake packet received with no matching session —
  /// what a DDoS victim hands to request_shutoff(). The buffer is kept as
  /// received (moved, not copied).
  const std::optional<wire::PacketBuf>& last_unsolicited() const {
    return last_unsolicited_;
  }

  // ---- DNS client (§VII-A) --------------------------------------------------------

  /// Resolves via this AS's DNS service (the bootstrap-provided cert).
  void resolve(const std::string& name, ResolveCallback cb);
  /// Resolves via an arbitrary trusted DNS ("the host can use a DNS server
  /// that he trusts and that is not operated by the AS", §VII-A).
  void resolve_via(const core::EphIdCertificate& dns_cert,
                   const std::string& name, ResolveCallback cb);
  /// Publishes a name → certificate binding (server-side task, §VII-A).
  void publish_name(const std::string& name,
                    const core::EphIdCertificate& cert, std::uint32_t ipv4,
                    PublishCallback cb);

  const Stats& stats() const { return stats_; }
  crypto::Rng& rng() { return rng_; }

 private:
  struct SessionState {
    std::uint64_t id = 0;
    std::optional<core::Session> session;        // established keys
    std::optional<core::Session> early_session;  // 0-RTT keys (initiator and
                                                 // responder keep it around)
    core::Aid peer_aid = 0;
    core::EphId peer_ephid;       // current peer EphID (serving one after HS)
    core::EphId my_ephid;
    OwnedEphId* my_owned = nullptr;
    core::EphIdCertificate peer_cert;
    core::EphIdCertificate contacted_cert;  // what we dialed (client side)
    bool established = false;
    bool initiator = false;
    bool zero_rtt = false;        // opted into 0-RTT sending (§VII-C)
    bool is_dns = false;          // frames go to the DNS client, not the app
    std::deque<Bytes> pending;    // data queued until established
    ConnectCallback on_connected;
  };

  // Packet plumbing. Packets are built IN PLACE with wire::PacketWriter —
  // header fields at their fixed offsets, payload appended through the
  // MsgWriter interface — then MAC-stamped on the wire image in
  // transmit(). One encode per packet, no intermediate payload buffer.
  wire::PacketWriter start_packet(core::Aid dst_aid,
                                  const core::EphId& dst_ephid,
                                  const core::EphId& src_ephid,
                                  wire::NextProto proto);
  void transmit(wire::PacketWriter& pw, const OwnedEphId* src_owned);
  void transmit_ctrl(wire::PacketWriter& pw);
  void auto_renew_tick(std::uint64_t gen);

  // Receive paths (views into the buffer owned by on_packet).
  void on_control(const wire::PacketView& pkt);
  void on_handshake(const wire::PacketView& pkt);
  void on_data(const wire::PacketView& pkt, wire::PacketBuf& owner);
  void on_icmp_packet(const wire::PacketView& pkt);
  void on_shutoff_response(const wire::PacketView& pkt);
  void handle_dns_frame(SessionState& st, ByteSpan frame);

  SessionState* find_session(const core::EphId& mine, const core::EphId& peer);
  std::uint64_t session_key_hash(const core::EphId& mine,
                                 const core::EphId& peer) const;

  // DNS client plumbing.
  struct DnsPending {
    std::uint8_t op;  // DnsOp value
    Bytes body;
    ResolveCallback on_resolve;
    PublishCallback on_publish;
  };
  void dns_rpc(const core::EphIdCertificate& dns_cert, DnsPending req);
  void flush_dns_queue(std::uint64_t session_id);

  Config cfg_;
  const core::AsDirectory& directory_;
  net::EventLoop& loop_;
  crypto::ChaChaRng rng_;

  SendFn send_;
  bool bootstrapped_ = false;
  core::Aid aid_ = 0;
  core::Hid hid_ = 0;
  core::EphId ctrl_ephid_;
  core::ExpTime ctrl_exp_ = 0;
  core::HostAsKeys kha_{};
  std::shared_ptr<const crypto::AesCmac> kha_cmac_;  // pre-scheduled kHA-mac
  crypto::X25519KeyPair long_term_;  // K±_H
  core::EphIdCertificate ms_cert_;
  core::EphIdCertificate dns_cert_;
  core::EphId aa_ephid_;

  std::uint64_t ctrl_nonce_ = 1;
  std::uint64_t packet_seq_ = 0;
  std::uint64_t next_session_id_ = 1;
  std::uint64_t next_flow_id_ = 1;

  EphIdPool pool_;
  struct PendingEphId {
    std::optional<core::EphIdKeyPair> kp;  // nullopt for proxied requests
    core::EphIdPublicKeys expected_pub;
    core::EphIdLifetime lifetime = core::EphIdLifetime::short_term;
    EphIdCallback cb;        // own requests
    CertCallback cert_cb;    // proxied requests
  };
  std::deque<PendingEphId> pending_ephids_;

  std::unordered_map<std::uint64_t, SessionState> sessions_;
  std::unordered_map<std::uint64_t, std::uint64_t> session_index_;  // pairhash → id

  std::unordered_map<core::EphId, core::ReplayWindow, core::EphIdHash>
      replay_windows_;

  std::deque<std::pair<std::uint64_t, EchoCallback>> pending_pings_;  // nonce
  std::deque<ShutoffCallback> pending_shutoffs_;

  std::unordered_map<std::uint64_t, std::deque<DnsPending>> dns_queues_;
  std::unordered_map<std::uint64_t, bool> dns_ready_;
  std::unordered_map<std::string, std::uint64_t> dns_sessions_;  // cert → sess

  std::optional<EphIdLifecycleManager> lifecycle_;
  std::uint64_t auto_renew_gen_ = 0;  // invalidates stale scheduled ticks

  DataHandler on_data_;
  IcmpHandler on_icmp_;
  std::optional<wire::PacketBuf> last_unsolicited_;
  Stats stats_;
};

}  // namespace apna::host
