// Border router — the data-plane forwarding pipelines of Fig 4 (§IV-D3,
// §V-B).
//
// Outgoing (leaving the source AS):
//   (HID_S, exp) = E^-1_kA(EphID_s)   — 1 symmetric decryption
//   exp ≥ now, EphID_s ∉ revoked_ids  — lookup 1
//   HID_S ∈ host_info                 — lookup 2
//   verifyMAC(k_HA, packet)           — 1 MAC verification
// Incoming (at the destination AS):
//   same checks on EphID_d, then intra-domain forwarding by HID.
// Transit: forward by AID only, no crypto (design choice 3 — "forwarding
// devices perform only symmetric cryptographic operations").
//
// Zero-copy contract: the router trafficks in wire::PacketView (checks) and
// wire::PacketBuf (ownership transfer). Every check reads the wire image in
// place; a forwarded packet is the SAME buffer that arrived — moved through
// send_external / deliver_internal, never copied, never re-serialized. In
// steady state the fast path performs zero heap allocations per forwarded
// packet (pinned by tests/alloc_count_test and bench_e2). The only copies
// left are the explicit ones: append_path_stamp (when Config::stamp_path is
// on) splices a pooled buffer, and otherwise apply_*_verdicts makes one
// pooled copy_of per forwarded view when the caller keeps the burst.
// PacketView::to_owned() does not appear on the forwarding path at all.
//
// One data path, in two phases:
//
//  * Classify: classify_*_burst() runs the checks over a
//    std::span<const wire::PacketView> burst from ANY number of worker
//    threads — all AS state it touches is lock-striped (core/sharded.h) or
//    immutable, and outcome counters go to a caller-owned Stats (one per
//    worker, merged on read). There is one classify kernel, the fused
//    chunk pipeline, for every burst size from one packet up: EphID
//    authentication runs through EphIdCodec::open_batch_gather and MAC
//    verification through verify_packet_macs.
//
//  * Act: apply_*_verdicts() turns the verdicts into forwarding actions on
//    one thread (the callbacks — simulator event loop — are not
//    thread-safe): send, deliver, transit, the §VIII-C path stamp, drop
//    accounting, and the §VIII-B ICMP feedback once set_identity() has
//    installed an identity.
//
// The simulator's on_outgoing()/on_ingress() run one owned packet through
// both phases as a burst of one, moving its buffer; router/forwarding_pool.h
// runs them over caller-owned bursts, classifying on M workers.
// check_outgoing()/check_incoming() are the per-packet Fig 4 reference:
// the tests' oracle for the kernel, and what E2/E11 time per packet.
// Mode::baseline implements a plain IPv4-style router (AID longest-match
// stand-in) for E11.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>

#include "core/as_state.h"
#include "core/flow_cache.h"
#include "core/messages.h"
#include "core/packet_auth.h"
#include "core/replay.h"
#include "util/counters.h"
#include "util/result.h"
#include "wire/apna_header.h"
#include "wire/packet_buf.h"

namespace apna::router {

/// The BR's own sending identity, used for ICMP feedback (§VIII-B: "An
/// entity (e.g., router or host) ... uses one of its EphIDs as the source").
struct RouterIdentity {
  core::EphId ephid;
  core::Aid aid = 0;
  std::array<std::uint8_t, 16> mac_key{};  // kHA-mac of the router
};

class BorderRouter {
 public:
  enum class Mode { apna, baseline };

  struct Callbacks {
    /// Transmit towards the packet's dst_aid over the inter-AS fabric
    /// (next hop is resolved by the AS fabric / topology). Consumes the
    /// buffer — the callee owns it from here (zero-copy handoff).
    std::function<Result<void>(wire::PacketBuf)> send_external;
    /// Deliver to a local host by HID (intra-domain forwarding). Consumes
    /// the buffer.
    std::function<Result<void>(core::Hid, wire::PacketBuf)> deliver_internal;
    /// Current wall-clock seconds (the simulation clock).
    std::function<core::ExpTime()> now;
  };

  struct Stats {
    std::uint64_t forwarded_out = 0;    // egress, passed all checks
    std::uint64_t delivered_in = 0;     // ingress, delivered to a local host
    std::uint64_t transited = 0;        // not ours: forwarded to next AS
    std::uint64_t icmp_sent = 0;
    // Drop reasons (Fig 4's four abort arms + parse/MTU).
    std::uint64_t drop_expired = 0;
    std::uint64_t drop_revoked = 0;
    std::uint64_t drop_unknown_host = 0;
    std::uint64_t drop_bad_mac = 0;
    std::uint64_t drop_bad_ephid = 0;   // EphID fails authenticated decryption
    std::uint64_t drop_no_route = 0;
    std::uint64_t drop_too_big = 0;
    std::uint64_t drop_replayed = 0;  // §VIII-D in-network filter

    std::uint64_t total_drops() const {
      return drop_expired + drop_revoked + drop_unknown_host + drop_bad_mac +
             drop_bad_ephid + drop_no_route + drop_too_big + drop_replayed;
    }

    /// Accumulates another counter set (per-worker stats merged on read).
    Stats& operator+=(const Stats& o) { return util::add_fields(*this, o); }

    /// Subtracts an earlier snapshot of the same monotone counters — the
    /// scenario engine reports per-phase deltas of a long-lived pool.
    Stats& operator-=(const Stats& o) { return util::sub_fields(*this, o); }
  };

  struct Config {
    Mode mode = Mode::apna;
    std::size_t mtu = 1518;          // link MTU for PMTUD (§II-C)
    /// §VIII-C extension: append this AS's AID to forwarded packets so
    /// on-path ASes can be authorized for shutoff requests.
    bool stamp_path = false;
    /// §VIII-D future-work extension: in-network replay detection at the
    /// source AS's egress ("ideally replayed packets should be filtered
    /// near [the] replay location").
    bool replay_filter = false;
  };

  BorderRouter(core::AsState& as, Callbacks cb, Config cfg)
      : as_(as),
        cb_(std::move(cb)),
        cfg_(cfg),
        replay_filter_(core::ShardedReplayFilter::Config{
            core::kDefaultShardCount, 1024,
            core::ReplayWindow::StartPolicy::grace}) {}
  BorderRouter(core::AsState& as, Callbacks cb)
      : BorderRouter(as, std::move(cb), Config()) {}

  /// Installs the router's own EphID and MAC key; from then on the action
  /// phase sends ICMP feedback (§VIII-B). Without one it sends none.
  void set_identity(RouterIdentity ident) { ident_ = ident; }

  // ---- Pure pipelines (benchmarked) ----------------------------------------

  /// Fig 4 bottom. Returns ok when the packet may leave the AS.
  /// Thread-safe: touches only immutable keys and lock-striped tables.
  Result<void> check_outgoing(const wire::PacketView& pkt,
                              core::ExpTime now) const;

  /// Fig 4 top, local-destination branch. Returns the destination HID.
  /// Thread-safe, like check_outgoing.
  Result<core::Hid> check_incoming(const wire::PacketView& pkt,
                                   core::ExpTime now) const;

  /// Baseline (plain-IP-style) pipeline: header sanity only.
  Result<void> check_baseline(const wire::PacketView& pkt) const;

  // ---- Classify (any number of threads) ------------------------------------

  /// One packet's outcome of the classify phase.
  struct Verdict {
    Errc err = Errc::ok;  // ok ⇒ forward / deliver / transit
    bool local = false;   // ingress only: deliver to `hid` vs transit
    core::Hid hid = 0;    // ingress only: destination host when local
  };

  /// Runs the egress pipeline (MTU + Fig 4 checks + §VIII-D replay filter
  /// when configured) over a burst of views. Drop reasons are counted into
  /// the caller-owned `stats` (passes are counted by
  /// apply_outgoing_verdicts or by the caller). Safe to call from many
  /// threads concurrently. Allocation-free.
  ///
  /// `cache` (optional, caller-owned, NOT thread-safe — one per worker
  /// thread) memoizes verified EphID verdicts: a generation-valid hit
  /// skips the EphID decrypt+auth and both striped lookups, but NEVER the
  /// per-packet MAC (§IV-D2). The burst runs as one fused pass per chunk
  /// of 32: probe cache → gather misses → one widened AES sweep over misses
  /// only → striped checks for misses → batched packet-CMAC for hits and
  /// verified misses together → insert fresh verdicts (after the MAC
  /// batch, so an eviction can never invalidate a borrowed key schedule
  /// mid-chunk). Verdicts equal the per-packet reference — MTU, then
  /// check_outgoing, then the replay filter — at every burst size, with
  /// and without the cache, including bursts that straddle a revocation:
  /// every revocation bumps AsState::epoch, so stale entries miss and
  /// re-verify against the striped tables (pinned by the KernelOracle
  /// tests in router_concurrency_test, flow_cache_test and scenario_test).
  /// Mode::baseline runs E11's plain-IP check per packet instead.
  void classify_outgoing_burst(std::span<const wire::PacketView> burst,
                               core::ExpTime now, std::span<Verdict> verdicts,
                               Stats& stats,
                               core::FlowCache* cache = nullptr) const;

  /// Ingress twin: transit detection + Fig 4 top checks for local packets
  /// (check_incoming's verdicts). Cache hits skip all crypto (ingress has
  /// no per-packet MAC check — the MAC is verified at the source AS).
  void classify_ingress_burst(std::span<const wire::PacketView> burst,
                              core::ExpTime now, std::span<Verdict> verdicts,
                              Stats& stats,
                              core::FlowCache* cache = nullptr) const;

  // ---- Act (one thread) ----------------------------------------------------

  /// Executes the forwarding actions for a classified egress burst on the
  /// CALLING thread (the callbacks are single-threaded), in burst order:
  /// send_external for every passing packet (path-stamped when
  /// configured), packet-too-big feedback for every too_big verdict, and
  /// dest-unreachable 0 when a send fails. With `owned` (one buffer per
  /// view) each forwarded buffer is moved; without it the burst stays
  /// caller-owned and each forwarded packet is handed off as one pooled
  /// copy_of (no heap allocation in steady state; no copy at all when no
  /// send callback is installed). Successes count into
  /// `stats.forwarded_out`, failed sends into their drop counter, and
  /// feedback into `stats.icmp_sent`.
  void apply_outgoing_verdicts(std::span<const wire::PacketView> burst,
                               std::span<const Verdict> verdicts,
                               Stats& stats,
                               std::span<wire::PacketBuf> owned = {});

  /// Ingress twin: deliver_internal for local verdicts, send_external for
  /// transits; dest-unreachable 1 for a local drop and 2 for a failed
  /// delivery.
  void apply_ingress_verdicts(std::span<const wire::PacketView> burst,
                              std::span<const Verdict> verdicts,
                              Stats& stats,
                              std::span<wire::PacketBuf> owned = {});

  // ---- Simulator entry points (a burst of one) -----------------------------

  /// Packet from a local host headed out of the AS. Takes ownership: a
  /// passing packet's buffer is moved, unmodified, to send_external.
  void on_outgoing(wire::PacketBuf pkt);

  /// Packet arriving from a neighbor AS (or looped back for local
  /// delivery): destination AS check, then deliver or transit — again
  /// moving the same buffer.
  void on_ingress(wire::PacketBuf pkt) { ingress_one(std::move(pkt), stats_); }

  const Stats& stats() const { return stats_; }
  core::Aid aid() const { return as_.aid; }
  const Config& config() const { return cfg_; }

 private:
  /// What ICMP feedback needs from an offending packet, snapshotted before
  /// the buffer's ownership moves (views must not outlive their buffer).
  /// No default member initializers: make_quote writes every field read,
  /// and a handoff that never quotes leaves its slot untouched.
  struct IcmpQuote {
    core::Aid src_aid;
    wire::EphIdBytes src_ephid;
    wire::NextProto proto;
    std::array<std::uint8_t, wire::kApnaHeaderSize> header;
    std::size_t header_len;
  };
  IcmpQuote make_quote(const wire::PacketView& pkt) const;

  static void count_drop(Stats& stats, Errc code);
  /// Hands `pkt` to deliver_internal(*hid), or to send_external (path
  /// stamped when configured) when `hid` is empty: `owned` (pkt's own
  /// buffer) moved when the caller passed one, else one pooled copy_of. A
  /// failed handoff counts its drop and, when `unreachable_code` is set,
  /// answers the sender. Returns true when the packet went out; a missing
  /// callback counts as out (checks-only drivers).
  bool hand_off(const wire::PacketView& pkt, wire::PacketBuf* owned,
                std::optional<core::Hid> hid,
                std::optional<std::uint32_t> unreachable_code, Stats& stats);
  /// §VIII-B: answers the offender's source from the router's EphID. A
  /// local offender hears it through the ingress phases at Callbacks::now.
  void send_icmp(const IcmpQuote& offending, core::IcmpType type,
                 std::uint32_t code, Stats& stats);
  void send_icmp(const wire::PacketView& offending, core::IcmpType type,
                 std::uint32_t code, Stats& stats) {
    if (ident_) send_icmp(make_quote(offending), type, code, stats);
  }
  /// One owned packet through the ingress phases, counted into `stats`.
  void ingress_one(wire::PacketBuf pkt, Stats& stats);
  /// Egress classify tail: replay filter + drop accounting.
  void finish_outgoing_classify(std::span<const wire::PacketView> burst,
                                std::span<Verdict> verdicts,
                                Stats& stats) const;

  core::AsState& as_;
  Callbacks cb_;
  Config cfg_;
  std::optional<RouterIdentity> ident_;  // set_identity arms ICMP feedback
  Stats stats_;
  /// Per-source-EphID replay windows (only consulted with replay_filter).
  /// Lock-striped and internally synchronized, hence usable — and mutated —
  /// from the const classify path on many threads.
  mutable core::ShardedReplayFilter replay_filter_;
};

}  // namespace apna::router
