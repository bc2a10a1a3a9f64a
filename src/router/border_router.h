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
// on) splices a pooled buffer, and apply_*_verdicts makes one pooled
// copy_of per forwarded view because the caller retains burst ownership.
// PacketView::to_owned() does not appear on the forwarding path at all.
//
// Two data paths share the same checks:
//
//  * The single-threaded simulator path: on_outgoing()/on_ingress() take
//    ownership of one packet, run the checks, the forwarding actions AND
//    the control-plane niceties (ICMP feedback, path stamping) on the
//    event-loop thread. check_outgoing()/check_incoming() are its
//    side-effect-free cores, benchmarked by E2/E11 and used by the tests as
//    the Fig 4 reference.
//
//  * The concurrent fast path: classify_*_burst() runs the same checks over
//    a std::span<const wire::PacketView> burst from ANY number of worker
//    threads — all AS state it touches is lock-striped (core/sharded.h) or
//    immutable, and outcome counters go to a caller-owned Stats (one per
//    worker, merged on read). There is one classify kernel, the fused
//    chunk pipeline, for every burst size from one packet up: EphID
//    authentication runs through EphIdCodec::open_batch_gather and MAC
//    verification through verify_packet_macs, with verdicts identical to
//    the per-packet checks. Verdicts are then turned into forwarding
//    actions by apply_*_verdicts() on a single thread (the callbacks —
//    simulator event loop — are not thread-safe). The concurrent path does
//    not emit ICMP feedback (a real line-rate device punts error
//    signalling off the fast path the same way).
//
// router/forwarding_pool.h packages the classify/apply split into an
// M-worker pool; Mode::baseline implements a plain IPv4-style router (AID
// longest-match stand-in) for E11.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>

#include "core/as_state.h"
#include "core/flow_cache.h"
#include "core/messages.h"
#include "core/packet_auth.h"
#include "core/replay.h"
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
    Stats& operator+=(const Stats& o) {
      forwarded_out += o.forwarded_out;
      delivered_in += o.delivered_in;
      transited += o.transited;
      icmp_sent += o.icmp_sent;
      drop_expired += o.drop_expired;
      drop_revoked += o.drop_revoked;
      drop_unknown_host += o.drop_unknown_host;
      drop_bad_mac += o.drop_bad_mac;
      drop_bad_ephid += o.drop_bad_ephid;
      drop_no_route += o.drop_no_route;
      drop_too_big += o.drop_too_big;
      drop_replayed += o.drop_replayed;
      return *this;
    }

    /// Subtracts an earlier snapshot of the same monotone counters — the
    /// scenario engine reports per-phase deltas of a long-lived pool.
    Stats& operator-=(const Stats& o) {
      forwarded_out -= o.forwarded_out;
      delivered_in -= o.delivered_in;
      transited -= o.transited;
      icmp_sent -= o.icmp_sent;
      drop_expired -= o.drop_expired;
      drop_revoked -= o.drop_revoked;
      drop_unknown_host -= o.drop_unknown_host;
      drop_bad_mac -= o.drop_bad_mac;
      drop_bad_ephid -= o.drop_bad_ephid;
      drop_no_route -= o.drop_no_route;
      drop_too_big -= o.drop_too_big;
      drop_replayed -= o.drop_replayed;
      return *this;
    }
  };

  struct Config {
    Mode mode = Mode::apna;
    std::size_t mtu = 1518;          // link MTU for PMTUD (§II-C)
    bool send_icmp_errors = true;    // unreachable / packet-too-big feedback
    /// §VIII-C extension: append this AS's AID to forwarded packets so
    /// on-path ASes can be authorized for shutoff requests.
    bool stamp_path = false;
    /// §VIII-D future-work extension: in-network replay detection at the
    /// source AS's egress ("ideally replayed packets should be filtered
    /// near [the] replay location").
    bool replay_filter = false;
    /// Stripe count for the per-source replay-window table.
    std::size_t replay_shards = core::kDefaultShardCount;
  };

  BorderRouter(core::AsState& as, Callbacks cb, Config cfg)
      : as_(as),
        cb_(std::move(cb)),
        cfg_(cfg),
        replay_filter_(core::ShardedReplayFilter::Config{
            cfg.replay_shards, 1024,
            core::ReplayWindow::StartPolicy::grace}) {}
  BorderRouter(core::AsState& as, Callbacks cb)
      : BorderRouter(as, std::move(cb), Config()) {}

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

  // ---- Concurrent fast path (classify on M threads, apply on one) ----------

  /// One packet's outcome on the concurrent fast path.
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

  /// Executes the forwarding actions for a classified egress burst on the
  /// CALLING thread (the callbacks are single-threaded): send_external for
  /// every passing packet (path-stamped when configured). The burst views
  /// stay caller-owned, so each forwarded packet is handed off as one
  /// pooled copy_of (no heap allocation in steady state; no copy at all
  /// when no send callback is installed). Successes count into
  /// `stats.forwarded_out`, send failures into `stats.drop_no_route`.
  void apply_outgoing_verdicts(std::span<const wire::PacketView> burst,
                               std::span<const Verdict> verdicts,
                               Stats& stats);

  /// Ingress twin: deliver_internal for local verdicts, send_external for
  /// transits.
  void apply_ingress_verdicts(std::span<const wire::PacketView> burst,
                              std::span<const Verdict> verdicts,
                              Stats& stats);

  // ---- Forwarding entry points (single-threaded simulator path) ------------

  /// Packet from a local host headed out of the AS. Takes ownership: a
  /// passing packet's buffer is moved, unmodified, to send_external.
  void on_outgoing(wire::PacketBuf pkt);

  /// Packet arriving from a neighbor AS (or looped back for local
  /// delivery): destination AS check, then deliver or transit — again
  /// moving the same buffer.
  void on_ingress(wire::PacketBuf pkt);

  const Stats& stats() const { return stats_; }
  core::Aid aid() const { return as_.aid; }
  const Config& config() const { return cfg_; }

 private:
  /// What ICMP feedback needs from an offending packet, snapshotted before
  /// the buffer's ownership moves (views must not outlive their buffer).
  struct IcmpQuote {
    core::Aid src_aid = 0;
    wire::EphIdBytes src_ephid{};
    wire::NextProto proto = wire::NextProto::data;
    std::array<std::uint8_t, wire::kApnaHeaderSize> header{};
    std::size_t header_len = 0;
  };
  IcmpQuote make_quote(const wire::PacketView& pkt) const;
  /// True when this router can emit ICMP at all — gates the one pre-move
  /// quote snapshot so the common path never pays it needlessly.
  bool icmp_armed() const {
    return cfg_.send_icmp_errors && !ident_.ephid.is_zero();
  }

  static void count_drop(Stats& stats, Errc code);
  void count_drop(Errc code) { count_drop(stats_, code); }
  /// The one egress action both data paths share: optional §VIII-C path
  /// stamp, send_external, and drop accounting on failure. Consumes the
  /// buffer. Returns true when the packet went out (the caller counts the
  /// success); a missing callback counts as sent (checks-only drivers).
  /// Keeping this single keeps the simulator and concurrent paths'
  /// counters in lockstep.
  bool send_external_stamped(wire::PacketBuf pkt, Stats& stats);
  /// Burst-shape egress: pooled copy_of + send_external_stamped. No copy
  /// (and unconditional success) when no send callback is installed.
  bool forward_view(const wire::PacketView& pkt, Stats& stats);
  void maybe_icmp_error(const IcmpQuote& offending, core::IcmpType type,
                        std::uint32_t code);
  /// Pre-move convenience: quotes straight from the still-live view.
  void maybe_icmp_error(const wire::PacketView& offending,
                        core::IcmpType type, std::uint32_t code) {
    if (!icmp_armed()) return;
    maybe_icmp_error(make_quote(offending), type, code);
  }
  /// Egress classify tail: replay filter + drop accounting.
  void finish_outgoing_classify(std::span<const wire::PacketView> burst,
                                std::span<Verdict> verdicts,
                                Stats& stats) const;

  core::AsState& as_;
  Callbacks cb_;
  Config cfg_;
  RouterIdentity ident_;
  Stats stats_;
  /// Per-source-EphID replay windows (only consulted with replay_filter).
  /// Lock-striped and internally synchronized, hence usable — and mutated —
  /// from the const classify path on many threads.
  mutable core::ShardedReplayFilter replay_filter_;
};

}  // namespace apna::router
