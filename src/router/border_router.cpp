#include "router/border_router.h"

#include <algorithm>
#include <memory>

namespace apna::router {

Result<void> BorderRouter::check_outgoing(const wire::PacketView& pkt,
                                          core::ExpTime now) const {
  if (cfg_.mode == Mode::baseline) return check_baseline(pkt);

  core::EphId src;
  src.bytes = pkt.src_ephid();

  // (HID_S, expTime) = E^-1_kA(EphID_s)
  auto plain = as_.codec.open(src);
  if (!plain) return Result<void>(Errc::decrypt_failed, "source EphID invalid");
  // if expTime < currTime drop
  if (plain->exp_time < now) return Result<void>(Errc::expired, "src EphID");
  // if EphID_s ∈ revoked_EphIDs drop
  if (as_.revoked.is_revoked(src))
    return Result<void>(Errc::revoked, "src EphID revoked");
  if (as_.revoked.is_hid_revoked(plain->hid))
    return Result<void>(Errc::revoked, "src HID revoked");
  // if HID_S ∉ host_info drop
  const auto host = as_.host_db.find(plain->hid);
  if (!host) return Result<void>(Errc::unknown_host, "src HID unknown");
  // if !verifyMAC(k_HSAS, packet) drop — in place over the wire image.
  if (!core::verify_packet_mac(*host->cmac, pkt))
    return Result<void>(Errc::bad_mac, "packet MAC invalid");
  return Result<void>::success();
}

Result<core::Hid> BorderRouter::check_incoming(const wire::PacketView& pkt,
                                               core::ExpTime now) const {
  if (cfg_.mode == Mode::baseline) {
    // Baseline delivers by the low 32 bits of the destination identifier.
    return core::Hid{load_be32(pkt.dst_ephid_span().data())};
  }

  core::EphId dst;
  dst.bytes = pkt.dst_ephid();

  auto plain = as_.codec.open(dst);
  if (!plain)
    return Result<core::Hid>(Errc::decrypt_failed, "dst EphID invalid");
  if (plain->exp_time < now)
    return Result<core::Hid>(Errc::expired, "dst EphID");
  if (as_.revoked.is_revoked(dst))
    return Result<core::Hid>(Errc::revoked, "dst EphID revoked");
  if (as_.revoked.is_hid_revoked(plain->hid))
    return Result<core::Hid>(Errc::revoked, "dst HID revoked");
  if (!as_.host_db.contains(plain->hid))
    return Result<core::Hid>(Errc::unknown_host, "dst HID unknown");
  return plain->hid;
}

Result<void> BorderRouter::check_baseline(const wire::PacketView& pkt) const {
  // A plain router validates nothing cryptographic; reject only nonsense.
  if (pkt.dst_aid() == 0)
    return Result<void>(Errc::malformed, "zero destination AID");
  return Result<void>::success();
}

// ---- Classify ---------------------------------------------------------------

namespace {
/// Portable prefetch shim for the pipeline look-aheads.
inline void prefetch_ro(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p);
#else
  (void)p;
#endif
}
/// How many packets ahead the fused pipeline warms lines (cache buckets,
/// EphID bytes, stripe heads, MAC offsets).
constexpr std::size_t kPrefetchAhead = 4;
}  // namespace

void BorderRouter::finish_outgoing_classify(
    std::span<const wire::PacketView> burst, std::span<Verdict> verdicts,
    Stats& stats) const {
  for (std::size_t i = 0; i < burst.size(); ++i) {
    Verdict& v = verdicts[i];
    if (v.err == Errc::ok && cfg_.replay_filter && burst[i].has_nonce()) {
      core::EphId src;
      src.bytes = burst[i].src_ephid();
      if (!replay_filter_.accept(src, burst[i].nonce())) v.err = Errc::replayed;
    }
    if (v.err != Errc::ok) count_drop(stats, v.err);
  }
}

void BorderRouter::classify_outgoing_burst(
    std::span<const wire::PacketView> burst, core::ExpTime now,
    std::span<Verdict> verdicts, Stats& stats, core::FlowCache* cache) const {
  if (cfg_.mode == Mode::baseline) {
    // E11's plain-IP router: MTU and header sanity, no crypto.
    for (std::size_t i = 0; i < burst.size(); ++i)
      verdicts[i] = Verdict{burst[i].wire_size() > cfg_.mtu
                                ? Errc::too_big
                                : check_baseline(burst[i]).code(),
                            false, 0};
    finish_outgoing_classify(burst, verdicts, stats);
    return;
  }

  // One generation per burst: entries verified mid-burst are stamped with
  // the generation observed HERE, so a revocation racing the burst leaves
  // them conservatively stale (same visibility contract as the striped
  // tables — in-flight packets may see either side of a concurrent
  // revocation; every packet of the NEXT burst sees it).
  const std::uint64_t gen = cache ? as_.epoch.current() : 0;

  // One pass per chunk: probe the flow cache, gather the misses, run ONE
  // widened AES sweep over the misses only, striped checks for the misses,
  // then a single batched packet-CMAC stage that covers hits and verified
  // misses together (hits skip EphID crypto and the table stripes but
  // never the per-packet MAC). Chunking keeps every gather buffer on the
  // stack; check ORDER is identical to check_outgoing, so both produce the
  // same error codes. The buffers declared here are plain pointers and
  // indices, so a burst of one pays for one slot, not 32; the miss-only
  // buffers exist only in chunks that have misses.
  constexpr std::size_t kChunk = 32;
  const std::uint8_t* miss_eph[kChunk];  // gather list into the wire images
  std::size_t miss_at[kChunk];
  core::PacketMacJob jobs[kChunk];
  std::size_t job_at[kChunk];
  std::uint8_t mac_ok[kChunk];

  for (std::size_t base = 0; base < burst.size(); base += kChunk) {
    const std::size_t m = std::min(kChunk, burst.size() - base);

    // Stage 1 — probe. Warm the next packets' EphID bytes a few slots
    // ahead of use. A hit queues its MAC job at once, borrowing the
    // entry's key schedule (no insert runs before the MAC stage, so no
    // eviction can free it).
    std::size_t nmiss = 0, njobs = 0;
    for (std::size_t i = 0; i < m; ++i) {
      if (i + kPrefetchAhead < m) {
        const wire::PacketView& ahead = burst[base + i + kPrefetchAhead];
        prefetch_ro(ahead.bytes().data() + wire::kOffSrcEphid);
      }
      const wire::PacketView& pkt = burst[base + i];
      Verdict& v = verdicts[base + i];
      v = Verdict{};
      if (pkt.wire_size() > cfg_.mtu) {
        v.err = Errc::too_big;
        continue;
      }
      if (cache) {
        core::EphId src;
        src.bytes = pkt.src_ephid();
        if (const core::FlowCache::Entry* e = cache->find(src, gen)) {
          if (e->exp_time < now) {
            v.err = Errc::expired;
          } else {
            jobs[njobs] = core::PacketMacJob{&pkt, e->cmac.get()};
            job_at[njobs++] = base + i;
          }
          continue;
        }
      }
      miss_eph[nmiss] = pkt.bytes().data() + wire::kOffSrcEphid;
      miss_at[nmiss++] = i;
    }

    // The batched packet-CMAC stage for every job queued so far.
    const auto verify_macs = [&] {
      core::verify_packet_macs(
          std::span<const core::PacketMacJob>(jobs, njobs),
          std::span<std::uint8_t>(mac_ok, njobs));
      for (std::size_t j = 0; j < njobs; ++j)
        if (!mac_ok[j]) verdicts[job_at[j]].err = Errc::bad_mac;
    };
    if (nmiss == 0) {
      verify_macs();
      continue;
    }

    // Stage 2 — one widened AES sweep over the misses only, gathered
    // straight from the wire images.
    core::EphIdPlain plain[kChunk];
    std::uint8_t id_ok[kChunk];
    as_.codec.open_batch_gather(miss_eph, nmiss, plain, id_ok);

    // Stage 3 — striped lookups for the misses, stripe heads prefetched
    // ahead of use. A verified miss queues its MAC job under the key the
    // host table returned; miss_key owns that key while the job borrows
    // it and until the cache insert after the MAC stage.
    std::shared_ptr<const crypto::AesCmac> miss_key[kChunk];
    std::size_t fresh[kChunk];  // miss indices whose EphID fully verified
    std::size_t nfresh = 0;
    for (std::size_t j = 0; j < nmiss; ++j) {
      if (j + kPrefetchAhead < nmiss) {
        core::EphId ahead;
        ahead.bytes = burst[base + miss_at[j + kPrefetchAhead]].src_ephid();
        as_.revoked.prefetch(ahead);
        if (id_ok[j + kPrefetchAhead])
          as_.host_db.prefetch(plain[j + kPrefetchAhead].hid);
      }
      const std::size_t i = miss_at[j];
      Verdict& v = verdicts[base + i];
      core::EphId src;
      src.bytes = burst[base + i].src_ephid();
      if (!id_ok[j]) {
        v.err = Errc::decrypt_failed;
      } else if (plain[j].exp_time < now) {
        v.err = Errc::expired;
      } else if (as_.revoked.is_revoked(src) ||
                 as_.revoked.is_hid_revoked(plain[j].hid)) {
        v.err = Errc::revoked;
      } else if (auto host = as_.host_db.find(plain[j].hid); !host) {
        v.err = Errc::unknown_host;
      } else {
        miss_key[j] = std::move(host->cmac);
        jobs[njobs] = core::PacketMacJob{&burst[base + i], miss_key[j].get()};
        job_at[njobs++] = base + i;
        fresh[nfresh++] = j;
      }
    }

    // Stage 4 — one batched packet-CMAC stage for hits and fresh misses.
    verify_macs();

    // Stage 5 — insert the fresh EphID verdicts AFTER the MAC batch ran,
    // so an insertion's eviction can never free a key schedule a pending
    // job still borrows. Inserted whatever the packet's own MAC said: the
    // EphID-level verdict is independent of the per-packet MAC.
    if (cache) {
      for (std::size_t k = 0; k < nfresh; ++k) {
        const std::size_t j = fresh[k];
        core::EphId src;
        src.bytes = burst[base + miss_at[j]].src_ephid();
        cache->insert(src, plain[j].hid, plain[j].exp_time, gen,
                      std::move(miss_key[j]));
      }
    }
  }
  finish_outgoing_classify(burst, verdicts, stats);
}

void BorderRouter::classify_ingress_burst(
    std::span<const wire::PacketView> burst, core::ExpTime now,
    std::span<Verdict> verdicts, Stats& stats, core::FlowCache* cache) const {
  if (cfg_.mode == Mode::baseline) {
    // E11's plain-IP router: deliver by the raw destination identifier.
    for (std::size_t i = 0; i < burst.size(); ++i) {
      Verdict& v = verdicts[i];
      v = Verdict{};
      if (burst[i].dst_aid() != as_.aid) continue;  // transit
      v.local = true;
      v.hid = *check_incoming(burst[i], now);
    }
    return;
  }
  const std::uint64_t gen = cache ? as_.epoch.current() : 0;

  // Transit packets skip crypto entirely (design choice 3); locally-
  // destined packets probe the flow cache, and only the misses reach the
  // widened AES sweep and the striped tables. Cache hits skip all crypto:
  // there is no per-packet MAC check at the destination AS (Fig 4 top).
  constexpr std::size_t kChunk = 32;
  const std::uint8_t* miss_eph[kChunk];
  std::size_t miss_at[kChunk];

  for (std::size_t base = 0; base < burst.size(); base += kChunk) {
    const std::size_t m = std::min(kChunk, burst.size() - base);

    // Stage 1 — transit split + cache probe.
    std::size_t nmiss = 0;
    for (std::size_t i = 0; i < m; ++i) {
      if (i + kPrefetchAhead < m) {
        const wire::PacketView& ahead = burst[base + i + kPrefetchAhead];
        prefetch_ro(ahead.bytes().data() + wire::kOffDstEphid);
      }
      const wire::PacketView& pkt = burst[base + i];
      Verdict& v = verdicts[base + i];
      v = Verdict{};
      if (pkt.dst_aid() != as_.aid) continue;
      v.local = true;
      if (cache) {
        core::EphId dst;
        dst.bytes = pkt.dst_ephid();
        if (const core::FlowCache::Entry* e = cache->find(dst, gen)) {
          if (e->exp_time < now) {
            v.err = Errc::expired;
            count_drop(stats, v.err);
          } else {
            v.hid = e->hid;
          }
          continue;
        }
      }
      miss_eph[nmiss] = pkt.bytes().data() + wire::kOffDstEphid;
      miss_at[nmiss++] = i;
    }
    if (nmiss == 0) continue;

    // Stage 2 — widened AES sweep over the misses only.
    core::EphIdPlain plain[kChunk];
    std::uint8_t id_ok[kChunk];
    as_.codec.open_batch_gather(miss_eph, nmiss, plain, id_ok);

    // Stage 3 — striped checks + insertion (no MAC stage at ingress, so
    // fresh verdicts can be inserted as they verify).
    for (std::size_t j = 0; j < nmiss; ++j) {
      if (j + kPrefetchAhead < nmiss) {
        core::EphId ahead;
        ahead.bytes = burst[base + miss_at[j + kPrefetchAhead]].dst_ephid();
        as_.revoked.prefetch(ahead);
        if (id_ok[j + kPrefetchAhead])
          as_.host_db.prefetch(plain[j + kPrefetchAhead].hid);
      }
      Verdict& v = verdicts[base + miss_at[j]];
      core::EphId dst;
      dst.bytes = burst[base + miss_at[j]].dst_ephid();
      if (!id_ok[j]) {
        v.err = Errc::decrypt_failed;
      } else if (plain[j].exp_time < now) {
        v.err = Errc::expired;
      } else if (as_.revoked.is_revoked(dst) ||
                 as_.revoked.is_hid_revoked(plain[j].hid)) {
        v.err = Errc::revoked;
      } else if (cache == nullptr) {
        // Uncached: a membership check suffices — no record copy.
        if (as_.host_db.contains(plain[j].hid)) {
          v.hid = plain[j].hid;
        } else {
          v.err = Errc::unknown_host;
        }
      } else if (auto host = as_.host_db.find(plain[j].hid)) {
        // find (not contains): the record's cmac makes the fresh entry
        // usable for EGRESS hits of the same EphID too.
        v.hid = plain[j].hid;
        cache->insert(dst, plain[j].hid, plain[j].exp_time, gen,
                      std::move(host->cmac));
      } else {
        v.err = Errc::unknown_host;
      }
      if (v.err != Errc::ok) count_drop(stats, v.err);
    }
  }
}

// ---- Act --------------------------------------------------------------------

// Inline: it runs once per forwarded packet, and as an out-of-line call it
// cost the pool's action phase about 10 ns per packet (4-vCPU Xeon).
inline bool BorderRouter::hand_off(
    const wire::PacketView& pkt, wire::PacketBuf* owned,
    std::optional<core::Hid> hid,
    std::optional<std::uint32_t> unreachable_code, Stats& stats) {
  if (hid ? !cb_.deliver_internal : !cb_.send_external) return true;
  const bool feedback = unreachable_code && ident_;
  // A moved buffer takes its view with it, so the feedback quote is
  // snapshotted first, and only when feedback can fire. A copy leaves the
  // caller's view live to quote after a failure.
  IcmpQuote moved_quote;
  if (feedback && owned) moved_quote = make_quote(pkt);
  // The handoff buffer: the owned buffer itself, or one pooled copy when
  // the caller keeps the burst (no heap allocation in steady state; see
  // BufferPool).
  const auto take = [&]() -> wire::PacketBuf {
    if (!owned) return wire::PacketBuf::copy_of(pkt);
    return std::move(*owned);
  };
  // §VIII-C: a stamped send is a pooled copy with this AS's AID spliced
  // into the stamp list — the only in-flight modification a router makes.
  const Result<void> done =
      hid ? cb_.deliver_internal(*hid, take())
          : cb_.send_external(cfg_.stamp_path
                                  ? wire::append_path_stamp(pkt, as_.aid)
                                  : take());
  if (done) return true;
  count_drop(stats, done.error().code);
  if (feedback)
    send_icmp(owned ? moved_quote : make_quote(pkt),
              core::IcmpType::dest_unreachable, *unreachable_code, stats);
  return false;
}

void BorderRouter::apply_outgoing_verdicts(
    std::span<const wire::PacketView> burst, std::span<const Verdict> verdicts,
    Stats& stats, std::span<wire::PacketBuf> owned) {
  for (std::size_t i = 0; i < burst.size(); ++i) {
    if (verdicts[i].err == Errc::too_big) {
      send_icmp(burst[i], core::IcmpType::packet_too_big,
                static_cast<std::uint32_t>(cfg_.mtu), stats);
    } else if (verdicts[i].err == Errc::ok &&
               hand_off(burst[i], owned.empty() ? nullptr : &owned[i],
                        /*hid=*/std::nullopt, /*unreachable_code=*/0, stats)) {
      ++stats.forwarded_out;
    }
  }
}

void BorderRouter::apply_ingress_verdicts(
    std::span<const wire::PacketView> burst, std::span<const Verdict> verdicts,
    Stats& stats, std::span<wire::PacketBuf> owned) {
  for (std::size_t i = 0; i < burst.size(); ++i) {
    const Verdict& v = verdicts[i];
    wire::PacketBuf* const buf = owned.empty() ? nullptr : &owned[i];
    if (!v.local) {
      // Transit: "simply forward packets to the next AS on the path".
      if (hand_off(burst[i], buf, /*hid=*/std::nullopt,
                   /*unreachable_code=*/std::nullopt, stats))
        ++stats.transited;
    } else if (v.err != Errc::ok) {
      send_icmp(burst[i], core::IcmpType::dest_unreachable, 1, stats);
    } else if (hand_off(burst[i], buf, v.hid, /*unreachable_code=*/2,
                        stats)) {
      ++stats.delivered_in;
    }
  }
}

// ---- Accounting and feedback ------------------------------------------------

void BorderRouter::count_drop(Stats& stats, Errc code) {
  switch (code) {
    case Errc::expired: ++stats.drop_expired; break;
    case Errc::revoked: ++stats.drop_revoked; break;
    case Errc::unknown_host: ++stats.drop_unknown_host; break;
    case Errc::bad_mac: ++stats.drop_bad_mac; break;
    case Errc::decrypt_failed: ++stats.drop_bad_ephid; break;
    case Errc::no_route: ++stats.drop_no_route; break;
    case Errc::too_big: ++stats.drop_too_big; break;
    case Errc::replayed: ++stats.drop_replayed; break;
    default: ++stats.drop_bad_ephid; break;
  }
}

BorderRouter::IcmpQuote BorderRouter::make_quote(
    const wire::PacketView& pkt) const {
  IcmpQuote q;
  q.src_aid = pkt.src_aid();
  q.src_ephid = pkt.src_ephid();
  q.proto = pkt.proto();
  // Quote the offending header (48 B) like classic ICMP quotes headers.
  q.header_len = std::min<std::size_t>(pkt.wire_size(), wire::kApnaHeaderSize);
  std::memcpy(q.header.data(), pkt.bytes().data(), q.header_len);
  return q;
}

void BorderRouter::send_icmp(const IcmpQuote& offending, core::IcmpType type,
                             std::uint32_t code, Stats& stats) {
  if (!ident_) return;
  if (offending.proto == wire::NextProto::icmp) return;  // no ICMP storms

  // §VIII-B: feedback goes to the source EphID in the offending packet,
  // from one of the router's own EphIDs, MAC'd like any host packet.
  core::IcmpMessage msg;
  msg.type = type;
  msg.code = code;
  msg.data.assign(offending.header.begin(),
                  offending.header.begin() + offending.header_len);

  // Control-plane construction: encode into the packet → stamp in place.
  wire::PacketWriter pw(ident_->aid, ident_->ephid.bytes, offending.src_aid,
                        offending.src_ephid, wire::NextProto::icmp);
  msg.encode(pw);
  wire::PacketBuf buf = pw.finish();
  core::stamp_packet_mac(crypto::AesCmac(ByteSpan(ident_->mac_key.data(), 16)),
                         buf);
  ++stats.icmp_sent;

  if (offending.src_aid == as_.aid) {
    // The offender is local: deliver the feedback internally.
    ingress_one(std::move(buf), stats);
  } else if (cb_.send_external) {
    (void)cb_.send_external(std::move(buf));
  }
}

// ---- Simulator entry points -------------------------------------------------

void BorderRouter::on_outgoing(wire::PacketBuf pkt) {
  const std::span<const wire::PacketView> one(&pkt.view(), 1);
  Verdict v;
  classify_outgoing_burst(one, cb_.now(), std::span(&v, 1), stats_);
  apply_outgoing_verdicts(one, std::span(&v, 1), stats_, std::span(&pkt, 1));
}

void BorderRouter::ingress_one(wire::PacketBuf pkt, Stats& stats) {
  const std::span<const wire::PacketView> one(&pkt.view(), 1);
  Verdict v;
  classify_ingress_burst(one, cb_.now(), std::span(&v, 1), stats);
  apply_ingress_verdicts(one, std::span(&v, 1), stats, std::span(&pkt, 1));
}

}  // namespace apna::router
