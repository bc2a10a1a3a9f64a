// Per-packet source authentication (§IV-D2 / Fig 4).
//
// "the host computes a MAC for every packet that it sends, using the
// symmetric key that is shared with its AS (kHA). This allows the host's AS
// to link every packet to its source" — the proof-of-sending is embedded in
// the packet (design choice 2), an 8-byte truncated AES-CMAC over the
// entire packet except the MAC field itself.
//
// All forms are allocation-free: CMAC runs over a stack preamble plus the
// payload span of the wire image. Call shapes:
//  * view forms — verify against / stamp into the contiguous wire image
//    (wire::PacketView / wire::PacketBuf). The data plane uses ONLY these:
//    verification reads the image in place, stamping writes the 8 MAC bytes
//    at their fixed offset. No copy, no re-serialization.
//  * builder forms — same math on the owned wire::Packet struct, for
//    construction-side code that stamps before seal()ing.
//  * batched verification — verify_packet_macs over a burst of views. It
//    takes PRE-SCHEDULED AesCmac keys (the HostDb pre-schedules kHA-mac
//    exactly for this), so the AES key schedule is paid once per host
//    instead of once per packet. The router's one classify kernel runs its
//    MAC stage through it at every burst size, down to a burst of one, so
//    this is the one path that drops packets for a bad MAC. Its verdicts
//    agree bit-for-bit with verify_packet_mac, the Fig 4 reference's check
//    (tested in router_concurrency_test). Stamping has no batched form: a
//    NAT-mode AP re-MACs one packet per event.
#pragma once

#include <algorithm>
#include <array>
#include <cstring>
#include <span>

#include "crypto/modes.h"
#include "wire/apna_header.h"
#include "wire/packet_buf.h"

namespace apna::core {

// ---- View forms (the data plane's shapes) -----------------------------------

/// Computes the 8-byte packet MAC over a bound wire image.
inline std::array<std::uint8_t, wire::kMacSize> compute_packet_mac(
    const crypto::AesCmac& mac_key, const wire::PacketView& pkt) {
  std::uint8_t preamble[wire::Packet::kMacPreambleMax];
  const std::size_t n = pkt.write_mac_preamble(preamble);
  const auto full = mac_key.mac2(ByteSpan(preamble, n), pkt.payload());
  std::array<std::uint8_t, wire::kMacSize> out;
  std::copy_n(full.begin(), wire::kMacSize, out.begin());
  return out;
}

/// Fig 4 egress check, in place: "if !verifyMAC(kHA, packet) drop packet".
inline bool verify_packet_mac(const crypto::AesCmac& mac_key,
                              const wire::PacketView& pkt) {
  const auto expect = compute_packet_mac(mac_key, pkt);
  return ct_equal(ByteSpan(expect.data(), expect.size()), pkt.mac_span());
}

/// Stamps the MAC into the wire image at its fixed offset (in place).
inline void stamp_packet_mac(const crypto::AesCmac& mac_key,
                             wire::PacketBuf& pkt) {
  const auto mac = compute_packet_mac(mac_key, pkt.view());
  pkt.set_mac(ByteSpan(mac.data(), mac.size()));
}

// ---- Builder forms (construction-side, pre-seal) ----------------------------

inline std::array<std::uint8_t, wire::kMacSize> compute_packet_mac(
    const crypto::AesCmac& mac_key, const wire::Packet& pkt) {
  std::uint8_t preamble[wire::Packet::kMacPreambleMax];
  const std::size_t n = pkt.write_mac_preamble(preamble);
  const auto full = mac_key.mac2(ByteSpan(preamble, n), pkt.payload);
  std::array<std::uint8_t, wire::kMacSize> out;
  std::copy_n(full.begin(), wire::kMacSize, out.begin());
  return out;
}

inline void stamp_packet_mac(const crypto::AesCmac& mac_key,
                             wire::Packet& pkt) {
  pkt.mac = compute_packet_mac(mac_key, pkt);
}

inline bool verify_packet_mac(const crypto::AesCmac& mac_key,
                              const wire::Packet& pkt) {
  const auto expect = compute_packet_mac(mac_key, pkt);
  return ct_equal(ByteSpan(expect.data(), expect.size()),
                  ByteSpan(pkt.mac.data(), pkt.mac.size()));
}

// ---- Batched forms (the concurrent data plane's burst unit) -----------------

/// One element of a verification burst. Packets in a burst may belong to
/// different hosts, so each carries its own pre-scheduled key (borrowed —
/// the caller keeps the key's owner alive for the duration of the call).
/// The view pointer aliases the caller's burst; nothing is copied. Plain
/// pointers with no default member initializers, so the kernel's per-call
/// stack array of jobs costs nothing until a job is written.
struct PacketMacJob {
  const wire::PacketView* pkt;
  const crypto::AesCmac* key;  // null ⇒ verdict 0 (no key, drop)
};

/// Batched Fig 4 MAC check: verdicts[i] = verify_packet_mac(*jobs[i].key,
/// *jobs[i].pkt). Requires verdicts.size() >= jobs.size().
///
/// This is the classify kernel's per-packet MAC stage: instead of running
/// each packet's CMAC chain serially (latency-bound — each AES round waits
/// on the previous), the burst's chains are interleaved through
/// crypto::aes_cmac_many (16 lanes on avx2 / vaes_avx512, 8 on aesni),
/// keeping the AES unit saturated; bursts too small to fill a pass run as
/// serial chains. Each packet still gets its own full CMAC under its own
/// host key; verdicts are bit-identical to the scalar verify_packet_mac
/// (pinned by router_concurrency_test / crypto_property_test).
inline void verify_packet_macs(std::span<const PacketMacJob> jobs,
                               std::span<std::uint8_t> verdicts) {
  if (jobs.size() < crypto::kCmacMinLanes) {
    // Too few chains for an interleaved pass: the serial check, without
    // building the lane arrays below.
    for (std::size_t i = 0; i < jobs.size(); ++i)
      verdicts[i] = jobs[i].key != nullptr && jobs[i].pkt != nullptr &&
                            verify_packet_mac(*jobs[i].key, *jobs[i].pkt)
                        ? 1
                        : 0;
    return;
  }
  constexpr std::size_t kChunk = 32;
  std::uint8_t pre[kChunk][wire::Packet::kMacPreambleMax + 15];
  crypto::CmacJob cjobs[kChunk];
  std::array<std::uint8_t, 16> tags[kChunk];
  std::size_t at[kChunk];

  for (std::size_t base = 0; base < jobs.size(); base += kChunk) {
    const std::size_t m = std::min(kChunk, jobs.size() - base);
    std::size_t n = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const PacketMacJob& job = jobs[base + i];
      if (job.key == nullptr || job.pkt == nullptr) {
        verdicts[base + i] = 0;  // no key ⇒ drop
        continue;
      }
      // Stage the preamble plus the payload's first bytes up to a block
      // boundary: every lane then starts with whole blocks, and the
      // interleave needs no pass for a block straddling the two spans.
      const std::size_t pn = job.pkt->write_mac_preamble(pre[n]);
      const ByteSpan payload = job.pkt->payload();
      const std::size_t head = std::min((16 - pn % 16) % 16, payload.size());
      if (head > 0) std::memcpy(pre[n] + pn, payload.data(), head);
      cjobs[n] = crypto::CmacJob{job.key, ByteSpan(pre[n], pn + head),
                                 payload.subspan(head)};
      at[n++] = base + i;
    }
    crypto::aes_cmac_many(std::span<const crypto::CmacJob>(cjobs, n), tags);
    for (std::size_t j = 0; j < n; ++j)
      verdicts[at[j]] =
          ct_equal(ByteSpan(tags[j].data(), wire::kMacSize),
                   jobs[at[j]].pkt->mac_span())
              ? 1
              : 0;
  }
}

}  // namespace apna::core
