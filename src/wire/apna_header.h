// APNA network header — exactly the 48-byte layout of Fig 7:
//
//     Source AID      4 B
//     Source EphID   16 B
//     Dest EphID     16 B
//     Dest AID        4 B
//     MAC             8 B
//     ------------------
//     Total          48 B
//
// plus a 4-byte extension prefix on the payload (next-proto, flags, length)
// and the optional 8-byte anti-replay nonce of §VIII-D. The extension is a
// documented addition: the paper's Fig 9 shows an upper-layer protocol
// selector is required once real payloads are carried ("Protocol = UL");
// we place it after the fixed header so the Fig 7 48-byte header is intact.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"
#include "util/result.h"
#include "wire/codec.h"

namespace apna::wire {

class PacketBuf;  // wire/packet_buf.h — the owned flat wire image

/// AS identifier (4 B, "e.g., Autonomous System Number" §III-B).
using Aid = std::uint32_t;

/// Ephemeral identifier, 16 B (Fig 6). Opaque at the wire layer; core/ephid.h
/// knows the internal structure.
using EphIdBytes = std::array<std::uint8_t, 16>;

constexpr std::size_t kApnaHeaderSize = 48;
constexpr std::size_t kMacSize = 8;

/// Upper-layer protocol selector for payload demultiplexing.
enum class NextProto : std::uint8_t {
  data = 0,        // encrypted application payload
  handshake = 1,   // connection establishment (§IV-D1, §VII-A)
  control = 2,     // AS service RPC (EphID issuance, DNS)
  icmp = 3,        // network feedback (§VIII-B)
  shutoff = 4,     // accountability agent protocol (§IV-E)
};

/// Header flag bits.
enum HeaderFlags : std::uint8_t {
  kFlagHasNonce = 0x01,      // anti-replay nonce extension present (§VIII-D)
  kFlagHasPathStamp = 0x02,  // on-path AID record present (§VIII-C)
};

/// The owned APNA packet BUILDER: fixed header + extension + payload as
/// separate fields. Construction-side code (hosts and services assembling
/// control messages, tests) fills a Packet and calls seal() to produce the
/// contiguous wire::PacketBuf every transport/forwarding API consumes;
/// wire::PacketView::to_owned() is the matching (audited) reverse copy.
/// The data plane never traffics in this type.
///
/// Builder contract: payload fits a u16 length and the path stamp fits a
/// u8 count. serialize()/seal() clamp both so the emitted image is always
/// self-consistent (parse/bind accept it); staying within the limits is
/// the caller's job (the 1518 B link MTU keeps real traffic far below).
///
/// The optional path stamp is the §VIII-C extension ("there are proposals
/// to encode the forwarding paths into the packets ... the list of
/// authorized entities can be extended to include on-path ASes"): border
/// routers append their AID while forwarding, and the accountability agent
/// accepts shutoff requests from stamped ASes. It is deliberately NOT
/// covered by the source MAC — routers modify it in flight.
struct Packet {
  Aid src_aid = 0;
  EphIdBytes src_ephid{};
  EphIdBytes dst_ephid{};
  Aid dst_aid = 0;
  std::array<std::uint8_t, kMacSize> mac{};

  NextProto proto = NextProto::data;
  std::uint8_t flags = 0;
  std::uint64_t nonce = 0;  // valid iff flags & kFlagHasNonce
  std::vector<Aid> path_stamp;  // valid iff flags & kFlagHasPathStamp
  Bytes payload;

  bool has_nonce() const { return (flags & kFlagHasNonce) != 0; }
  void set_nonce(std::uint64_t n) {
    nonce = n;
    flags |= kFlagHasNonce;
  }
  bool has_path_stamp() const { return (flags & kFlagHasPathStamp) != 0; }
  void stamp_path(Aid aid) {
    path_stamp.push_back(aid);
    flags |= kFlagHasPathStamp;
  }

  /// Payload byte count as emitted on the wire (clamped to the u16 length
  /// field; see the builder contract above).
  std::size_t wire_payload_size() const {
    return payload.size() > 0xFFFF ? 0xFFFF : payload.size();
  }
  /// Path-stamp entry count as emitted on the wire (clamped to u8).
  std::size_t wire_stamp_count() const {
    return path_stamp.size() > 0xFF ? 0xFF : path_stamp.size();
  }

  /// Serialized wire size. Always equals serialize().size().
  std::size_t wire_size() const {
    return kApnaHeaderSize + 4 + (has_nonce() ? 8 : 0) +
           (has_path_stamp() ? 1 + 4 * wire_stamp_count() : 0) +
           wire_payload_size();
  }

  /// Full wire encoding (header ‖ ext ‖ payload).
  Bytes serialize() const;

  /// Serializes into a pooled contiguous buffer — the (audited) bridge from
  /// the builder to the zero-copy types of wire/packet_buf.h.
  PacketBuf seal() const;

  /// Maximum size of the MAC preamble (header-sans-MAC + extension).
  static constexpr std::size_t kMacPreambleMax = 40 + 4 + 8;

  /// Writes the MAC-covered header fields (everything but the payload) into
  /// `out` and returns the byte count. The MAC input is preamble ‖ payload;
  /// this allocation-free form is what the forwarding fast path uses.
  std::size_t write_mac_preamble(std::uint8_t out[kMacPreambleMax]) const;

  static Result<Packet> parse(ByteSpan wire);
};

}  // namespace apna::wire
