// Span-based control-message codec over pooled storage.
//
// The data plane got its zero-copy discipline from PacketBuf/PacketView;
// this header extends the same discipline ABOVE the APNA header, to the
// control messages of Figs 2/3/5:
//
//  * MsgWriter  — the encode side. Appends big-endian fields (the same
//    field vocabulary as wire::Writer) into a buffer drawn from the
//    per-thread BufferPool, so steady-state control traffic encodes into
//    recycled storage instead of hitting operator new. The buffer returns
//    to the pool when the writer dies (or when a PacketWriter seals it
//    into a PacketBuf, which recycles through the same pool).
//  * MsgReader  — the decode side: a wire::Reader bound directly to a
//    PacketView's payload. Parsing is in place — every accessor reads the
//    wire image where it lies; only explicitly owned fields copy out.
//    Message decoders take the wire::Reader base, so packet payloads and
//    journal/snapshot replay run the same decoder.
//  * PacketWriter — builds one CONTROL PACKET in a single pass: the Fig 7
//    header fields are written at their fixed offsets, the payload is
//    appended through the MsgWriter interface directly after the extension
//    prefix, and finish() patches the length field and hands the image
//    over as a PacketBuf. This removes the Packet-builder round trip
//    (payload Bytes -> Packet::seal() memcpy) from every service reply and
//    host transmission: one encode, zero intermediate payload buffers.
//
// Every control message has exactly this one codec: encode(MsgWriter&) and
// decode(Reader&), with core::decode_msg<M> as the strict whole-buffer
// entry point. Checked-in golden hex vectors (tests/codec_golden_test.cpp)
// pin the wire bytes instead of a second reference implementation.
#pragma once

#include <cstring>
#include <optional>

#include "wire/packet_buf.h"

namespace apna::wire {

/// Appends big-endian fields into pooled storage. Same field vocabulary as
/// wire::Writer; the backing buffer comes from (and returns to) the
/// per-thread BufferPool, so a writer constructed per request performs no
/// heap allocation in steady state.
class MsgWriter {
 public:
  explicit MsgWriter(std::size_t reserve = 256)
      : buf_(BufferPool::local().acquire(reserve)) {}
  ~MsgWriter() { BufferPool::local().release(std::move(buf_)); }

  MsgWriter(const MsgWriter&) = delete;
  MsgWriter& operator=(const MsgWriter&) = delete;

  void u8(std::uint8_t v) {
    ensure(1);
    buf_[len_++] = v;
  }
  void u16(std::uint16_t v) {
    ensure(2);
    store_be16(buf_.data() + len_, v);
    len_ += 2;
  }
  void u32(std::uint32_t v) {
    ensure(4);
    store_be32(buf_.data() + len_, v);
    len_ += 4;
  }
  void u64(std::uint64_t v) {
    ensure(8);
    store_be64(buf_.data() + len_, v);
    len_ += 8;
  }
  /// Raw bytes, no length prefix (fixed-size fields).
  void raw(ByteSpan data) {
    ensure(data.size());
    if (!data.empty()) std::memcpy(buf_.data() + len_, data.data(), data.size());
    len_ += data.size();
  }
  template <std::size_t N>
  void raw(const std::array<std::uint8_t, N>& data) {
    raw(ByteSpan(data.data(), N));
  }
  /// Length-prefixed (u16) variable field.
  void var(ByteSpan data) {
    u16(static_cast<std::uint16_t>(data.size()));
    raw(data);
  }

  /// Reserves `n` writable bytes at the tail and advances past them; the
  /// caller fills the returned span IN PLACE (AEAD seal output, decrypt
  /// scratch). Valid until the next append.
  MutByteSpan append_uninitialized(std::size_t n) {
    ensure(n);
    MutByteSpan out(buf_.data() + len_, n);
    len_ += n;
    return out;
  }
  void str(std::string_view s) {
    u16(static_cast<std::uint16_t>(s.size()));
    raw(ByteSpan(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  }

  /// Everything written so far (valid until the next append).
  ByteSpan span() const { return ByteSpan(buf_.data(), len_); }
  std::size_t size() const { return len_; }

  /// Rewinds to empty; the pooled capacity is kept (scratch reuse).
  void clear() { len_ = base_; }

  /// The encoded bytes, sized exactly. NOTE: a taken Bytes leaves the pool
  /// for good (plain vector destruction does not recycle) — prefer span()
  /// for transient reads and PacketWriter::finish() for packets, which
  /// recycle; take() is for results that must outlive the writer.
  Bytes take() {
    buf_.resize(len_);
    len_ = base_ = 0;
    return std::move(buf_);
  }

 protected:
  void ensure(std::size_t n) {
    if (len_ + n > buf_.size())
      buf_.resize(std::max(buf_.size() * 2, len_ + n));
  }

  Bytes buf_;             // pooled storage; size() is capacity-in-use
  std::size_t len_ = 0;   // bytes written
  std::size_t base_ = 0;  // clear() floor (PacketWriter: the payload offset)
};

/// In-place control-message reader: a wire::Reader whose natural binding is
/// a PacketView's payload. All accessors read the wire image where it lies.
class MsgReader : public Reader {
 public:
  using Reader::Reader;
  explicit MsgReader(const PacketView& pkt) : Reader(pkt.payload()) {}
};

/// Builds one control packet directly in pooled storage: Fig 7 header
/// fields at their fixed offsets, then the payload appended through the
/// inherited MsgWriter interface, then one finish() that patches the
/// length field and binds the image as a PacketBuf. The control-plane
/// counterpart of Packet::seal() with the intermediate payload Bytes (and
/// its memcpy) removed.
class PacketWriter : public MsgWriter {
 public:
  PacketWriter(Aid src_aid, const EphIdBytes& src_ephid, Aid dst_aid,
               const EphIdBytes& dst_ephid, NextProto proto,
               std::optional<std::uint64_t> nonce = std::nullopt,
               std::size_t payload_reserve = 256)
      : MsgWriter(kOffExt + 8 + payload_reserve),
        payload_off_(
            static_cast<std::uint32_t>(kOffExt + (nonce ? 8 : 0))) {
    ensure(payload_off_);
    std::uint8_t* p = buf_.data();
    store_be32(p + kOffSrcAid, src_aid);
    std::memcpy(p + kOffSrcEphid, src_ephid.data(), 16);
    std::memcpy(p + kOffDstEphid, dst_ephid.data(), 16);
    store_be32(p + kOffDstAid, dst_aid);
    std::memset(p + kOffMac, 0, kMacSize);  // stamped in place after finish()
    p[kOffProto] = static_cast<std::uint8_t>(proto);
    p[kOffFlags] = nonce ? kFlagHasNonce : 0;
    if (nonce) store_be64(p + kOffExt, *nonce);
    len_ = base_ = payload_off_;
  }

  std::size_t payload_size() const { return len_ - payload_off_; }

  /// Patches the payload-length field and hands the image over as a
  /// PacketBuf (same builder contract as Packet::seal(): payload clamped
  /// to the u16 length field so the emitted image always binds). The
  /// writer is empty afterwards.
  PacketBuf finish() {
    if (payload_size() > 0xFFFF) len_ = payload_off_ + 0xFFFF;  // clamp
    store_be16(buf_.data() + kOffPayloadLen,
               static_cast<std::uint16_t>(len_ - payload_off_));
    CopyAudit& audit = copy_audit();
    ++audit.inplace_builds;
    return PacketBuf(take(), payload_off_);
  }

 private:
  std::uint32_t payload_off_;
};

}  // namespace apna::wire
