// Zero-copy packet representation: one contiguous wire image per packet.
//
// The forwarding fast path (Fig 4 / §IV-D3) must run at line rate, which in
// software means: no per-packet heap allocation, no re-serialization at
// layer boundaries, no parse-by-copy. The transport, router, host and
// gateway layers therefore traffic in two types built around a single flat
// buffer holding the serialized Fig-7 header ‖ extension ‖ payload:
//
//  * PacketBuf  — the owning handle. Its storage comes from (and returns
//    to) BufferPool, a per-thread free-list, so steady-state traffic
//    recycles buffers instead of hitting operator new. Move-only: exactly
//    one owner at any time; moving a PacketBuf through the stack IS the
//    packet changing hands.
//  * PacketView — the non-owning parsed view: fixed-offset accessors plus
//    ByteSpan slices into the buffer, produced by the bounds-checking
//    bind(). A view never outlives the buffer (or Bytes) it was bound to.
//
// wire::Packet remains as the owned BUILDER for control-message
// construction; Packet::seal() -> PacketBuf and PacketView::to_owned() ->
// Packet are the explicit — and audited (copy_audit()) — copy points.
// Everything else (MAC stamp/verify, replay-nonce reads, EphID field
// access, NAT AID rewrites) operates in place on the wire image.
//
// Wire layout (fixed offsets; Fig 7 header + documented extension prefix):
//
//     off  0  src_aid      4 B
//     off  4  src_ephid   16 B
//     off 20  dst_ephid   16 B
//     off 36  dst_aid      4 B
//     off 40  mac          8 B        (the only field a host stamps late)
//     off 48  next-proto   1 B  ┐
//     off 49  flags        1 B  │ extension prefix
//     off 50  payload len  2 B  ┘
//     off 52  [nonce 8 B if kFlagHasNonce]
//             [count 1 B + count×4 B AIDs if kFlagHasPathStamp]
//             payload
#pragma once

#include <cstdint>

#include "util/bytes.h"
#include "util/result.h"
#include "wire/apna_header.h"

namespace apna::wire {

// Fixed field offsets into the wire image.
constexpr std::size_t kOffSrcAid = 0;
constexpr std::size_t kOffSrcEphid = 4;
constexpr std::size_t kOffDstEphid = 20;
constexpr std::size_t kOffDstAid = 36;
constexpr std::size_t kOffMac = 40;
constexpr std::size_t kOffProto = 48;
constexpr std::size_t kOffFlags = 49;
constexpr std::size_t kOffPayloadLen = 50;
constexpr std::size_t kOffExt = 52;
/// Header + mandatory extension prefix: the smallest bindable packet.
constexpr std::size_t kMinWireSize = kOffExt;
/// Every defined HeaderFlags bit; bind()/parse() reject the rest.
constexpr std::uint8_t kKnownFlagsMask = kFlagHasNonce | kFlagHasPathStamp;

/// Copy accounting for the explicit copy points (per thread). The router
/// fast path must keep `copies`/`to_owned` flat while forwarding — tests
/// and bench_e2 read these to prove it (and to report copied bytes/packet).
struct CopyAudit {
  std::uint64_t seals = 0;          // Packet::seal() serializations
  std::uint64_t seal_bytes = 0;
  std::uint64_t copies = 0;         // PacketBuf::copy_of() buffer copies
  std::uint64_t copy_bytes = 0;
  std::uint64_t to_owned = 0;       // PacketView::to_owned() deep parses
  std::uint64_t to_owned_bytes = 0;
  std::uint64_t inplace_builds = 0; // PacketWriter::finish() — encoded in
                                    // place, no intermediate payload copy
};
CopyAudit& copy_audit();  // mutable thread-local instance

/// Non-owning parsed view over one contiguous wire image.
///
/// bind() validates structure exactly once; afterwards every accessor is a
/// bounds-safe fixed-offset load. A PacketView is two pointers wide — pass
/// it by value, but never let it outlive the PacketBuf/Bytes it views.
class PacketView {
 public:
  PacketView() = default;

  /// Binds a view over `data`, validating the same invariants
  /// Packet::parse enforces (exact length, known proto/flags, extension
  /// consistency). bind(x) and Packet::parse(x) accept/reject identical
  /// inputs — pinned by wire_test round-trip/truncation properties.
  static Result<PacketView> bind(ByteSpan data);

  bool valid() const { return data_ != nullptr; }
  ByteSpan bytes() const { return ByteSpan(data_, size_); }
  std::size_t wire_size() const { return size_; }

  Aid src_aid() const { return load_be32(data_ + kOffSrcAid); }
  Aid dst_aid() const { return load_be32(data_ + kOffDstAid); }
  EphIdBytes src_ephid() const { return read_ephid(kOffSrcEphid); }
  EphIdBytes dst_ephid() const { return read_ephid(kOffDstEphid); }
  ByteSpan src_ephid_span() const { return ByteSpan(data_ + kOffSrcEphid, 16); }
  ByteSpan dst_ephid_span() const { return ByteSpan(data_ + kOffDstEphid, 16); }
  ByteSpan mac_span() const { return ByteSpan(data_ + kOffMac, kMacSize); }

  NextProto proto() const { return static_cast<NextProto>(data_[kOffProto]); }
  std::uint8_t flags() const { return data_[kOffFlags]; }
  bool has_nonce() const { return (flags() & kFlagHasNonce) != 0; }
  /// Valid iff has_nonce().
  std::uint64_t nonce() const { return load_be64(data_ + kOffExt); }

  bool has_path_stamp() const { return (flags() & kFlagHasPathStamp) != 0; }
  std::size_t path_stamp_count() const {
    return has_path_stamp() ? data_[stamp_off()] : 0;
  }
  Aid path_stamp_at(std::size_t i) const {
    return load_be32(data_ + stamp_off() + 1 + 4 * i);
  }

  ByteSpan payload() const {
    return ByteSpan(data_ + payload_off_, size_ - payload_off_);
  }

  /// Offset of the path-stamp region (== payload offset when no stamp).
  std::size_t stamp_off() const { return kOffExt + (has_nonce() ? 8 : 0); }

  /// Writes the MAC-covered header fields (identical bytes to
  /// Packet::write_mac_preamble) and returns the count. The path stamp and
  /// its flag bit are excluded — routers modify them in flight (§VIII-C).
  std::size_t write_mac_preamble(
      std::uint8_t out[Packet::kMacPreambleMax]) const;

  /// EXPLICIT deep copy into the owned builder form (audited). Control
  /// paths only; the forwarding path must never call this.
  Packet to_owned() const;

 private:
  friend class PacketBuf;

  EphIdBytes read_ephid(std::size_t off) const {
    EphIdBytes out;
    std::memcpy(out.data(), data_ + off, out.size());
    return out;
  }

  const std::uint8_t* data_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint32_t payload_off_ = 0;
};

/// Per-thread buffer free-list. acquire() reuses a released buffer's
/// capacity when one is available (a "hit": no heap allocation in steady
/// state); release() retains up to a bounded number of buffers.
///
/// One pool per thread (BufferPool::local()) — no locks, no cross-thread
/// contention. PacketBuf never stores a pool pointer: storage is returned
/// to the RELEASING thread's pool, so buffers may migrate between threads
/// freely and there is no pool-lifetime hazard.
class BufferPool {
 public:
  struct Stats {
    std::uint64_t hits = 0;      // acquire served from the free-list
    std::uint64_t misses = 0;    // acquire had to allocate
    std::uint64_t recycled = 0;  // release kept the buffer
  };

  /// This thread's pool.
  static BufferPool& local();

  /// The most buffers release() keeps; beyond it a released buffer is
  /// freed, so a thread that holds more at once allocates again.
  static constexpr std::size_t kMaxRetained = 4096;

  Bytes acquire(std::size_t size);
  void release(Bytes&& buf);

  const Stats& stats() const { return stats_; }
  /// Drops all retained buffers (tests that measure cold-start behavior).
  void trim();

 private:
  std::vector<Bytes> free_;
  Stats stats_;
};

/// Owning handle to one pooled wire image. Move-only; the destructor
/// returns the storage to the current thread's BufferPool.
class PacketBuf {
 public:
  PacketBuf() = default;
  ~PacketBuf();

  PacketBuf(PacketBuf&& other) noexcept
      : buf_(std::move(other.buf_)), view_(other.view_) {
    other.view_ = PacketView();
  }
  PacketBuf& operator=(PacketBuf&& other) noexcept;
  PacketBuf(const PacketBuf&) = delete;
  PacketBuf& operator=(const PacketBuf&) = delete;

  /// Takes ownership of an already-serialized wire image (e.g. bytes that
  /// arrived from outside the process), validating it via bind().
  static Result<PacketBuf> adopt(Bytes wire);

  /// EXPLICIT pooled copy of a view's bytes (audited). This is the one
  /// copy a transport edge makes when it must extend a packet's lifetime
  /// beyond its caller's buffer — a memcpy into recycled storage, not a
  /// heap allocation in steady state.
  static PacketBuf copy_of(const PacketView& v);

  bool empty() const { return !view_.valid(); }
  const PacketView& view() const { return view_; }
  std::size_t wire_size() const { return view_.wire_size(); }

  /// The raw image, for in-place mutation (fault-injection taps, tests).
  /// A mutation that can change the STRUCTURE (the flags byte, the payload
  /// length field, a stamp count) desynchronizes the cached view — call
  /// rebind() afterwards and treat failure as a corrupt frame. Payload /
  /// fixed-field mutations need no rebind.
  MutByteSpan mutable_bytes() { return MutByteSpan(buf_.data(), buf_.size()); }

  /// Re-validates the (possibly mutated) image and refreshes the view.
  /// Errc::malformed ⇒ the bytes no longer parse; the view is unchanged
  /// and the buffer must not be interpreted as a packet any more.
  Result<void> rebind();

  // ---- In-place fixed-offset writes (the data-plane mutations) -------------
  void set_mac(ByteSpan mac8) {
    std::memcpy(buf_.data() + kOffMac, mac8.data(), kMacSize);
  }
  void set_src_aid(Aid aid) { store_be32(buf_.data() + kOffSrcAid, aid); }
  void set_dst_aid(Aid aid) { store_be32(buf_.data() + kOffDstAid, aid); }

 private:
  friend struct Packet;
  friend class PacketWriter;  // wire/msg_codec.h — direct in-place builds
  friend PacketBuf append_path_stamp(const PacketView&, Aid);

  /// `buf` must already be a valid wire image; `payload_off` its parsed
  /// payload offset (callers have just built or bound it).
  PacketBuf(Bytes buf, std::uint32_t payload_off);

  Bytes buf_;
  PacketView view_;
};

/// §VIII-C path stamping without re-serialization: splices `aid` into (a
/// pooled copy of) the stamp list, setting the flag if absent. The payload
/// and all MAC-covered bytes are byte-identical to the input. When the
/// stamp list is already full (255 entries — attacker-fillable, since the
/// stamp is unauthenticated), the packet is forwarded as a plain copy
/// WITHOUT this AS's AID: dropping it would hand an attacker a
/// stamp-stuffing DoS, so availability wins and only the §VIII-C on-path
/// shutoff authorization for this AS is lost for that packet.
PacketBuf append_path_stamp(const PacketView& v, Aid aid);

}  // namespace apna::wire
