#include "wire/apna_header.h"

namespace apna::wire {

Bytes Packet::serialize() const {
  Writer w(wire_size());
  w.u32(src_aid);
  w.raw(src_ephid);
  w.raw(dst_ephid);
  w.u32(dst_aid);
  w.raw(mac);
  w.u8(static_cast<std::uint8_t>(proto));
  w.u8(flags);
  const std::size_t body = wire_payload_size();
  w.u16(static_cast<std::uint16_t>(body));
  if (has_nonce()) w.u64(nonce);
  if (has_path_stamp()) {
    const std::size_t stamps = wire_stamp_count();
    w.u8(static_cast<std::uint8_t>(stamps));
    for (std::size_t i = 0; i < stamps; ++i) w.u32(path_stamp[i]);
  }
  w.raw(ByteSpan(payload.data(), body));
  return w.take();
}

std::size_t Packet::write_mac_preamble(
    std::uint8_t out[kMacPreambleMax]) const {
  std::uint8_t* p = out;
  store_be32(p, src_aid);
  p += 4;
  std::memcpy(p, src_ephid.data(), 16);
  p += 16;
  std::memcpy(p, dst_ephid.data(), 16);
  p += 16;
  store_be32(p, dst_aid);
  p += 4;
  *p++ = static_cast<std::uint8_t>(proto);
  // The path stamp (and its flag bit) are appended by routers in flight,
  // so the source MAC must not cover them (§VIII-C).
  *p++ = static_cast<std::uint8_t>(flags & ~kFlagHasPathStamp);
  store_be16(p, static_cast<std::uint16_t>(wire_payload_size()));
  p += 2;
  if (has_nonce()) {
    store_be64(p, nonce);
    p += 8;
  }
  return static_cast<std::size_t>(p - out);
}

Result<Packet> Packet::parse(ByteSpan data) {
  Reader r(data);
  Packet p;

  auto src_aid = r.u32();
  if (!src_aid) return src_aid.error();
  p.src_aid = *src_aid;

  auto src_eph = r.arr<16>();
  if (!src_eph) return src_eph.error();
  p.src_ephid = *src_eph;

  auto dst_eph = r.arr<16>();
  if (!dst_eph) return dst_eph.error();
  p.dst_ephid = *dst_eph;

  auto dst_aid = r.u32();
  if (!dst_aid) return dst_aid.error();
  p.dst_aid = *dst_aid;

  auto mac = r.arr<kMacSize>();
  if (!mac) return mac.error();
  p.mac = *mac;

  auto proto = r.u8();
  if (!proto) return proto.error();
  if (*proto > static_cast<std::uint8_t>(NextProto::shutoff))
    return Result<Packet>(Errc::malformed, "unknown next-proto");
  p.proto = static_cast<NextProto>(*proto);

  auto flags = r.u8();
  if (!flags) return flags.error();
  if ((*flags & ~(kFlagHasNonce | kFlagHasPathStamp)) != 0)
    return Result<Packet>(Errc::malformed, "unknown flag bits");
  p.flags = *flags;

  auto len = r.u16();
  if (!len) return len.error();

  if (p.has_nonce()) {
    auto nonce = r.u64();
    if (!nonce) return nonce.error();
    p.nonce = *nonce;
  }

  if (p.has_path_stamp()) {
    auto count = r.u8();
    if (!count) return count.error();
    p.path_stamp.reserve(*count);
    for (std::uint8_t i = 0; i < *count; ++i) {
      auto aid = r.u32();
      if (!aid) return aid.error();
      p.path_stamp.push_back(*aid);
    }
  }

  auto payload = r.raw(*len);
  if (!payload) return payload.error();
  p.payload.assign(payload->begin(), payload->end());

  if (!r.done())
    return Result<Packet>(Errc::malformed, "trailing bytes after payload");
  return p;
}

}  // namespace apna::wire
