#include "dns/dns_wire.h"

namespace apna::dns {
namespace {

// Frame discriminators (first byte on the wire).
constexpr std::uint8_t kKindQuery = 0;
constexpr std::uint8_t kKindResponse = 1;

constexpr bool canonical_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-' ||
         c == '_';
}

}  // namespace

std::string canonical_name(std::string_view name) {
  std::string out(name);
  for (char& c : out)
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  return out;
}

Result<void> validate_name(std::string_view name) {
  if (name.empty())
    return Result<void>(Errc::malformed, "empty DNS name");
  if (encoded_name_size(name) > kMaxNameLen)
    return Result<void>(Errc::malformed, "DNS name too long");
  std::size_t label = 0;
  for (const char c : name) {
    if (c == '.') {
      if (label == 0)
        return Result<void>(Errc::malformed, "empty DNS label");
      label = 0;
      continue;
    }
    if (!canonical_char(c))
      return Result<void>(Errc::malformed, "non-canonical DNS name byte");
    if (++label > kMaxLabelLen)
      return Result<void>(Errc::malformed, "DNS label too long");
  }
  if (label == 0)  // trailing dot (or lone dot)
    return Result<void>(Errc::malformed, "empty DNS label");
  return Result<void>::success();
}

Result<void> encode_name(wire::MsgWriter& w, std::string_view name) {
  if (auto ok = validate_name(name); !ok) return ok;  // fail writing nothing
  std::size_t start = 0;
  while (start <= name.size()) {
    std::size_t dot = name.find('.', start);
    if (dot == std::string_view::npos) dot = name.size();
    w.u8(static_cast<std::uint8_t>(dot - start));
    w.raw(ByteSpan(reinterpret_cast<const std::uint8_t*>(name.data()) + start,
                   dot - start));
    start = dot + 1;
  }
  w.u8(0);  // root
  return Result<void>::success();
}

Result<std::string> decode_name(wire::Reader& r) {
  std::string out;
  std::size_t encoded = 0;
  for (;;) {
    auto len = r.u8();
    if (!len) return len.error();
    ++encoded;
    if (*len == 0) break;
    if (*len > kMaxLabelLen)
      return Result<std::string>(Errc::malformed, "DNS label too long");
    encoded += *len;
    if (encoded > kMaxNameLen)
      return Result<std::string>(Errc::malformed, "DNS name too long");
    auto label = r.raw(*len);
    if (!label) return label.error();
    if (!out.empty()) out.push_back('.');
    for (const std::uint8_t b : *label) {
      if (!canonical_char(static_cast<char>(b)))
        return Result<std::string>(Errc::malformed,
                                   "non-canonical DNS name byte");
      out.push_back(static_cast<char>(b));
    }
  }
  if (out.empty())
    return Result<std::string>(Errc::malformed, "empty DNS name");
  return out;
}

// ---- QueryFrame --------------------------------------------------------------

Result<void> QueryFrame::encode(wire::MsgWriter& w) const {
  if (auto ok = validate_name(name); !ok) return ok;
  w.u8(kKindQuery);
  w.u16(id);
  return encode_name(w, name);
}

Result<QueryFrame> QueryFrame::decode(wire::Reader& r) {
  auto kind = r.u8();
  if (!kind) return kind.error();
  if (*kind != kKindQuery)
    return Result<QueryFrame>(Errc::malformed, "not a DNS query frame");
  auto id = r.u16();
  if (!id) return id.error();
  auto name = decode_name(r);
  if (!name) return name.error();
  QueryFrame q;
  q.id = *id;
  q.name = std::move(*name);
  return q;
}

// ---- ResponseFrame -----------------------------------------------------------

Result<void> ResponseFrame::encode(wire::MsgWriter& w) const {
  if (auto ok = validate_name(name); !ok) return ok;
  if (record.has_value() != (rcode == Rcode::ok))
    return Result<void>(Errc::malformed, "record/rcode mismatch");
  w.u8(kKindResponse);
  w.u16(id);
  w.u8(static_cast<std::uint8_t>(rcode));
  w.u32(ttl);
  if (auto ok = encode_name(w, name); !ok) return ok;
  w.u8(record ? 1 : 0);
  if (record) record->encode(w);
  return Result<void>::success();
}

Result<ResponseFrame> ResponseFrame::decode(wire::Reader& r) {
  auto kind = r.u8();
  if (!kind) return kind.error();
  if (*kind != kKindResponse)
    return Result<ResponseFrame>(Errc::malformed, "not a DNS response frame");
  auto id = r.u16();
  if (!id) return id.error();
  auto rcode = r.u8();
  if (!rcode) return rcode.error();
  if (!rcode_valid(*rcode))
    return Result<ResponseFrame>(Errc::malformed, "bad DNS rcode");
  auto ttl = r.u32();
  if (!ttl) return ttl.error();
  auto name = decode_name(r);
  if (!name) return name.error();
  auto has_record = r.u8();
  if (!has_record) return has_record.error();
  if (*has_record > 1)
    return Result<ResponseFrame>(Errc::malformed, "bad record marker");
  if ((*has_record == 1) != (*rcode == 0))
    return Result<ResponseFrame>(Errc::malformed, "record/rcode mismatch");
  ResponseFrame resp;
  resp.id = *id;
  resp.rcode = static_cast<Rcode>(*rcode);
  resp.ttl = *ttl;
  resp.name = std::move(*name);
  if (*has_record) {
    auto rec = core::DnsRecord::decode(r);
    if (!rec) return rec.error();
    resp.record = std::move(*rec);
  }
  return resp;
}

}  // namespace apna::dns
