// DNS wire-format codec (§VII-A) — canonical, compression-free frames.
//
// The resolver-to-resolver forwarding path (dns/resolver.h) and the codec
// tests speak these frames; names use the classic DNS label encoding
// ([len][label]...[0], label ≤ 63 bytes, whole encoded name ≤ 255 bytes)
// with NO compression pointers: every frame is position-independent and a
// decoder never chases offsets, so truncation/mutation can only fail
// cleanly (pinned by the per-byte truncation tests).
//
// Canonical form (RFC 4034 §6.2 spirit): names are lowercase, dotted,
// without the trailing root dot. encode_name REJECTS non-canonical input
// rather than folding silently — callers canonicalize once at the edge
// (canonical_name) and everything below the resolver entry point compares
// bytes.
//
// One codec, same convention as core/messages.h: encode(MsgWriter&)
// appends a frame into pooled storage and decode(Reader&) reads one in
// place; core::decode_msg<QueryFrame/ResponseFrame> is the strict
// whole-frame entry point. tests/codec_golden_test.cpp pins the wire bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/messages.h"
#include "util/bytes.h"
#include "util/result.h"
#include "wire/codec.h"
#include "wire/msg_codec.h"

namespace apna::dns {

/// Longest single label, in bytes (the length byte holds 0..63).
inline constexpr std::size_t kMaxLabelLen = 63;
/// Longest whole encoded name, in bytes, including every length byte and
/// the root terminator.
inline constexpr std::size_t kMaxNameLen = 255;

/// Encoded size of a valid dotted name: one length byte per label plus the
/// label bytes plus the root terminator = dotted size + 2.
constexpr std::size_t encoded_name_size(std::string_view dotted) {
  return dotted.size() + 2;
}

/// Lowercases ASCII — the one canonicalization step. Resolver entry points
/// call this once; everything below compares bytes.
std::string canonical_name(std::string_view name);

/// Canonical-form check: non-empty, no empty labels (leading/trailing/
/// double dots), labels ≤ 63 bytes, encoded form ≤ 255 bytes, characters
/// limited to lowercase ASCII letters, digits, '-' and '_'.
Result<void> validate_name(std::string_view name);

/// Label-encodes `name` ([len][label]...[0]). Fails (writing nothing) on
/// non-canonical input.
Result<void> encode_name(wire::MsgWriter& w, std::string_view name);

/// Decodes one label-encoded name back to canonical dotted form. Rejects
/// oversize labels/names, empty root-only names, non-canonical bytes and
/// truncation.
Result<std::string> decode_name(wire::Reader& r);

/// Response codes (the classic RCODE values we model).
enum class Rcode : std::uint8_t {
  ok = 0,
  servfail = 2,  // upstream timeout/backoff exhausted — never cached
  nxdomain = 3,  // negative answer — cached with a bounded TTL
  refused = 5,   // domain-policy block (dns/domain_trie.h)
};

/// True for the RCODE values a decoder accepts.
constexpr bool rcode_valid(std::uint8_t v) {
  return v == 0 || v == 2 || v == 3 || v == 5;
}

/// One forwarded question: [kind=0][id][qname].
struct QueryFrame {
  std::uint16_t id = 0;  // pending-table key at the forwarding resolver
  std::string name;      // canonical dotted form

  Result<void> encode(wire::MsgWriter& w) const;
  static Result<QueryFrame> decode(wire::Reader& r);
  bool operator==(const QueryFrame&) const = default;
};

/// One answer: [kind=1][id][rcode][ttl][qname][has_record][record?].
/// The question name rides along so the querier can match answers against
/// its pending table by (id, name) — a stale or forged id alone never
/// fills the cache. A record is present iff rcode == ok.
struct ResponseFrame {
  std::uint16_t id = 0;
  Rcode rcode = Rcode::ok;
  std::uint32_t ttl = 0;  // positive TTL, or the negative bound for NXDOMAIN
  std::string name;       // echo of the question, canonical dotted form
  std::optional<core::DnsRecord> record;

  Result<void> encode(wire::MsgWriter& w) const;
  static Result<ResponseFrame> decode(wire::Reader& r);
  bool operator==(const ResponseFrame&) const = default;
};

}  // namespace apna::dns
