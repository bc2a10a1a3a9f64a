// Minimal expected-style result type for protocol-level failures.
//
// APNA operations fail for well-defined protocol reasons (expired EphID,
// revoked host, bad MAC, ...). Those are normal control flow, not
// exceptions, so protocol APIs return Result<T>. Programmer errors still
// assert/throw.
#pragma once

#include <cassert>
#include <optional>
#include <utility>
#include <variant>

namespace apna {

/// Protocol error codes. Each maps to a drop/abort condition in the paper's
/// pseudo-code (Figs. 2-5) or to a local API misuse that callers can handle.
enum class Errc {
  ok = 0,
  expired,            // EphID or certificate past ExpTime (Fig 4 checks)
  revoked,            // EphID or HID on a revocation list
  unknown_host,       // HID not in host_info
  bad_mac,            // packet MAC verification failed
  bad_signature,      // certificate / shutoff signature invalid
  bad_certificate,    // malformed or untrusted certificate
  decrypt_failed,     // AEAD open or EphID open failed
  malformed,          // wire format violation
  unauthorized,       // shutoff requester not the packet recipient, etc.
  no_route,           // no path to destination AID / HID
  too_big,            // packet exceeds the link MTU (§II-C PMTUD)
  replayed,           // anti-replay window rejected the packet
  exhausted,          // resource limit (EphID pool, table size) hit
  not_found,          // DNS name or mapping absent
  internal,           // invariant violation surfaced as an error
};

/// Human-readable error code name (stable; used in logs and tests).
inline const char* errc_name(Errc e) {
  switch (e) {
    case Errc::ok: return "ok";
    case Errc::expired: return "expired";
    case Errc::revoked: return "revoked";
    case Errc::unknown_host: return "unknown_host";
    case Errc::bad_mac: return "bad_mac";
    case Errc::bad_signature: return "bad_signature";
    case Errc::bad_certificate: return "bad_certificate";
    case Errc::decrypt_failed: return "decrypt_failed";
    case Errc::malformed: return "malformed";
    case Errc::unauthorized: return "unauthorized";
    case Errc::no_route: return "no_route";
    case Errc::too_big: return "too_big";
    case Errc::replayed: return "replayed";
    case Errc::exhausted: return "exhausted";
    case Errc::not_found: return "not_found";
    case Errc::internal: return "internal";
  }
  return "unknown";
}

/// `detail` is a static string (every call site passes a literal), so a
/// drop arm on the forwarding path never touches the heap.
struct Error {
  Errc code = Errc::internal;
  const char* detail = "";
};

/// Result<T>: either a value or an Error. `Result<void>` specializes below.
template <typename T>
class Result {
 public:
  Result(T value) : v_(std::move(value)) {}           // NOLINT(implicit)
  Result(Error e) : v_(std::move(e)) {}               // NOLINT(implicit)
  Result(Errc c, const char* detail = "") : v_(Error{c, detail}) {}

  bool ok() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return ok(); }

  const T& value() const {
    assert(ok());
    return std::get<T>(v_);
  }
  T& value() {
    assert(ok());
    return std::get<T>(v_);
  }
  T take() {
    assert(ok());
    return std::move(std::get<T>(v_));
  }
  const Error& error() const {
    assert(!ok());
    return std::get<Error>(v_);
  }
  Errc code() const { return ok() ? Errc::ok : error().code; }

  const T& operator*() const { return value(); }
  const T* operator->() const { return &value(); }
  T& operator*() { return value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Error> v_;
};

template <>
class Result<void> {
 public:
  Result() = default;
  Result(Error e) : err_(std::move(e)) {}  // NOLINT(implicit)
  Result(Errc c, const char* detail = "") : err_(Error{c, detail}) {}

  static Result success() { return Result(); }

  bool ok() const { return !err_.has_value(); }
  explicit operator bool() const { return ok(); }
  const Error& error() const {
    assert(!ok());
    return *err_;
  }
  Errc code() const { return ok() ? Errc::ok : err_->code; }

 private:
  std::optional<Error> err_;
};

}  // namespace apna
