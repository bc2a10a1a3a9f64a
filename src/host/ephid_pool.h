// EphID pool + lifecycle management.
//
// Usage granularities (§VIII-A):
//   per_host        — one EphID for everything (cheap, fully linkable,
//                     shutoff kills every flow).
//   per_application — one EphID per application label (the AS/host can
//                     pinpoint a misbehaving application).
//   per_flow        — one EphID per flow (the paper's "typical use case").
//   per_packet      — rotate across the pool per packet (strongest privacy;
//                     demultiplexing needs extra machinery [23], which is
//                     why the pool cycles over a finite set here).
//
// Lifetime classes (§VIII-G1): every owned EphID remembers which of the
// three issuance classes it came from, so the pool can answer per-class
// questions ("how many short-term EphIDs are still usable?") and the
// EphIdLifecycleManager can keep each enabled class stocked.
//
// The lifecycle manager is the host-side control loop of Fig 3 at scale:
// a host "needs to acquire and manage EphIDs for every new flow", so it
// must renew PROACTIVELY — ahead of expiry, with jittered scheduling (so a
// whole AS's hosts do not stampede the MS at the same instant) and
// exponential backoff while the MS is failing. Rollover never rebinds a
// live session: sessions stay pinned to their issuing EphID (they hold the
// OwnedEphId pointer), while NEW flows prefer the freshest certificate.
//
// The pool also records flow→EphID assignments so experiment E7 can compute
// linkable-flow fractions and shutoff blast radius per policy.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/cert.h"
#include "core/keys.h"
#include "core/messages.h"
#include "crypto/rng.h"
#include "net/sim.h"

namespace apna::host {

enum class Granularity : std::uint8_t {
  per_host = 0,
  per_application = 1,
  per_flow = 2,
  per_packet = 3,
};

inline const char* granularity_name(Granularity g) {
  switch (g) {
    case Granularity::per_host: return "per-host";
    case Granularity::per_application: return "per-application";
    case Granularity::per_flow: return "per-flow";
    case Granularity::per_packet: return "per-packet";
  }
  return "?";
}

constexpr std::size_t kLifetimeClasses = 3;

inline std::size_t lifetime_index(core::EphIdLifetime lt) {
  return static_cast<std::size_t>(lt);
}

/// An EphID this host owns: the certificate plus the private key halves.
struct OwnedEphId {
  core::EphIdKeyPair kp;
  core::EphIdCertificate cert;
  core::EphIdLifetime lifetime = core::EphIdLifetime::short_term;
  std::uint64_t flows_assigned = 0;
  bool revoked_locally = false;  // preemptive revocation (§VIII-G2)

  bool receive_only() const { return cert.receive_only(); }
};

class EphIdPool {
 public:
  /// Adds a freshly issued EphID. Returns a stable pointer.
  const OwnedEphId* add(core::EphIdKeyPair kp, core::EphIdCertificate cert,
                        core::EphIdLifetime lifetime =
                            core::EphIdLifetime::short_term) {
    entries_.push_back(std::make_unique<OwnedEphId>());
    entries_.back()->kp = std::move(kp);
    entries_.back()->cert = std::move(cert);
    entries_.back()->lifetime = lifetime;
    return entries_.back().get();
  }

  /// Selects the source EphID for (app, flow) under `policy`. `packet_seq`
  /// drives per-packet rotation. Returns nullptr when no usable EphID
  /// exists (callers then request issuance — "a host needs to acquire and
  /// manage EphIDs for every new flow").
  OwnedEphId* pick(Granularity policy, std::string_view app,
                   std::string_view flow, std::uint64_t packet_seq,
                   core::ExpTime now) {
    switch (policy) {
      case Granularity::per_host:
        return first_usable(now);
      case Granularity::per_application:
        return sticky(std::string("app:").append(app), now);
      case Granularity::per_flow:
        return sticky(std::string("flow:").append(app).append("/").append(flow),
                      now);
      case Granularity::per_packet: {
        // Rotate over all usable EphIDs.
        std::vector<OwnedEphId*> usable = all_usable(now);
        if (usable.empty()) return nullptr;
        return usable[packet_seq % usable.size()];
      }
    }
    return nullptr;
  }

  OwnedEphId* find(const core::EphId& ephid) {
    for (auto& e : entries_)
      if (e->cert.ephid == ephid) return e.get();
    return nullptr;
  }
  const OwnedEphId* find(const core::EphId& ephid) const {
    for (const auto& e : entries_)
      if (e->cert.ephid == ephid) return e.get();
    return nullptr;
  }

  /// A serving EphID for client-server mode: usable, not receive-only,
  /// different from `contacted` (§VII-A).
  OwnedEphId* pick_serving(const core::EphId& contacted, core::ExpTime now) {
    for (auto& e : entries_) {
      if (usable(*e, now) && !(e->cert.ephid == contacted)) return e.get();
    }
    return nullptr;
  }

  std::size_t size() const { return entries_.size(); }

  std::size_t usable_count(core::ExpTime now) const {
    std::size_t n = 0;
    for (const auto& e : entries_)
      if (usable(*e, now)) ++n;
    return n;
  }

  /// Usable sendable EphIDs of one lifetime class whose certificates are
  /// still valid at `horizon` (pass `now` for plain validity; pass
  /// `now + lead` to ask "which survive the renewal lead time?").
  std::size_t usable_count(core::EphIdLifetime lt, core::ExpTime horizon) const {
    std::size_t n = 0;
    for (const auto& e : entries_)
      if (e->lifetime == lt && usable(*e, horizon)) ++n;
    return n;
  }

  /// Largest number of flows sharing one EphID — the shutoff blast radius.
  std::uint64_t max_flows_per_ephid() const {
    std::uint64_t m = 0;
    for (const auto& e : entries_) m = std::max(m, e->flows_assigned);
    return m;
  }

  const std::deque<std::unique_ptr<OwnedEphId>>& entries() const {
    return entries_;
  }

 private:
  static bool usable(const OwnedEphId& e, core::ExpTime now) {
    return !e.revoked_locally && !e.receive_only() && e.cert.exp_time >= now;
  }

  OwnedEphId* first_usable(core::ExpTime now) {
    for (auto& e : entries_)
      if (usable(*e, now)) return e.get();
    return nullptr;
  }

  std::vector<OwnedEphId*> all_usable(core::ExpTime now) {
    std::vector<OwnedEphId*> out;
    for (auto& e : entries_)
      if (usable(*e, now)) out.push_back(e.get());
    return out;
  }

  OwnedEphId* sticky(const std::string& key, core::ExpTime now) {
    if (auto it = sticky_.find(key); it != sticky_.end()) {
      if (usable(*it->second, now)) return it->second;
      sticky_.erase(it);
    }
    // Rollover policy: NEW flows prefer an unused EphID with the freshest
    // certificate, so renewal naturally drains near-expiry EphIDs without
    // rebinding the sessions still pinned to them. Otherwise reuse the
    // least-loaded (freshest on ties).
    OwnedEphId* best = nullptr;
    for (auto& e : entries_) {
      if (!usable(*e, now)) continue;
      if (!best) {
        best = e.get();
        continue;
      }
      const bool best_unused = best->flows_assigned == 0;
      const bool e_unused = e->flows_assigned == 0;
      if (e_unused != best_unused) {
        if (e_unused) best = e.get();
        continue;
      }
      if (e_unused) {
        if (e->cert.exp_time > best->cert.exp_time) best = e.get();
      } else if (e->flows_assigned < best->flows_assigned ||
                 (e->flows_assigned == best->flows_assigned &&
                  e->cert.exp_time > best->cert.exp_time)) {
        best = e.get();
      }
    }
    if (!best) return nullptr;
    best->flows_assigned++;
    sticky_[key] = best;
    return best;
  }

  std::deque<std::unique_ptr<OwnedEphId>> entries_;
  std::unordered_map<std::string, OwnedEphId*> sticky_;
};

// ---- Lifecycle management (§VIII-G1 renewal) --------------------------------

/// Renewal policy for one lifetime class.
struct RenewalPolicy {
  /// Keep at least this many usable sendable EphIDs of the class.
  std::size_t min_ready = 1;
  /// Treat an EphID as "draining" when it expires within this lead time;
  /// replacements are requested before the old certificate lapses.
  core::ExpTime lead_s = 120;
};

/// Decides WHEN to renew and HOW MANY to request; the host supplies the
/// transport (request_ephid) and the timers (net::EventLoop). Plain state
/// machine, event-loop resident — deliberately free of callbacks so it can
/// be unit-tested without a network.
class EphIdLifecycleManager {
 public:
  struct Config {
    /// Per-class policies, indexed by core::EphIdLifetime; disabled
    /// classes are never renewed.
    std::array<std::optional<RenewalPolicy>, kLifetimeClasses> classes{};
    /// Base tick cadence.
    net::TimeUs check_interval_us = 5 * net::kUsPerSecond;
    /// Uniform jitter added to every tick so a population of hosts spreads
    /// its renewal load across the interval instead of phase-locking on
    /// the MS (§V-A: issuance is the control-plane bottleneck).
    net::TimeUs jitter_us = net::kUsPerSecond;
    /// Exponential backoff cap while the MS keeps failing: the interval is
    /// stretched by 2^min(consecutive_failures, backoff_max_exp).
    std::uint32_t backoff_max_exp = 6;
    /// A renewal request with no reply after this long is written off as
    /// failed (a lost control packet, or an MS error that produces no
    /// response at all, must not pin the in-flight count forever).
    net::TimeUs request_timeout_us = 30 * net::kUsPerSecond;
  };

  struct Stats {
    std::uint64_t ticks = 0;
    std::uint64_t requested = 0;
    std::uint64_t renewed = 0;
    std::uint64_t failed = 0;
    std::uint64_t timed_out = 0;  // subset of failed: no reply at all
  };

  explicit EphIdLifecycleManager(Config cfg) : cfg_(cfg) {}

  const Config& config() const { return cfg_; }

  /// Replacements each class needs right now: the shortfall between
  /// min_ready and the EphIDs that will still be valid after the renewal
  /// lead time, minus requests already in flight. Requests older than
  /// request_timeout_us are first written off as failed (engaging the
  /// backoff), so a reply that never comes cannot wedge the planner.
  std::array<std::size_t, kLifetimeClasses> plan(const EphIdPool& pool,
                                                 core::ExpTime now,
                                                 net::TimeUs now_us) {
    ++stats_.ticks;
    expire_in_flight(now_us);
    std::array<std::size_t, kLifetimeClasses> out{};
    for (std::size_t i = 0; i < kLifetimeClasses; ++i) {
      if (!cfg_.classes[i]) continue;
      const RenewalPolicy& p = *cfg_.classes[i];
      const auto lt = static_cast<core::EphIdLifetime>(i);
      const std::size_t ready =
          pool.usable_count(lt, now + p.lead_s) + in_flight_[i].size();
      if (ready < p.min_ready) out[i] = p.min_ready - ready;
    }
    return out;
  }

  void on_requested(core::EphIdLifetime lt, net::TimeUs now_us) {
    in_flight_[lifetime_index(lt)].push_back(now_us);
    ++stats_.requested;
  }
  void on_issued(core::EphIdLifetime lt) {
    settle(lt);
    ++stats_.renewed;
    consecutive_failures_ = 0;
  }
  void on_failed(core::EphIdLifetime lt) {
    settle(lt);
    ++stats_.failed;
    ++consecutive_failures_;
  }

  /// Next tick delay: base interval stretched by the failure backoff, plus
  /// uniform jitter drawn from the (deterministic, per-host) rng.
  net::TimeUs next_delay(crypto::Rng& rng) {
    const std::uint32_t exp = std::min(
        {consecutive_failures_, cfg_.backoff_max_exp, std::uint32_t{32}});
    const net::TimeUs base = cfg_.check_interval_us << exp;
    const net::TimeUs jitter =
        cfg_.jitter_us == 0 ? 0 : rng.next_u64() % cfg_.jitter_us;
    return base + jitter;
  }

  std::uint32_t consecutive_failures() const { return consecutive_failures_; }
  std::size_t in_flight(core::EphIdLifetime lt) const {
    return in_flight_[lifetime_index(lt)].size();
  }
  const Stats& stats() const { return stats_; }

 private:
  void settle(core::EphIdLifetime lt) {
    auto& v = in_flight_[lifetime_index(lt)];
    if (!v.empty()) v.erase(v.begin());  // oldest first (FIFO replies)
  }

  void expire_in_flight(net::TimeUs now_us) {
    for (auto& v : in_flight_) {
      while (!v.empty() && v.front() + cfg_.request_timeout_us <= now_us) {
        v.erase(v.begin());
        ++stats_.failed;
        ++stats_.timed_out;
        ++consecutive_failures_;
      }
    }
  }

  Config cfg_;
  std::array<std::vector<net::TimeUs>, kLifetimeClasses> in_flight_;
  std::uint32_t consecutive_failures_ = 0;
  Stats stats_;
};

}  // namespace apna::host
