// Registry Service — host bootstrapping (Fig 2).
//
// Authenticates the host against the subscriber registry, runs the DH
// exchange that establishes the two kHA keys, allocates a HID, issues the
// control EphID, signs id_info, provisions the AS infrastructure with
// (HID, kHA), and returns the MS/DNS service certificates.
#pragma once

#include <cstdint>

#include "core/as_state.h"
#include "core/messages.h"
#include "crypto/rng.h"
#include "net/sim.h"
#include "persist/sink.h"
#include "services/subscriber_registry.h"
#include "util/counters.h"

namespace apna::services {

class RegistryService {
 public:
  struct Config {
    /// Control EphIDs live long, "e.g., DHCP lease time" (§IV-B).
    core::ExpTime ctrl_lifetime_s = 24 * 3600;
  };

  /// Plain copyable counters — what stats() returns (same snapshot
  /// pattern as every service; the live counters are atomics).
  struct Stats {
    std::uint64_t bootstrapped = 0;
    std::uint64_t rejected_auth = 0;
    std::uint64_t hid_rotations = 0;   // identity-minting defence fired
    std::uint64_t infra_updates = 0;   // m1 messages to AS entities
  };

  RegistryService(core::AsState& as, SubscriberRegistry& subscribers,
                  net::EventLoop& loop, crypto::Rng& rng, Config cfg)
      : as_(as), subs_(subscribers), loop_(loop), rng_(rng), cfg_(cfg) {}
  RegistryService(core::AsState& as, SubscriberRegistry& subscribers,
                  net::EventLoop& loop, crypto::Rng& rng)
      : RegistryService(as, subscribers, loop, rng, Config()) {}

  /// Service certificates handed out at bootstrap (set by the AS fabric
  /// once MS/DNS/AA identities exist).
  void set_service_info(core::EphIdCertificate ms_cert,
                        core::EphIdCertificate dns_cert,
                        core::EphId aa_ephid) {
    ms_cert_ = std::move(ms_cert);
    dns_cert_ = std::move(dns_cert);
    aa_ephid_ = aa_ephid;
  }

  /// Attaches the durability hook: every host_info mutation this service
  /// makes (enrollment, HID rotation) is journaled through `sink`.
  /// nullptr (the default) keeps bootstrap free of persistence work.
  void set_persist_sink(persist::Sink* sink) { persist_ = sink; }

  /// Fig 2 end to end. Runs over the host's physical attachment (layer 2),
  /// before the host holds any EphID.
  Result<core::BootstrapResponse> bootstrap(const core::BootstrapRequest& req);

  /// HID allocation, also used for infrastructure identities.
  core::Hid allocate_hid() { return next_hid_++; }

  Stats stats() const { return counters_.snapshot(); }

 private:
  core::AsState& as_;
  SubscriberRegistry& subs_;
  net::EventLoop& loop_;
  crypto::Rng& rng_;
  Config cfg_;
  core::Hid next_hid_ = 1;
  persist::Sink* persist_ = nullptr;
  core::EphIdCertificate ms_cert_;
  core::EphIdCertificate dns_cert_;
  core::EphId aa_ephid_;
  util::Counters<Stats> counters_;
};

}  // namespace apna::services
