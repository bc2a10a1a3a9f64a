// Control-plane service fabric: the common service interface, the per-AS
// dispatcher, and the M-worker issuance/verification pool.
//
// The paper's §V-A measures the Management Service as the control-plane
// bottleneck and parallelizes it across 4 processes; this header is that
// parallelization as a first-class runtime:
//
//  * ControlService   — what an AS-operated broker service IS to the
//    fabric: an addressable EphID endpoint that turns one inbound control
//    packet into at most one reply. MS, AA and DNS implement it. (The
//    Registry Service stays outside: Fig 2 bootstrap runs over the host's
//    physical attachment BEFORE the host holds any EphID, so it is never
//    reachable through packet dispatch.)
//  * ServiceDispatcher — routes inbound control packets to the service
//    owning the destination EphID and forwards replies through the AS
//    fabric. One instance per AS, event-loop resident.
//  * ServicePool      — fans bursts of independent control-plane jobs
//    (EphID issuance, shutoff verification) across M worker threads on a
//    util::ChunkPool, kChunkJobs jobs per claimed chunk. Job results are
//    deterministic and thread-count independent: request i of a burst gets
//    reply nonce i of the burst's reserved block, which also fixes its
//    EphID IV, so a 4-worker pool emits bit-identical responses to a
//    single-threaded loop (pinned by control_plane_test). Per-slot
//    counters are summed on read.
//
// Threading model (see ARCHITECTURE.md "Concurrency model"): dispatcher on
// the event loop only; ServicePool::process_* may not be called from two
// threads at once (one in-flight burst), but the underlying service state
// (sharded AsState, immutable key schedules, atomic counters) is safe for
// the M concurrent workers.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/ids.h"
#include "core/messages.h"
#include "util/chunk_pool.h"
#include "util/counters.h"
#include "util/result.h"
#include "wire/packet_buf.h"

namespace apna::services {

class ManagementService;
class AccountabilityAgent;

/// One AS-operated broker service as the fabric sees it: an EphID-addressed
/// endpoint turning an inbound control packet into at most one reply.
class ControlService {
 public:
  virtual ~ControlService() = default;

  /// Routing key — packets whose destination EphID equals this belong here.
  virtual const core::EphId& service_ephid() const = 0;
  /// The service's infrastructure HID (its intra-AS switch port).
  virtual core::Hid service_hid() const = 0;
  virtual const char* service_name() const = 0;

  /// Handles one inbound packet (view into the caller-owned buffer) and
  /// returns the reply packet, or an error for request packets that
  /// produce no reply at all (drops).
  virtual Result<wire::PacketBuf> handle_packet(const wire::PacketView& pkt) = 0;
};

/// Per-AS control-packet router: destination EphID → ControlService.
/// Event-loop resident (dispatch is not called concurrently); the counters
/// are still atomics so stats() can be read from anywhere.
class ServiceDispatcher {
 public:
  using ReplyFn = std::function<void(wire::PacketBuf)>;

  /// Plain copyable counters (returned by stats()).
  struct Stats {
    std::uint64_t dispatched = 0;      // packets routed to a service
    std::uint64_t replies = 0;         // replies forwarded into the fabric
    std::uint64_t unrouted = 0;        // no service owns the dst EphID
    std::uint64_t service_errors = 0;  // service produced no reply
  };

  explicit ServiceDispatcher(ReplyFn reply) : reply_(std::move(reply)) {}

  void add(ControlService& svc) { by_ephid_[svc.service_ephid()] = &svc; }

  ControlService* route(const core::EphId& dst_ephid) const {
    auto it = by_ephid_.find(dst_ephid);
    return it == by_ephid_.end() ? nullptr : it->second;
  }

  /// Full inbound path: route by destination EphID, invoke the service on
  /// a view of the (owned) buffer, forward the reply. Consumes the packet.
  void dispatch(wire::PacketBuf pkt);

  Stats stats() const { return counters_.snapshot(); }
  std::size_t service_count() const { return by_ephid_.size(); }

 private:
  std::unordered_map<core::EphId, ControlService*, core::EphIdHash> by_ephid_;
  ReplyFn reply_;
  util::Counters<Stats> counters_;
};

/// M-worker pool for bursts of independent control-plane jobs on a
/// util::ChunkPool: Config::threads is the TOTAL parallelism (threads-1
/// background workers plus the calling thread, which claims chunks while
/// it waits; threads == 1 runs every chunk on the caller).
class ServicePool {
 public:
  struct Config {
    /// Total processing threads (calling thread included). 0 → one per
    /// hardware thread.
    std::size_t threads = 0;
  };

  /// Jobs per claimed chunk. Also the batch width of the per-chunk
  /// ed25519_verify_batch PoP sweep: 16 amortizes the shared point
  /// doublings across the whole chunk.
  static constexpr std::size_t kChunkJobs = 16;

  /// Plain copyable counters, summed across worker slots on read.
  struct Stats {
    std::uint64_t issuance_jobs = 0;
    std::uint64_t shutoff_jobs = 0;
    std::uint64_t failed_jobs = 0;
  };

  /// `aa` may be null when only issuance bursts are processed.
  ServicePool(ManagementService& ms, AccountabilityAgent* aa, Config cfg);
  explicit ServicePool(ManagementService& ms)
      : ServicePool(ms, nullptr, Config()) {}

  ServicePool(const ServicePool&) = delete;
  ServicePool& operator=(const ServicePool&) = delete;

  /// One Fig 3 issuance request: the requesting control EphID plus the
  /// E_kHA-sealed EphIdRequest. The caller owns the request bytes for the
  /// duration of the call.
  struct IssueJob {
    core::EphId ctrl;
    ByteSpan sealed_request;
  };

  /// Issues the whole burst across all processing threads; results[i] is
  /// the sealed response (or error) for burst[i]. Blocks until done.
  /// Deterministic: a contiguous block of reply nonces is reserved up
  /// front and request i uses nonce0+i, as its reply nonce and as the
  /// counter its EphID IV is derived from.
  void process_issuance(std::span<const IssueJob> burst, core::ExpTime now,
                        std::span<Result<Bytes>> results);

  /// Shutoff-verification twin (Fig 5 validation pipeline per request).
  /// Requires an AccountabilityAgent; results[i] is process(burst[i]).
  void process_shutoffs(std::span<const core::ShutoffRequest> burst,
                        core::ExpTime now, std::span<Result<void>> results);

  Stats stats() const;
  std::size_t threads() const { return pool_.threads(); }

 private:
  /// One chunk of an issuance burst: `jobs` and `results` are the chunk's
  /// slices, and `nonce0` is the reply nonce of its first request.
  void issue_chunk(std::size_t slot, std::span<const IssueJob> jobs,
                   core::ExpTime now, std::uint64_t nonce0,
                   std::span<Result<Bytes>> results);

  struct alignas(64) Slot {
    util::Counters<Stats> stats;
  };

  ManagementService& ms_;
  AccountabilityAgent* aa_;
  std::vector<Slot> slots_;
  util::ChunkPool pool_;  // after slots_: destroyed (workers joined) first
};

}  // namespace apna::services
