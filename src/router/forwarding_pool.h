// ForwardingPool — the border router's M-worker data plane.
//
// Bursts are std::span<const wire::PacketView>: the caller owns the
// buffers; workers only read the wire images in place. Classification is
// allocation-free; the action phase (BorderRouter::apply_*_verdicts, the
// same one the simulator's on_outgoing/on_ingress run) hands each
// forwarded packet to the callbacks as one pooled copy and, once the
// router has an identity, answers offenders with ICMP feedback (§VIII-B).
//
// The paper sizes the forwarding experiment on a 16-core commodity server
// (§V-B3) and reaches line rate because every per-packet operation is
// symmetric crypto plus two table lookups (design choice 3). This pool is
// the software analogue of that device's RSS/receive-side scaling — and
// like RSS it steers by FLOW, not by position: the calling thread scatters
// each burst into one RX ring per thread by the flow EphID
// (core/flow_steer.h), the threads of a util::ChunkPool each claim rings
// and run them to completion (classify, against the ring's own hot
// FlowCache), and then the forwarding actions — the TX side — are executed
// in burst order on the CALLING thread. So the single-threaded simulator
// event loop (or a real socket RX loop) can drive the pool without its
// callbacks ever running concurrently. A flow maps to one ring, so its
// cache entry lives in exactly one cache
// (flow_cache_stats().cross_worker_duplicates stays zero).
//
// Threading model (see ARCHITECTURE.md "Concurrency model"):
//  * Config::threads is the TOTAL processing parallelism: threads-1
//    background workers plus the calling thread, which claims rings like
//    any worker while it waits. Any thread may run any ring, but a ring runs
//    on one thread per burst, under its lock, so each FlowCache keeps one
//    user at a time. threads == 1 means one ring and no background worker:
//    the caller classifies the whole burst in place. Every pool shape and
//    burst size runs the same kernel, so there is nothing else to configure.
//  * Each ring owns a Stats slot; stats() merges the rings (ring 0 also
//    holds the action-phase counters: forwards, handoff failures, ICMP
//    feedback and its local delivery) on read, taking each ring's lock, so
//    it is safe to call concurrently with processing. The pool never
//    writes the router's own BorderRouter::stats().
//  * process_*() may not be called concurrently from two threads (one
//    in-flight burst at a time; the simulator/benchmark driver is one
//    thread by construction).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "router/border_router.h"
#include "util/chunk_pool.h"

namespace apna::router {

class ForwardingPool {
 public:
  struct Config {
    /// Total processing threads (calling thread included). 0 → one per
    /// hardware thread.
    std::size_t threads = 0;
    /// Per-ring verified-flow cache capacity (entries); 0 disables the
    /// caches. Each ring owns its own core::FlowCache — never shared by two
    /// threads at once; revocations invalidate via AsState::epoch.
    std::size_t flow_cache_entries = 4096;
  };

  explicit ForwardingPool(BorderRouter& br) : ForwardingPool(br, Config()) {}
  ForwardingPool(BorderRouter& br, Config cfg);

  ForwardingPool(const ForwardingPool&) = delete;
  ForwardingPool& operator=(const ForwardingPool&) = delete;

  /// Classifies the egress burst across all processing threads, then runs
  /// the forwarding actions (send_external, ICMP feedback) on the calling
  /// thread in burst order. Blocks until the burst is fully processed.
  void process_outgoing(std::span<const wire::PacketView> burst,
                        core::ExpTime now);

  /// Ingress twin: transit + local delivery.
  void process_ingress(std::span<const wire::PacketView> burst, core::ExpTime now);

  /// Per-ring stats merged on read (classification drops from every ring
  /// + action-phase forward/deliver/transit/ICMP counters).
  BorderRouter::Stats stats() const;

  /// Per-ring flow-cache counters merged on read (hit rate of the
  /// verified-flow caches across all rings), plus the steering-quality
  /// probe: cross_worker_duplicates counts EphIDs currently cached by more
  /// than one ring (0 under flow-hash steering).
  core::FlowCache::Stats flow_cache_stats() const;

  /// Total processing threads (callers + workers).
  std::size_t threads() const { return rings_.size(); }

 private:
  struct alignas(64) Ring {
    mutable std::mutex mu;
    BorderRouter::Stats stats;
    /// This ring's verified-flow cache (null when disabled), only touched
    /// under the ring lock.
    std::unique_ptr<core::FlowCache> cache;
    /// Burst indices steered to this ring, written by the calling thread
    /// before the burst is handed to the ChunkPool (whose lock orders them
    /// ahead of the claim). gather/scratch are reusable buffers —
    /// allocation-free once warm.
    std::vector<std::uint32_t> indices;
    std::vector<wire::PacketView> gather;
    std::vector<BorderRouter::Verdict> scratch;
  };

  void process_burst(std::span<const wire::PacketView> burst, core::ExpTime now,
                     bool ingress);
  /// One classify pass over `burst` against ring `r`'s stats and cache
  /// (caller holds r.mu).
  void classify(Ring& r, std::span<const wire::PacketView> burst,
                core::ExpTime now, bool ingress,
                std::span<BorderRouter::Verdict> out);
  /// Runs one steered ring to completion: gather its views, classify them
  /// in one pass, scatter the verdicts back to burst order (rings partition
  /// the burst, so no two rings write the same verdict).
  void run_ring(Ring& r, std::span<const wire::PacketView> burst,
                core::ExpTime now, bool ingress);

  BorderRouter& br_;
  std::vector<Ring> rings_;  // one per processing thread
  std::vector<BorderRouter::Verdict> verdict_buf_;
  util::ChunkPool pool_;  // last: joins its workers before the rings go
};

}  // namespace apna::router
