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
// like RSS it steers by FLOW, not by position: each packet is assigned to
// the worker owning its flow EphID (core/flow_steer.h), the calling thread
// scatters the burst into per-worker RX rings, and every worker runs its
// ring to completion (classify, with its own hot FlowCache) before the
// forwarding actions — the TX side — are executed in burst order on the
// CALLING thread. So the single-threaded simulator event loop (or a real
// socket RX loop) can drive the pool without its callbacks ever running
// concurrently. A flow's cache entry therefore lives in exactly one worker
// (flow_cache_stats().cross_worker_duplicates stays zero).
//
// Threading model (see ARCHITECTURE.md "Concurrency model"):
//  * Config::threads is the TOTAL processing parallelism: threads-1
//    background workers plus the calling thread, which processes ring 0
//    like any worker while it waits. threads == 1 means no background
//    workers and no rings at all: the caller classifies the whole burst in
//    place under one uncontended slot lock. Every pool shape and burst
//    size runs the same kernel, so there is nothing else to configure.
//  * Each processing context owns a Stats slot; stats() merges the slots
//    (plus the action-phase counters: forwards, handoff failures, ICMP
//    feedback and its local delivery) on read, taking each slot's lock, so
//    it is safe to call concurrently with processing. The pool never
//    writes the router's own BorderRouter::stats().
//  * process_*() may not be called concurrently from two threads (one
//    in-flight burst at a time; the simulator/benchmark driver is one
//    thread by construction).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "router/border_router.h"

namespace apna::router {

class ForwardingPool {
 public:
  struct Config {
    /// Total processing threads (calling thread included). 0 → one per
    /// hardware thread.
    std::size_t threads = 0;
    /// Per-worker verified-flow cache capacity (entries); 0 disables the
    /// caches. Each processing context owns its own core::FlowCache — no
    /// locks, no cross-thread sharing; revocations invalidate via
    /// AsState::epoch.
    std::size_t flow_cache_entries = 4096;
  };

  explicit ForwardingPool(BorderRouter& br) : ForwardingPool(br, Config()) {}
  ForwardingPool(BorderRouter& br, Config cfg);
  ~ForwardingPool();

  ForwardingPool(const ForwardingPool&) = delete;
  ForwardingPool& operator=(const ForwardingPool&) = delete;

  /// Classifies the egress burst across all processing threads, then runs
  /// the forwarding actions (send_external, ICMP feedback) on the calling
  /// thread in burst order. Blocks until the burst is fully processed.
  void process_outgoing(std::span<const wire::PacketView> burst,
                        core::ExpTime now);

  /// Ingress twin: transit + local delivery.
  void process_ingress(std::span<const wire::PacketView> burst, core::ExpTime now);

  /// Per-thread stats merged on read (classification drops from every
  /// worker slot + action-phase forward/deliver/transit/ICMP counters).
  BorderRouter::Stats stats() const;

  /// Per-worker flow-cache counters merged on read (hit rate of the
  /// verified-flow caches across all processing contexts), plus the
  /// steering-quality probe: cross_worker_duplicates counts EphIDs
  /// currently cached by more than one worker (0 under flow-hash
  /// steering).
  core::FlowCache::Stats flow_cache_stats() const;

  /// Total processing threads (callers + workers).
  std::size_t threads() const { return cfg_.threads; }

 private:
  void process_burst(std::span<const wire::PacketView> burst, core::ExpTime now,
                     bool ingress);
  void worker_main(std::size_t slot);
  /// Classifies this slot's steered RX ring run-to-completion: gather the
  /// ring's views, one classify pass against the slot's own FlowCache,
  /// scatter verdicts back to burst order (disjoint indices — no two slots
  /// write the same verdict).
  void run_ring(std::size_t slot);

  struct alignas(64) Slot {
    mutable std::mutex mu;
    BorderRouter::Stats stats;
    /// This processing context's verified-flow cache (null when disabled).
    /// Only ever touched by the slot's owner under the slot lock — the
    /// cache itself is single-owner by design.
    std::unique_ptr<core::FlowCache> cache;
    /// Steered RX ring: burst indices assigned to this slot. Written by
    /// the calling thread BEFORE the burst is published under mu_ (the
    /// workers are quiescent between bursts); read by the owner during
    /// run_ring. gather/scratch are the owner's reusable buffers —
    /// allocation-free once warm.
    std::vector<std::uint32_t> ring;
    std::vector<wire::PacketView> gather;
    std::vector<BorderRouter::Verdict> scratch;
    /// Last burst sequence this slot completed (guarded by mu_).
    std::uint64_t done_seq = 0;
  };

  /// One classify pass over `burst` against slot `s`'s stats and cache
  /// (caller holds s.mu).
  void classify(Slot& s, std::span<const wire::PacketView> burst,
                core::ExpTime now, bool ingress,
                std::span<BorderRouter::Verdict> out);

  BorderRouter& br_;
  Config cfg_;

  // Burst state, guarded by mu_. Workers read the burst descriptor after
  // observing a burst_seq_ bump under mu_, which orders the descriptor —
  // and ring — writes before any processing.
  mutable std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const wire::PacketView* burst_ = nullptr;
  BorderRouter::Verdict* verdicts_ = nullptr;
  core::ExpTime now_ = 0;
  bool ingress_ = false;
  std::uint64_t burst_seq_ = 0;       // burst generation
  std::size_t workers_pending_ = 0;   // rings not yet completed
  bool stop_ = false;

  BorderRouter::Stats action_stats_;  // caller-thread action phase, under mu_
  std::unique_ptr<Slot[]> slots_;     // [0, threads): callers use slot 0
  std::vector<std::thread> workers_;  // threads - 1 background workers
  std::vector<BorderRouter::Verdict> verdict_buf_;
};

}  // namespace apna::router
