#include "router/forwarding_pool.h"

#include <algorithm>
#include <unordered_map>

#include "core/flow_steer.h"

namespace apna::router {

ForwardingPool::ForwardingPool(BorderRouter& br, Config cfg)
    : br_(br), cfg_(cfg) {
  if (cfg_.threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    cfg_.threads = hw == 0 ? 1 : hw;
  }
  slots_ = std::make_unique<Slot[]>(cfg_.threads);
  if (cfg_.flow_cache_entries > 0)
    for (std::size_t i = 0; i < cfg_.threads; ++i)
      slots_[i].cache =
          std::make_unique<core::FlowCache>(cfg_.flow_cache_entries);
  workers_.reserve(cfg_.threads - 1);
  for (std::size_t i = 1; i < cfg_.threads; ++i)
    workers_.emplace_back([this, i] { worker_main(i); });
}

ForwardingPool::~ForwardingPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ForwardingPool::classify(Slot& s,
                              std::span<const wire::PacketView> burst,
                              core::ExpTime now, bool ingress,
                              std::span<BorderRouter::Verdict> out) {
  if (ingress) {
    br_.classify_ingress_burst(burst, now, out, s.stats, s.cache.get());
  } else {
    br_.classify_outgoing_burst(burst, now, out, s.stats, s.cache.get());
  }
}

void ForwardingPool::run_ring(std::size_t slot) {
  Slot& s = slots_[slot];
  const wire::PacketView* burst;
  BorderRouter::Verdict* verdicts;
  core::ExpTime now;
  bool ingress;
  {
    std::lock_guard lock(mu_);
    burst = burst_;
    verdicts = verdicts_;
    now = now_;
    ingress = ingress_;
  }
  if (s.ring.empty()) return;
  std::lock_guard slot_lock(s.mu);
  // Gather the steered views so the (contiguous-span) classify kernels and
  // this slot's cache see one run-to-completion pass over the whole ring.
  s.gather.clear();
  for (const std::uint32_t idx : s.ring) s.gather.push_back(burst[idx]);
  s.scratch.resize(s.ring.size());
  classify(s, s.gather, now, ingress, s.scratch);
  // Scatter back to burst order. Rings partition the burst, so no two
  // slots ever write the same verdict index.
  for (std::size_t j = 0; j < s.ring.size(); ++j)
    verdicts[s.ring[j]] = s.scratch[j];
}

void ForwardingPool::worker_main(std::size_t slot) {
  for (;;) {
    {
      std::unique_lock lock(mu_);
      cv_work_.wait(lock, [this, slot] {
        return stop_ || slots_[slot].done_seq != burst_seq_;
      });
      if (stop_) return;
    }
    run_ring(slot);
    std::lock_guard lock(mu_);
    slots_[slot].done_seq = burst_seq_;
    if (--workers_pending_ == 0) cv_done_.notify_all();
  }
}

void ForwardingPool::process_burst(std::span<const wire::PacketView> burst,
                                   core::ExpTime now, bool ingress) {
  if (burst.empty()) return;
  verdict_buf_.resize(burst.size());
  if (cfg_.threads == 1) {
    // One processing context: there is only one cache, so steering has
    // nothing to separate — classify the whole burst in place.
    std::lock_guard slot_lock(slots_[0].mu);
    classify(slots_[0], burst, now, ingress, verdict_buf_);
  } else {
    // Scatter the burst into per-worker RX rings by flow hash BEFORE
    // publishing the burst: the workers are quiescent between bursts, and
    // the mu_ release below orders these writes ahead of any ring read.
    for (std::size_t i = 0; i < cfg_.threads; ++i) slots_[i].ring.clear();
    for (std::size_t i = 0; i < burst.size(); ++i) {
      const ByteSpan key =
          ingress ? burst[i].dst_ephid_span() : burst[i].src_ephid_span();
      slots_[core::steer_worker(key, cfg_.threads)].ring.push_back(
          static_cast<std::uint32_t>(i));
    }
    {
      std::lock_guard lock(mu_);
      burst_ = burst.data();
      verdicts_ = verdict_buf_.data();
      now_ = now;
      ingress_ = ingress;
      ++burst_seq_;
      workers_pending_ = cfg_.threads - 1;
    }
    cv_work_.notify_all();
    // The calling thread is processing context 0: it runs its own ring
    // like any worker instead of blocking.
    run_ring(0);
    std::unique_lock lock(mu_);
    cv_done_.wait(lock, [this] { return workers_pending_ == 0; });
  }
  // Action phase on the calling thread, burst order, OUTSIDE mu_: the
  // callbacks may be arbitrarily slow or call back into stats() without
  // blocking (or self-deadlocking on) the pool's lock. Counters go to a
  // local first and merge under mu_ so stats() never tears action_stats_.
  BorderRouter::Stats action;
  if (ingress) {
    br_.apply_ingress_verdicts(burst, verdict_buf_, action);
  } else {
    br_.apply_outgoing_verdicts(burst, verdict_buf_, action);
  }
  {
    std::lock_guard lock(mu_);
    action_stats_ += action;
  }
}

void ForwardingPool::process_outgoing(std::span<const wire::PacketView> burst,
                                      core::ExpTime now) {
  process_burst(burst, now, /*ingress=*/false);
}

void ForwardingPool::process_ingress(std::span<const wire::PacketView> burst,
                                     core::ExpTime now) {
  process_burst(burst, now, /*ingress=*/true);
}

BorderRouter::Stats ForwardingPool::stats() const {
  BorderRouter::Stats merged;
  {
    std::lock_guard lock(mu_);
    merged += action_stats_;
  }
  for (std::size_t i = 0; i < cfg_.threads; ++i) {
    std::lock_guard slot_lock(slots_[i].mu);
    merged += slots_[i].stats;
  }
  return merged;
}

core::FlowCache::Stats ForwardingPool::flow_cache_stats() const {
  core::FlowCache::Stats merged;
  // EphID → number of worker caches currently holding it. Each cache holds
  // an EphID at most once (same-key inserts refresh in place), so a count
  // above one means the flow's verdict was re-derived on another worker —
  // exactly what flow-hash steering exists to prevent.
  std::unordered_map<core::EphId, std::uint32_t, core::EphIdHash> owners;
  for (std::size_t i = 0; i < cfg_.threads; ++i) {
    std::lock_guard slot_lock(slots_[i].mu);
    if (!slots_[i].cache) continue;
    merged += slots_[i].cache->stats();
    slots_[i].cache->for_each_entry(
        [&owners](const core::FlowCache::Entry& e) { ++owners[e.ephid]; });
  }
  for (const auto& [ephid, workers] : owners)
    if (workers > 1) merged.cross_worker_duplicates += workers - 1;
  return merged;
}

}  // namespace apna::router
