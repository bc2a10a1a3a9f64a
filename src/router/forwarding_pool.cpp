#include "router/forwarding_pool.h"

#include <unordered_map>

#include "core/flow_steer.h"

namespace apna::router {

ForwardingPool::ForwardingPool(BorderRouter& br, Config cfg)
    : br_(br),
      rings_(util::ChunkPool::resolve(cfg.threads)),
      pool_(rings_.size()) {
  if (cfg.flow_cache_entries > 0)
    for (Ring& r : rings_)
      r.cache = std::make_unique<core::FlowCache>(cfg.flow_cache_entries);
}

void ForwardingPool::classify(Ring& r, std::span<const wire::PacketView> burst,
                              core::ExpTime now, bool ingress,
                              std::span<BorderRouter::Verdict> out) {
  if (ingress) {
    br_.classify_ingress_burst(burst, now, out, r.stats, r.cache.get());
  } else {
    br_.classify_outgoing_burst(burst, now, out, r.stats, r.cache.get());
  }
}

void ForwardingPool::run_ring(Ring& r, std::span<const wire::PacketView> burst,
                              core::ExpTime now, bool ingress) {
  if (r.indices.empty()) return;
  std::lock_guard lock(r.mu);
  // Gather the steered views so the (contiguous-span) classify kernels and
  // this ring's cache see one run-to-completion pass over the whole ring.
  r.gather.clear();
  for (const std::uint32_t idx : r.indices) r.gather.push_back(burst[idx]);
  r.scratch.resize(r.indices.size());
  classify(r, r.gather, now, ingress, r.scratch);
  for (std::size_t j = 0; j < r.indices.size(); ++j)
    verdict_buf_[r.indices[j]] = r.scratch[j];
}

void ForwardingPool::process_burst(std::span<const wire::PacketView> burst,
                                   core::ExpTime now, bool ingress) {
  if (burst.empty()) return;
  verdict_buf_.resize(burst.size());
  if (rings_.size() == 1) {
    // One ring: there is only one cache, so steering has nothing to
    // separate — classify the whole burst in place.
    std::lock_guard lock(rings_[0].mu);
    classify(rings_[0], burst, now, ingress, verdict_buf_);
  } else {
    // Scatter the burst into the rings by flow hash, then let the pool's
    // threads claim one ring per chunk.
    for (Ring& r : rings_) r.indices.clear();
    for (std::size_t i = 0; i < burst.size(); ++i) {
      const ByteSpan key =
          ingress ? burst[i].dst_ephid_span() : burst[i].src_ephid_span();
      rings_[core::steer_worker(key, rings_.size())].indices.push_back(
          static_cast<std::uint32_t>(i));
    }
    pool_.run(rings_.size(), 1,
              [&](std::size_t, std::size_t ring, std::size_t) {
                run_ring(rings_[ring], burst, now, ingress);
              });
  }
  // Action phase on the calling thread, burst order, holding no lock: the
  // callbacks may be arbitrarily slow or call back into stats(). Counters
  // go to a local first and merge under ring 0's lock so stats() never
  // tears them.
  BorderRouter::Stats action;
  if (ingress) {
    br_.apply_ingress_verdicts(burst, verdict_buf_, action);
  } else {
    br_.apply_outgoing_verdicts(burst, verdict_buf_, action);
  }
  std::lock_guard lock(rings_[0].mu);
  rings_[0].stats += action;
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
  for (const Ring& r : rings_) {
    std::lock_guard lock(r.mu);
    merged += r.stats;
  }
  return merged;
}

core::FlowCache::Stats ForwardingPool::flow_cache_stats() const {
  core::FlowCache::Stats merged;
  // EphID → number of ring caches currently holding it. Each cache holds
  // an EphID at most once (same-key inserts refresh in place), so a count
  // above one means the flow's verdict was re-derived on another ring —
  // exactly what flow-hash steering exists to prevent.
  std::unordered_map<core::EphId, std::uint32_t, core::EphIdHash> owners;
  for (const Ring& r : rings_) {
    std::lock_guard lock(r.mu);
    if (!r.cache) continue;
    merged += r.cache->stats();
    r.cache->for_each_entry(
        [&owners](const core::FlowCache::Entry& e) { ++owners[e.ephid]; });
  }
  for (const auto& [ephid, rings] : owners)
    if (rings > 1) merged.cross_worker_duplicates += rings - 1;
  return merged;
}

}  // namespace apna::router
