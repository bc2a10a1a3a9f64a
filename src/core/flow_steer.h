// Flow-hash steering — which processing context owns a flow.
//
// A dispatch that splits one flow's packets across workers re-derives the
// flow's verified verdict (core/flow_cache.h) and duplicates it in several
// per-worker caches — wasted crypto and wasted capacity. Steering fixes the
// affinity: every packet of a flow
// hashes to ONE worker, that worker's FlowCache stays hot, and
// ForwardingPool::flow_cache_stats()'s cross_worker_duplicates counter
// stays at zero (the software analogue of NIC RSS keeping a TCP flow on
// one core).
//
// Bit discipline: an EphID is pseudorandom ciphertext, so its first 8
// bytes (EphIdHash, core/ids.h) serve as the flow fingerprint everywhere.
// FlowCache indexes its buckets with the LOW bits of that fingerprint;
// steering therefore uses the HIGH 32 bits — otherwise a power-of-two
// worker count would confine each worker's cache to 1/workers of its
// buckets (every EphID a worker sees would share its low bits).
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/ids.h"

namespace apna::core {

/// The steering half of the flow fingerprint (disjoint bits from the
/// FlowCache bucket index; see the header comment).
inline std::uint32_t flow_steer_hash(ByteSpan ephid16) {
  return static_cast<std::uint32_t>(load_le64(ephid16.data()) >> 32);
}

/// Worker index for a flow in a pool of `workers` contexts (workers >= 1).
inline std::size_t steer_worker(ByteSpan ephid16, std::size_t workers) {
  return flow_steer_hash(ephid16) % workers;
}

}  // namespace apna::core
