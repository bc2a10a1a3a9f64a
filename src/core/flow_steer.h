// Flow-hash steering — which RX ring owns a flow.
//
// A dispatch that splits one flow's packets across rings re-derives the
// flow's verified verdict (core/flow_cache.h) and duplicates it in several
// per-ring caches — wasted crypto and wasted capacity. Steering fixes the
// affinity: every packet of a flow hashes to ONE of router::ForwardingPool's
// rings (one per processing thread, each with its own FlowCache), that
// ring's cache stays hot, and ForwardingPool::flow_cache_stats()'s
// cross_worker_duplicates counter stays at zero (the software analogue of
// NIC RSS keeping a TCP flow on one queue). Which thread runs a ring may
// change from burst to burst; the ring a flow maps to does not.
//
// Bit discipline: an EphID is pseudorandom ciphertext, so its first 8
// bytes (EphIdHash, core/ids.h) serve as the flow fingerprint everywhere.
// FlowCache indexes its buckets with the LOW bits of that fingerprint;
// steering therefore uses the HIGH 32 bits — otherwise a power-of-two
// ring count would confine each ring's cache to 1/rings of its buckets
// (every EphID a ring sees would share its low bits).
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

/// Ring index for a flow in a pool of `workers` rings (workers >= 1).
inline std::size_t steer_worker(ByteSpan ephid16, std::size_t workers) {
  return flow_steer_hash(ephid16) % workers;
}

}  // namespace apna::core
