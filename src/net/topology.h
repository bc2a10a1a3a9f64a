// AS-level topology: which ASes peer, with what link latency, and the
// next-hop function border routers use for inter-domain forwarding
// ("Transit ASes do not perform additional operations and simply forward
// packets to the next AS on the path", §IV-D3).
#pragma once

#include <cstdint>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "net/sim.h"
#include "util/result.h"

namespace apna::net {

class Topology {
 public:
  void add_as(std::uint32_t aid) { adj_.try_emplace(aid); }

  /// Bidirectional AS-level link. one_way is the propagation latency.
  void add_link(std::uint32_t a, std::uint32_t b, TimeUs one_way) {
    add_as(a);
    add_as(b);
    adj_[a][b] = one_way;
    adj_[b][a] = one_way;
    routes_.clear();  // invalidate cache
  }

  Result<TimeUs> link_latency(std::uint32_t a, std::uint32_t b) const {
    auto it = adj_.find(a);
    if (it == adj_.end()) return Errc::no_route;
    auto jt = it->second.find(b);
    if (jt == it->second.end()) return Errc::no_route;
    return jt->second;
  }

  /// Next hop from `from` towards `to` (min-hop BFS, cached).
  Result<std::uint32_t> next_hop(std::uint32_t from, std::uint32_t to) const {
    if (from == to) return to;
    const auto key = (std::uint64_t{from} << 32) | to;
    if (auto it = routes_.find(key); it != routes_.end()) {
      if (it->second == kNoRoute) return Errc::no_route;
      return it->second;
    }
    compute_routes_from(to);
    auto it = routes_.find(key);
    if (it == routes_.end() || it->second == kNoRoute) {
      routes_[key] = kNoRoute;
      return Errc::no_route;
    }
    return it->second;
  }

  /// Full AS path (for tests and the path-aware shutoff extension §VIII-C).
  std::vector<std::uint32_t> path(std::uint32_t from, std::uint32_t to) const {
    std::vector<std::uint32_t> p{from};
    std::uint32_t cur = from;
    while (cur != to) {
      auto nh = next_hop(cur, to);
      if (!nh) return {};
      cur = *nh;
      p.push_back(cur);
    }
    return p;
  }

  std::size_t as_count() const { return adj_.size(); }

 private:
  static constexpr std::uint32_t kNoRoute = 0xffffffff;

  // BFS rooted at `dst` fills next_hop for every source in one pass.
  void compute_routes_from(std::uint32_t dst) const {
    std::unordered_map<std::uint32_t, std::uint32_t> succ;  // node → next
    std::queue<std::uint32_t> q;
    q.push(dst);
    succ[dst] = dst;
    while (!q.empty()) {
      const std::uint32_t cur = q.front();
      q.pop();
      auto it = adj_.find(cur);
      if (it == adj_.end()) continue;
      for (const auto& [nbr, lat] : it->second) {
        if (succ.contains(nbr)) continue;
        succ[nbr] = cur;  // from nbr, go to cur to reach dst
        q.push(nbr);
      }
    }
    for (const auto& [node, next] : succ) {
      if (node == dst) continue;
      routes_[(std::uint64_t{node} << 32) | dst] = next;
    }
  }

  std::unordered_map<std::uint32_t,
                     std::unordered_map<std::uint32_t, TimeUs>>
      adj_;
  mutable std::unordered_map<std::uint64_t, std::uint32_t> routes_;
};

}  // namespace apna::net
