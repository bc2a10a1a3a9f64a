// Compressed domain-name trie — longest-parent-suffix policy matching.
//
// Keys are dotted names walked label-by-label from the RIGHT (the DNS
// hierarchy): a rule at "evil.com" sits two labels deep and matches
// "evil.com" itself and every subdomain ("a.b.evil.com"), but never the
// sibling "notevil.com" — matching consumes whole labels, so there is no
// substring confusion. The most specific (deepest) rule wins, which gives
// allow/monitor overrides under a blocked parent for free.
//
// Compressed: single-child chains carry multi-label edges ("com.evil" in
// reversed order as one node), split on demand when a diverging rule is
// inserted — the radix-tree treatment, so a policy of N rules costs O(N)
// nodes regardless of how deep the rule domains are.
//
// Not thread-safe by itself; dns::DomainPolicy (resolver.h) wraps one trie
// in a shared_mutex for the concurrent lookup path.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace apna::dns {

/// Steps through a dotted name's labels right-to-left without copying or
/// allocating ("a.evil.com" → "com", "evil", "a"). Empty labels are
/// skipped — callers validate canonical form upstream (dns_wire.h
/// validate_name).
class ReverseLabels {
 public:
  explicit ReverseLabels(std::string_view name)
      : name_(name), end_(name.size()) {}

  /// The next label, or an empty view once the name is exhausted.
  std::string_view next() {
    while (end_ > 0) {
      const std::size_t dot = name_.rfind('.', end_ - 1);
      const std::size_t start = (dot == std::string_view::npos) ? 0 : dot + 1;
      const std::string_view label = name_.substr(start, end_ - start);
      end_ = (dot == std::string_view::npos) ? 0 : dot;
      if (!label.empty()) return label;
    }
    return {};
  }

 private:
  std::string_view name_;
  std::size_t end_;
};

/// Splits a dotted name into labels, right-to-left ("a.evil.com" →
/// ["com", "evil", "a"]); the ReverseLabels sequence as a vector.
inline std::vector<std::string_view> reversed_labels(std::string_view name) {
  std::vector<std::string_view> out;
  ReverseLabels labels(name);
  for (std::string_view l = labels.next(); !l.empty(); l = labels.next())
    out.push_back(l);
  return out;
}

template <class V>
class DomainTrie {
 public:
  DomainTrie() { nodes_.push_back(Node{}); }  // nodes_[0] = root, empty edge

  /// Inserts (or replaces) the rule at `domain`. Returns false for a name
  /// with no labels.
  bool insert(std::string_view domain, V value) {
    const auto labels = reversed_labels(domain);
    if (labels.empty()) return false;
    std::uint32_t node = walk_insert(labels);
    if (!nodes_[node].value) ++rules_;
    nodes_[node].value = std::move(value);
    nodes_[node].domain.assign(domain);
    return true;
  }

  /// Removes the rule at exactly `domain` (subdomain rules survive).
  /// Structural nodes stay — policy sets shrink rarely and the next insert
  /// reuses them.
  bool erase(std::string_view domain) {
    Node* n = find_exact(domain);
    if (!n || !n->value) return false;
    n->value.reset();
    n->domain.clear();
    --rules_;
    return true;
  }

  /// Longest-suffix match: the deepest rule at `name` or any parent
  /// domain, or nullptr. When matched, `*matched_domain` (if non-null)
  /// receives the rule's domain. Walks the name's labels in place: the
  /// lookup path allocates nothing.
  const V* match(std::string_view name,
                 std::string* matched_domain = nullptr) const {
    const Node* best = nullptr;
    std::uint32_t node = 0;
    ReverseLabels labels(name);
    std::string_view label = labels.next();
    while (!label.empty()) {
      const std::uint32_t child = find_child(node, label);
      if (child == kNone) break;
      const Node& c = nodes_[child];
      // The whole (possibly multi-label) edge must match.
      std::size_t e = 0;
      for (; e < c.edge.size() && !label.empty() && c.edge[e] == label; ++e)
        label = labels.next();
      if (e < c.edge.size()) break;  // partial edge — no rule at/below here
      if (c.value) best = &c;
      node = child;
    }
    if (!best) return nullptr;
    if (matched_domain) *matched_domain = best->domain;
    return &*best->value;
  }

  /// The rule at exactly `domain`, or nullptr.
  const V* exact(std::string_view domain) const {
    const Node* n = const_cast<DomainTrie*>(this)->find_exact(domain);
    return (n && n->value) ? &*n->value : nullptr;
  }

  std::size_t size() const { return rules_; }

  /// Modeled footprint: node vector plus the owned edge/domain strings.
  std::size_t memory_bytes() const {
    std::size_t b = sizeof(*this) + nodes_.capacity() * sizeof(Node);
    for (const Node& n : nodes_) {
      for (const std::string& l : n.edge) b += l.capacity();
      b += n.domain.capacity() + n.kids.capacity() * sizeof(std::uint32_t);
    }
    return b;
  }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Node {
    std::vector<std::string> edge;     // ≥1 labels, reversed order (root: 0)
    std::vector<std::uint32_t> kids;   // child indices, sorted by first label
    std::optional<V> value;
    std::string domain;                // original dotted form (valued nodes)
  };

  // Child lists stay sorted by their edge's first label (unique by the
  // radix invariant), so sibling fan-out under popular parents (".com"
  // with thousands of rules) costs a binary search, not a linear scan.
  std::vector<std::uint32_t>::const_iterator child_pos(
      const std::vector<std::uint32_t>& kids, std::string_view label) const {
    return std::lower_bound(kids.begin(), kids.end(), label,
                            [this](std::uint32_t k, std::string_view l) {
                              return std::string_view(nodes_[k].edge.front()) <
                                     l;
                            });
  }

  std::uint32_t find_child(std::uint32_t node, std::string_view label) const {
    const auto& kids = nodes_[node].kids;
    const auto it = child_pos(kids, label);
    if (it != kids.end() && nodes_[*it].edge.front() == label) return *it;
    return kNone;
  }

  void add_child(std::uint32_t node, std::uint32_t child) {
    auto& kids = nodes_[node].kids;
    kids.insert(child_pos(kids, nodes_[child].edge.front()), child);
  }

  /// Walks/extends the trie along `labels`, splitting compressed edges at
  /// divergence points, and returns the node ending exactly at the key.
  std::uint32_t walk_insert(const std::vector<std::string_view>& labels) {
    std::uint32_t node = 0;
    std::size_t i = 0;
    while (i < labels.size()) {
      const std::uint32_t child = find_child(node, labels[i]);
      if (child == kNone) {
        // New leaf carrying the whole remaining label run as one edge.
        Node leaf;
        for (std::size_t j = i; j < labels.size(); ++j)
          leaf.edge.emplace_back(labels[j]);
        nodes_.push_back(std::move(leaf));
        const auto idx = static_cast<std::uint32_t>(nodes_.size() - 1);
        add_child(node, idx);
        return idx;
      }
      // Shared-prefix length between the edge and the remaining key.
      std::size_t e = 0;
      {
        const Node& c = nodes_[child];
        for (; e < c.edge.size() && i + e < labels.size(); ++e)
          if (c.edge[e] != labels[i + e]) break;
      }
      if (e < nodes_[child].edge.size()) split(child, e);
      i += e;
      node = child;
    }
    return node;
  }

  /// Splits `node`'s edge after `keep` labels: the node keeps the prefix,
  /// a new child inherits the suffix, the kids, the value and the domain.
  void split(std::uint32_t node, std::size_t keep) {
    Node tail;
    Node& n = nodes_[node];
    tail.edge.assign(n.edge.begin() + static_cast<std::ptrdiff_t>(keep),
                     n.edge.end());
    n.edge.resize(keep);
    tail.kids = std::move(n.kids);
    tail.value = std::move(n.value);
    tail.domain = std::move(n.domain);
    n.kids.clear();
    n.value.reset();
    n.domain.clear();
    nodes_.push_back(std::move(tail));  // may reallocate; n is dangling now
    add_child(node, static_cast<std::uint32_t>(nodes_.size() - 1));
  }

  Node* find_exact(std::string_view domain) {
    const auto labels = reversed_labels(domain);
    std::uint32_t node = 0;
    std::size_t i = 0;
    while (i < labels.size()) {
      const std::uint32_t child = find_child(node, labels[i]);
      if (child == kNone) return nullptr;
      const Node& c = nodes_[child];
      if (c.edge.size() > labels.size() - i) return nullptr;
      for (std::size_t e = 0; e < c.edge.size(); ++e)
        if (c.edge[e] != labels[i + e]) return nullptr;
      i += c.edge.size();
      node = child;
    }
    return &nodes_[node];
  }

  std::vector<Node> nodes_;
  std::size_t rules_ = 0;
};

}  // namespace apna::dns
