// Counter sets derived from one plain Stats struct.
//
// A component reports its counters as a plain, copyable `Stats` (what its
// stats() returns). When several threads bump them, Counters<Stats> is the
// live twin: one relaxed atomic per field, addressed through a pointer to
// the Stats member, so the field list is written exactly once. The same
// layout rule gives field-wise add/sub of plain Stats, for per-worker
// slots summed on read and per-phase deltas of monotone counters.
//
// A Stats qualifies (CounterSet) when it is an aggregate whose fields are
// all std::uint64_t with no padding between them: its bytes are then
// exactly an array of sizeof(Stats)/8 words, one per field, in order.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

namespace apna::util {
namespace detail {

// True when S can be list-initialized from sizeof...(I) non-constant
// std::uint64_t values. List-initialization rejects narrowing, so this
// holds for exactly as many values as S has std::uint64_t fields.
template <class S, std::size_t... I>
constexpr bool inits_from_u64s(std::index_sequence<I...>) {
  return requires(std::uint64_t v) { S{((void)I, v)...}; };
}

template <class S>
inline constexpr std::size_t kWords = sizeof(S) / sizeof(std::uint64_t);

template <class S>
using Words = std::array<std::uint64_t, kWords<S>>;

}  // namespace detail

/// An aggregate of std::uint64_t fields only, with no padding.
template <class S>
concept CounterSet =
    std::is_aggregate_v<S> && std::has_unique_object_representations_v<S> &&
    sizeof(S) % sizeof(std::uint64_t) == 0 &&
    detail::inits_from_u64s<S>(std::make_index_sequence<detail::kWords<S>>()) &&
    !detail::inits_from_u64s<S>(
        std::make_index_sequence<detail::kWords<S> + 1>());

/// into.f += from.f for every field f; returns `into`.
template <CounterSet S>
S& add_fields(S& into, const S& from) {
  auto a = std::bit_cast<detail::Words<S>>(into);
  const auto b = std::bit_cast<detail::Words<S>>(from);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
  return into = std::bit_cast<S>(a);
}

/// into.f -= from.f for every field f (the delta since an earlier snapshot
/// of the same monotone counters); returns `into`.
template <CounterSet S>
S& sub_fields(S& into, const S& from) {
  auto a = std::bit_cast<detail::Words<S>>(into);
  const auto b = std::bit_cast<detail::Words<S>>(from);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] -= b[i];
  return into = std::bit_cast<S>(a);
}

/// The live, thread-safe twin of a Stats: every field a relaxed atomic,
/// starting at zero. Counters order nothing; they only count.
template <CounterSet S>
class Counters {
 public:
  /// Adds `n` to one field, named by its pointer to member:
  /// counters.add<&Stats::hits>().
  template <std::uint64_t S::*Field>
  void add(std::uint64_t n = 1) {
    constexpr std::size_t i = index_of<Field>();
    words_[i].fetch_add(n, std::memory_order_relaxed);
  }

  /// Every field, each loaded on its own (not one atomic cut across them).
  S snapshot() const {
    detail::Words<S> w;
    for (std::size_t i = 0; i < w.size(); ++i)
      w[i] = words_[i].load(std::memory_order_relaxed);
    return std::bit_cast<S>(w);
  }

 private:
  template <std::uint64_t S::*Field>
  static constexpr std::size_t index_of() {
    S probe = std::bit_cast<S>(detail::Words<S>{});
    probe.*Field = 1;
    const auto w = std::bit_cast<detail::Words<S>>(probe);
    std::size_t i = 0;
    while (w[i] == 0) ++i;
    return i;
  }

  std::array<std::atomic<std::uint64_t>, detail::kWords<S>> words_{};
};

}  // namespace apna::util
