// Sharded DNS resolver (§VII-A) — zone + TTL cache + domain policy +
// upstream forwarding.
//
// Resolution order (resolve / resolve_async):
//   1. canonicalize + validate the name (dns_wire.h canonical form);
//   2. domain policy (dns/domain_trie.h longest-parent-suffix): block rules
//      answer `blocked` without touching zone or cache, monitor rules count
//      the lookup (the "sensitive domain" observability from PAPERS.md) and
//      fall through;
//   3. sharded TTL cache (dns/dns_cache.h), positive and negative entries,
//      invalidated per name by the zone's GenerationTable;
//   4. the authoritative zone (services/dns_zone.h) through the borrow
//      path; hits fill the cache, misses fill the NEGATIVE cache — or, in
//      resolve_async with an upstream wired, forward a QueryFrame with
//      deterministic timeout/backoff retransmits over net::EventLoop
//      timers, answering `servfail` (never cached) when attempts run out.
//
// Generation discipline: the name's generation is read BEFORE the zone
// lookup (the cache probe reads it and hands it back on a miss) and
// stamped into the cache entry, so a concurrent update of that name
// either lands before the read (we cache the new truth) or bumps its slot
// past our stamp (the entry is stillborn and the next lookup re-reads the
// zone). A forwarded query carries the generation read before its local
// zone miss, and the upstream answer is stamped with it when it lands: a
// local publication made while the query was in flight is never hidden
// behind the cached upstream answer.
//
// Thread-safety: resolve() and stats() are safe from any thread (that is
// what ResolverPool fans out over a util::ChunkPool; the pool counts
// nothing itself, every pooled lookup lands in stats()). The
// async/upstream surface — resolve_async, on_upstream_frame, set_upstream
// — is event-loop-resident, same rule as ServiceDispatcher. block_domain
// and policy mutation take the policy's writer lock and may run from any
// thread.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/messages.h"
#include "dns/dns_cache.h"
#include "dns/dns_wire.h"
#include "dns/domain_trie.h"
#include "net/sim.h"
#include "persist/sink.h"
#include "services/accountability_agent.h"
#include "services/dns_zone.h"
#include "util/bytes.h"
#include "util/chunk_pool.h"
#include "util/counters.h"
#include "util/result.h"

namespace apna::dns {

/// One per-domain rule. Longest (most specific) rule wins, so a monitor
/// rule under a blocked parent acts as an override.
struct DomainRule {
  enum class Action : std::uint8_t { block = 0, monitor = 1 };
  Action action = Action::block;
};

/// Trie-backed policy: the concrete services::DomainPolicy the
/// AccountabilityAgent consumes (set_domain_policy), shared with the
/// resolver's lookup path. Reader-writer locked: blocked()/match() take
/// the shared lock, rule mutation the exclusive one.
class DomainPolicy final : public services::DomainPolicy {
 public:
  void block(std::string_view domain) {
    std::unique_lock lock(mu_);
    trie_.insert(domain, DomainRule{DomainRule::Action::block});
  }
  void monitor(std::string_view domain) {
    std::unique_lock lock(mu_);
    trie_.insert(domain, DomainRule{DomainRule::Action::monitor});
  }
  bool erase(std::string_view domain) {
    std::unique_lock lock(mu_);
    return trie_.erase(domain);
  }

  // services::DomainPolicy
  bool blocked(std::string_view name, std::string* matched) const override {
    std::shared_lock lock(mu_);
    const DomainRule* rule = trie_.match(name, matched);
    return rule != nullptr && rule->action == DomainRule::Action::block;
  }

  /// The matched rule (block or monitor), if any — copy-out.
  std::optional<DomainRule> match(std::string_view name,
                                  std::string* matched = nullptr) const {
    std::shared_lock lock(mu_);
    const DomainRule* rule = trie_.match(name, matched);
    if (rule == nullptr) return std::nullopt;
    return *rule;
  }

  std::size_t rules() const {
    std::shared_lock lock(mu_);
    return trie_.size();
  }
  std::size_t memory_bytes() const {
    std::shared_lock lock(mu_);
    return trie_.memory_bytes();
  }

 private:
  mutable std::shared_mutex mu_;
  DomainTrie<DomainRule> trie_;
};

class Resolver {
 public:
  struct Config {
    DnsCache::Config cache;
    /// TTL stamped on zone-derived positive answers, seconds.
    core::ExpTime positive_ttl = 300;
    /// TTL requested for negative answers (the cache clamps it further).
    core::ExpTime negative_ttl = 30;
    /// First-attempt upstream timeout; each retransmit multiplies it by
    /// backoff_factor.
    net::TimeUs upstream_timeout = 250'000;
    std::uint32_t upstream_attempts = 3;  // 1 initial + 2 retransmits
    std::uint32_t backoff_factor = 2;
  };

  /// Plain copyable counters — what stats() returns.
  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t invalid_name = 0;
    std::uint64_t policy_blocked = 0;
    std::uint64_t monitored = 0;        // sensitive-domain lookups observed
    std::uint64_t cache_hits = 0;
    std::uint64_t negative_hits = 0;
    std::uint64_t zone_hits = 0;
    std::uint64_t nxdomain = 0;         // authoritative negative answers
    std::uint64_t publish_blocked = 0;  // admissions refused by policy
    std::uint64_t forwarded = 0;        // queries sent upstream
    std::uint64_t retransmits = 0;
    std::uint64_t upstream_answers = 0;
    std::uint64_t upstream_nxdomain = 0;
    std::uint64_t upstream_timeouts = 0;   // attempts exhausted → servfail
    std::uint64_t upstream_mismatched = 0; // unmatched/ill-formed responses
  };

  enum class Status : std::uint8_t {
    ok = 0,
    nxdomain = 1,
    blocked = 2,   // domain policy refused the lookup
    servfail = 3,  // upstream attempts exhausted — never cached
    invalid = 4,   // not a canonicalizable DNS name
  };
  enum class Source : std::uint8_t {
    none = 0,
    cache = 1,
    negative_cache = 2,
    zone = 3,
    upstream = 4,
    policy = 5,
  };

  struct Answer {
    Status status = Status::nxdomain;
    Source source = Source::none;
    core::DnsRecord record;  // meaningful iff status == ok
  };

  using AnswerFn = std::function<void(const Answer&)>;
  /// Carries one serialized QueryFrame toward the upstream resolver.
  using UpstreamSend = std::function<void(Bytes)>;

  Resolver(services::DnsZone& zone, net::EventLoop& loop, const Config& cfg)
      : cfg_(cfg),
        zone_(zone),
        loop_(loop),
        cache_(cfg.cache, zone.generations()) {}

  /// Synchronous, authoritative-mode lookup: policy → cache → zone; a zone
  /// miss is a cacheable NXDOMAIN. Thread-safe.
  Answer resolve(std::string_view name, core::ExpTime now);

  /// resolve() into a caller-owned answer, the path ResolverPool fans out:
  /// the record's name keeps its capacity, so a cache hit on a reused
  /// answer allocates nothing. A non-ok answer leaves a default record
  /// (with that capacity).
  void resolve_into(std::string_view name, core::ExpTime now, Answer& out);

  /// Async lookup: same as resolve() until the zone misses; then, with an
  /// upstream wired, forwards and answers via `done` when the response or
  /// the final timeout lands. Without an upstream, behaves exactly like
  /// resolve(). `done` may fire inline (cache/zone answers) or from a
  /// later event-loop turn. Event-loop thread only.
  void resolve_async(std::string_view name, AnswerFn done);

  /// Wires the upstream transport (null = authoritative mode).
  void set_upstream(UpstreamSend send) { upstream_ = std::move(send); }
  /// Feeds a serialized ResponseFrame back from the upstream transport.
  void on_upstream_frame(ByteSpan frame);
  /// Serves the upstream role: answers one serialized QueryFrame with a
  /// serialized ResponseFrame (empty on unparseable input — drop it).
  Bytes answer_query(ByteSpan query_frame);

  /// Publication admission: canonical-name check plus domain policy. With
  /// an AccountabilityAgent wired, a blocked name is enforced through the
  /// Fig-5 tail (the publishing EphID is revoked if this AS issued it).
  Result<void> admit_publish(std::string_view name, const core::EphId& ephid,
                             core::ExpTime now);

  /// Installs a block rule and SWEEPS the zone: every record at or under
  /// `domain` is enforced through the AA (revocation) and erased — each
  /// erase bumps its name's generation, so the swept names' cached answers
  /// die too.
  /// Returns the number of records swept.
  std::size_t block_domain(std::string_view domain, core::ExpTime now);

  void set_accountability(services::AccountabilityAgent* aa) { aa_ = aa; }
  services::AccountabilityAgent* accountability() const { return aa_; }

  /// Attaches the durability hook: block_domain rules are journaled (the
  /// zone erases and revocations the sweep causes emit their own records
  /// at their own mutation sites). nullptr = no-op.
  void set_persist_sink(persist::Sink* sink) { persist_ = sink; }

  DomainPolicy& policy() { return policy_; }
  const DomainPolicy& policy() const { return policy_; }
  services::DnsZone& zone() { return zone_; }
  DnsCache& cache() { return cache_; }
  const DnsCache& cache() const { return cache_; }
  const Config& config() const { return cfg_; }

  Stats stats() const { return counters_.snapshot(); }

 private:
  struct Pending {
    std::string name;
    AnswerFn done;
    std::uint32_t attempts_left = 0;
    net::TimeUs timeout = 0;
    std::uint64_t serial = 0;  // stale-timer guard (timers can't be revoked)
    std::uint64_t gen = 0;     // name's generation before the local zone miss
  };

  /// Shared front half of resolve/resolve_async: policy + cache + zone.
  /// Returns false when the name missed everywhere locally (the forwarding
  /// case), with `canon` holding the canonical name and `gen` the name's
  /// generation read before the zone miss.
  bool resolve_local(std::string_view name, core::ExpTime now,
                     bool authoritative, std::string& canon,
                     std::uint64_t& gen, Answer& out);

  void send_query(std::uint16_t id, Pending& p);
  void arm_timeout(std::uint16_t id, std::uint64_t serial,
                   net::TimeUs delay);

  Config cfg_;
  services::DnsZone& zone_;
  net::EventLoop& loop_;
  DnsCache cache_;
  DomainPolicy policy_;
  services::AccountabilityAgent* aa_ = nullptr;
  persist::Sink* persist_ = nullptr;
  UpstreamSend upstream_;

  // Pending upstream queries (event-loop thread only).
  std::unordered_map<std::uint16_t, Pending> pending_;
  std::uint16_t next_id_ = 1;
  std::uint64_t next_serial_ = 1;

  util::Counters<Stats> counters_;
};

/// M-worker lookup pool on a util::ChunkPool: Config::threads is the TOTAL
/// parallelism (threads-1 background workers plus the calling thread
/// claiming chunks of kChunk names), and results are independent of
/// worker count — resolve() is deterministic given the cache state, and
/// out[i] always holds the answer for names[i]. One in-flight burst at a
/// time; the resolver itself is what makes the concurrent lookups safe,
/// and Resolver::stats() counts every lookup the pool runs.
class ResolverPool {
 public:
  struct Config {
    /// Total processing threads (calling thread included). 0 → one per
    /// hardware thread.
    std::size_t threads = 0;
  };

  /// Lookups per claimed chunk.
  static constexpr std::size_t kChunk = 64;

  ResolverPool(Resolver& resolver, Config cfg)
      : resolver_(resolver), pool_(cfg.threads) {}

  ResolverPool(const ResolverPool&) = delete;
  ResolverPool& operator=(const ResolverPool&) = delete;

  /// Resolves the whole burst across all processing threads; out[i] is the
  /// answer for names[i]. Blocks until done.
  void process_lookups(std::span<const std::string> names, core::ExpTime now,
                       std::span<Resolver::Answer> out);

  std::size_t threads() const { return pool_.threads(); }

 private:
  Resolver& resolver_;
  util::ChunkPool pool_;
};

}  // namespace apna::dns
