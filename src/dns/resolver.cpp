#include "dns/resolver.h"

#include <algorithm>
#include <cassert>

#include "core/as_persist.h"

namespace apna::dns {
namespace {

// True when `name` is already canonical — the zero-allocation fast path.
bool is_canonical(std::string_view name) {
  for (const char c : name)
    if (c >= 'A' && c <= 'Z') return false;
  return true;
}

}  // namespace

// ---- Resolver ----------------------------------------------------------------

bool Resolver::resolve_local(std::string_view name, core::ExpTime now,
                             bool authoritative, std::string& canon,
                             std::uint64_t& gen, Answer& out) {
  counters_.lookups.fetch_add(1, std::memory_order_relaxed);

  std::string_view key = name;
  if (!is_canonical(name)) {
    canon = canonical_name(name);
    key = canon;
  }
  if (!validate_name(key)) {
    counters_.invalid_name.fetch_add(1, std::memory_order_relaxed);
    out.status = Status::invalid;
    out.source = Source::none;
    return true;
  }

  // Policy before any state: a blocked domain never warms the cache.
  if (auto rule = policy_.match(key)) {
    if (rule->action == DomainRule::Action::block) {
      counters_.policy_blocked.fetch_add(1, std::memory_order_relaxed);
      out.status = Status::blocked;
      out.source = Source::policy;
      return true;
    }
    counters_.monitored.fetch_add(1, std::memory_order_relaxed);
  }

  // The probe reads the name's generation BEFORE the zone read below — the
  // stamp that makes a racing update of the name kill this fill instead of
  // hiding behind it.
  switch (cache_.lookup(key, now, &out.record, &gen)) {
    case DnsCache::Outcome::hit:
      counters_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      out.status = Status::ok;
      out.source = Source::cache;
      return true;
    case DnsCache::Outcome::negative:
      counters_.negative_hits.fetch_add(1, std::memory_order_relaxed);
      out.status = Status::nxdomain;
      out.source = Source::negative_cache;
      return true;
    case DnsCache::Outcome::miss:
      break;
  }

  const bool found = zone_.with_record(key, [&](const core::DnsRecord& rec) {
    out.record = rec;
  });
  if (found) {
    counters_.zone_hits.fetch_add(1, std::memory_order_relaxed);
    cache_.insert(key, out.record, now + cfg_.positive_ttl, gen);
    out.status = Status::ok;
    out.source = Source::zone;
    return true;
  }
  if (!authoritative) {
    if (canon.empty()) canon.assign(key);
    return false;  // forward upstream
  }
  counters_.nxdomain.fetch_add(1, std::memory_order_relaxed);
  cache_.insert_negative(key, now, cfg_.negative_ttl, gen);
  out.status = Status::nxdomain;
  out.source = Source::zone;
  return true;
}

Resolver::Answer Resolver::resolve(std::string_view name, core::ExpTime now) {
  Answer a;
  std::string canon;
  std::uint64_t gen = 0;
  resolve_local(name, now, /*authoritative=*/true, canon, gen, a);
  return a;
}

void Resolver::resolve_async(std::string_view name, AnswerFn done) {
  const core::ExpTime now = loop_.now_seconds();
  Answer a;
  std::string canon;
  std::uint64_t gen = 0;
  const bool authoritative = !static_cast<bool>(upstream_);
  if (resolve_local(name, now, authoritative, canon, gen, a)) {
    done(a);
    return;
  }

  // Local miss with an upstream wired: forward with timeout/backoff.
  std::uint16_t id = next_id_;
  while (pending_.contains(id) || id == 0) ++id;  // 0 is never used
  next_id_ = static_cast<std::uint16_t>(id + 1);

  Pending p;
  p.name = std::move(canon);
  p.done = std::move(done);
  p.attempts_left = cfg_.upstream_attempts == 0 ? 0
                                                : cfg_.upstream_attempts - 1;
  p.timeout = cfg_.upstream_timeout;
  p.serial = next_serial_++;
  p.gen = gen;
  auto [it, inserted] = pending_.emplace(id, std::move(p));
  assert(inserted);
  counters_.forwarded.fetch_add(1, std::memory_order_relaxed);
  // Arm BEFORE sending: the upstream hook may answer synchronously (an
  // in-process resolver), and on_upstream_frame erases the pending entry
  // — nothing may touch `it` after send_query. A stale timer is harmless
  // (serial mismatch), a dangling entry reference is not.
  arm_timeout(id, it->second.serial, it->second.timeout);
  send_query(id, it->second);
}

void Resolver::send_query(std::uint16_t id, Pending& p) {
  QueryFrame q;
  q.id = id;
  q.name = p.name;
  wire::MsgWriter w(3 + encoded_name_size(q.name));
  if (q.encode(w)) upstream_(w.take());
}

void Resolver::arm_timeout(std::uint16_t id, std::uint64_t serial,
                           net::TimeUs delay) {
  loop_.schedule_in(delay, [this, id, serial] {
    auto it = pending_.find(id);
    if (it == pending_.end() || it->second.serial != serial)
      return;  // answered (or slot reused) — stale timer
    Pending& p = it->second;
    if (p.attempts_left > 0) {
      --p.attempts_left;
      p.timeout *= cfg_.backoff_factor;
      counters_.retransmits.fetch_add(1, std::memory_order_relaxed);
      // Same ordering rule as resolve_async: a synchronous upstream
      // answer erases the entry inside send_query, so arm first.
      arm_timeout(id, p.serial, p.timeout);
      send_query(id, p);
      return;
    }
    counters_.upstream_timeouts.fetch_add(1, std::memory_order_relaxed);
    Answer a;
    a.status = Status::servfail;  // transient — deliberately NOT cached
    a.source = Source::upstream;
    AnswerFn done = std::move(p.done);
    pending_.erase(it);
    done(a);
  });
}

void Resolver::on_upstream_frame(ByteSpan frame) {
  auto resp = core::decode_msg<ResponseFrame>(frame);
  if (!resp) {
    counters_.upstream_mismatched.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  auto it = pending_.find(resp->id);
  if (it == pending_.end() || it->second.name != resp->name) {
    // Unknown id or an id-collision answer for a different question:
    // either way it must not touch the cache (§VII-A's stand-in for
    // off-path answer forgery).
    counters_.upstream_mismatched.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  // Stamp with the generation read before the local zone miss, not now: a
  // local publication of the name while the query was in flight bumped
  // past it, so this fill is stillborn and the next lookup reads the zone.
  const core::ExpTime now = loop_.now_seconds();
  const std::uint64_t gen = it->second.gen;
  Answer a;
  switch (resp->rcode) {
    case Rcode::ok:
      counters_.upstream_answers.fetch_add(1, std::memory_order_relaxed);
      a.status = Status::ok;
      a.record = std::move(*resp->record);
      cache_.insert(resp->name, a.record,
                    now + std::min<core::ExpTime>(resp->ttl,
                                                  cfg_.positive_ttl),
                    gen);
      break;
    case Rcode::nxdomain:
      counters_.upstream_nxdomain.fetch_add(1, std::memory_order_relaxed);
      a.status = Status::nxdomain;
      cache_.insert_negative(resp->name, now,
                             std::min<core::ExpTime>(resp->ttl,
                                                     cfg_.negative_ttl),
                             gen);
      break;
    case Rcode::refused:
      a.status = Status::blocked;
      break;
    case Rcode::servfail:
      a.status = Status::servfail;
      break;
  }
  a.source = Source::upstream;
  AnswerFn done = std::move(it->second.done);
  pending_.erase(it);
  done(a);
}

Bytes Resolver::answer_query(ByteSpan query_frame) {
  auto q = core::decode_msg<QueryFrame>(query_frame);
  if (!q) return Bytes{};
  const Answer a = resolve(q->name, loop_.now_seconds());

  ResponseFrame resp;
  resp.id = q->id;
  resp.name = q->name;
  switch (a.status) {
    case Status::ok:
      resp.rcode = Rcode::ok;
      resp.ttl = cfg_.positive_ttl;
      resp.record = a.record;
      break;
    case Status::nxdomain:
      resp.rcode = Rcode::nxdomain;
      resp.ttl = cfg_.negative_ttl;
      break;
    case Status::blocked:
      resp.rcode = Rcode::refused;
      break;
    case Status::servfail:
    case Status::invalid:
      resp.rcode = Rcode::servfail;
      break;
  }
  wire::MsgWriter w(512);
  return resp.encode(w) ? w.take() : Bytes{};
}

Result<void> Resolver::admit_publish(std::string_view name,
                                     const core::EphId& ephid,
                                     core::ExpTime now) {
  if (auto ok = validate_name(name); !ok) return ok;
  if (aa_ != nullptr) {
    // The AA consults the same policy through its hook and revokes the
    // publishing EphID on a block (the Fig-5 tail).
    auto r = aa_->enforce_domain_policy(name, ephid, now);
    if (!r) counters_.publish_blocked.fetch_add(1, std::memory_order_relaxed);
    return r;
  }
  if (policy_.blocked(name, nullptr)) {
    counters_.publish_blocked.fetch_add(1, std::memory_order_relaxed);
    return Result<void>(Errc::unauthorized, "domain blocked by policy");
  }
  return Result<void>::success();
}

std::size_t Resolver::block_domain(std::string_view domain,
                                   core::ExpTime now) {
  policy_.block(domain);
  core::emit_domain_block(persist_, domain);
  // Sweep existing publications under the new rule: collect under the
  // stripe locks, then enforce + erase outside them (enforcement touches
  // the AA and the zone again).
  std::vector<std::pair<std::string, core::EphId>> swept;
  zone_.for_each([&](const core::DnsRecord& rec) {
    if (policy_.blocked(rec.name, nullptr))
      swept.emplace_back(rec.name, rec.cert.ephid);
  });
  for (const auto& [name, ephid] : swept) {
    if (aa_ != nullptr) (void)aa_->enforce_domain_policy(name, ephid, now);
    zone_.erase(name);  // bumps its generation — its cached answers die
  }
  return swept.size();
}

Resolver::Stats Resolver::stats() const {
  Stats s;
  const auto ld = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  s.lookups = ld(counters_.lookups);
  s.invalid_name = ld(counters_.invalid_name);
  s.policy_blocked = ld(counters_.policy_blocked);
  s.monitored = ld(counters_.monitored);
  s.cache_hits = ld(counters_.cache_hits);
  s.negative_hits = ld(counters_.negative_hits);
  s.zone_hits = ld(counters_.zone_hits);
  s.nxdomain = ld(counters_.nxdomain);
  s.publish_blocked = ld(counters_.publish_blocked);
  s.forwarded = ld(counters_.forwarded);
  s.retransmits = ld(counters_.retransmits);
  s.upstream_answers = ld(counters_.upstream_answers);
  s.upstream_nxdomain = ld(counters_.upstream_nxdomain);
  s.upstream_timeouts = ld(counters_.upstream_timeouts);
  s.upstream_mismatched = ld(counters_.upstream_mismatched);
  return s;
}

// ---- ResolverPool ------------------------------------------------------------

ResolverPool::ResolverPool(Resolver& resolver, Config cfg)
    : resolver_(resolver), cfg_(cfg) {
  if (cfg_.threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    cfg_.threads = hw == 0 ? 1 : hw;
  }
  if (cfg_.chunk == 0) cfg_.chunk = 64;
  slots_ = std::make_unique<Slot[]>(cfg_.threads);
  workers_.reserve(cfg_.threads - 1);
  for (std::size_t i = 1; i < cfg_.threads; ++i)
    workers_.emplace_back([this, i] { worker_main(i); });
}

ResolverPool::~ResolverPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ResolverPool::process_chunk(std::size_t slot, std::size_t begin,
                                 std::size_t end) {
  std::lock_guard slot_lock(slots_[slot].mu);
  Stats& st = slots_[slot].stats;
  for (std::size_t j = begin; j < end; ++j) {
    out_[j] = resolver_.resolve(names_[j], now_);
    ++st.lookups;
    switch (out_[j].status) {
      case Resolver::Status::ok:
        ++st.ok;
        if (out_[j].source == Resolver::Source::cache) ++st.cache_hits;
        break;
      case Resolver::Status::nxdomain:
        ++st.nxdomain;
        break;
      case Resolver::Status::blocked:
        ++st.blocked;
        break;
      default:
        break;
    }
  }
}

void ResolverPool::drain_chunks(std::size_t slot) {
  for (;;) {
    std::size_t begin, end;
    {
      std::lock_guard lock(mu_);
      if (next_chunk_ >= chunks_total_) return;
      begin = next_chunk_++ * cfg_.chunk;
      end = std::min(begin + cfg_.chunk, names_n_);
    }
    process_chunk(slot, begin, end);
    {
      std::lock_guard lock(mu_);
      if (++chunks_done_ == chunks_total_) cv_done_.notify_all();
    }
  }
}

void ResolverPool::worker_main(std::size_t slot) {
  for (;;) {
    {
      std::unique_lock lock(mu_);
      cv_work_.wait(lock,
                    [this] { return stop_ || next_chunk_ < chunks_total_; });
      if (stop_) return;
    }
    drain_chunks(slot);
  }
}

void ResolverPool::process_lookups(std::span<const std::string> names,
                                   core::ExpTime now,
                                   std::span<Resolver::Answer> out) {
  assert(out.size() >= names.size());
  if (names.empty()) return;
  {
    std::lock_guard lock(mu_);
    names_ = names.data();
    names_n_ = names.size();
    out_ = out.data();
    now_ = now;
    next_chunk_ = 0;
    chunks_done_ = 0;
    chunks_total_ = (names.size() + cfg_.chunk - 1) / cfg_.chunk;
  }
  cv_work_.notify_all();
  // The calling thread is processing context 0 (ServicePool convention).
  drain_chunks(0);
  {
    std::unique_lock lock(mu_);
    cv_done_.wait(lock, [this] { return chunks_done_ == chunks_total_; });
  }
}

ResolverPool::Stats ResolverPool::stats() const {
  Stats merged;
  for (std::size_t i = 0; i < cfg_.threads; ++i) {
    std::lock_guard slot_lock(slots_[i].mu);
    merged.lookups += slots_[i].stats.lookups;
    merged.ok += slots_[i].stats.ok;
    merged.nxdomain += slots_[i].stats.nxdomain;
    merged.blocked += slots_[i].stats.blocked;
    merged.cache_hits += slots_[i].stats.cache_hits;
  }
  return merged;
}

}  // namespace apna::dns
