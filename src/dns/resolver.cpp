#include "dns/resolver.h"

#include <algorithm>
#include <cassert>
#include <vector>

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
  counters_.add<&Stats::lookups>();

  std::string_view key = name;
  if (!is_canonical(name)) {
    canon = canonical_name(name);
    key = canon;
  }
  if (!validate_name(key)) {
    counters_.add<&Stats::invalid_name>();
    out.status = Status::invalid;
    out.source = Source::none;
    return true;
  }

  // Policy before any state: a blocked domain never warms the cache.
  if (auto rule = policy_.match(key)) {
    if (rule->action == DomainRule::Action::block) {
      counters_.add<&Stats::policy_blocked>();
      out.status = Status::blocked;
      out.source = Source::policy;
      return true;
    }
    counters_.add<&Stats::monitored>();
  }

  // The probe reads the name's generation BEFORE the zone read below — the
  // stamp that makes a racing update of the name kill this fill instead of
  // hiding behind it.
  switch (cache_.lookup(key, now, &out.record, &gen)) {
    case DnsCache::Outcome::hit:
      counters_.add<&Stats::cache_hits>();
      out.status = Status::ok;
      out.source = Source::cache;
      return true;
    case DnsCache::Outcome::negative:
      counters_.add<&Stats::negative_hits>();
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
    counters_.add<&Stats::zone_hits>();
    cache_.insert(key, out.record, now + cfg_.positive_ttl, gen);
    out.status = Status::ok;
    out.source = Source::zone;
    return true;
  }
  if (!authoritative) {
    if (canon.empty()) canon.assign(key);
    return false;  // forward upstream
  }
  counters_.add<&Stats::nxdomain>();
  cache_.insert_negative(key, now, cfg_.negative_ttl, gen);
  out.status = Status::nxdomain;
  out.source = Source::zone;
  return true;
}

Resolver::Answer Resolver::resolve(std::string_view name, core::ExpTime now) {
  Answer a;
  resolve_into(name, now, a);
  return a;
}

void Resolver::resolve_into(std::string_view name, core::ExpTime now,
                            Answer& out) {
  std::string canon;
  std::uint64_t gen = 0;
  resolve_local(name, now, /*authoritative=*/true, canon, gen, out);
  if (out.status != Status::ok) {
    out.record.name.clear();
    out.record.cert = {};
    out.record.ipv4 = 0;
    out.record.sig = {};
  }
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
  counters_.add<&Stats::forwarded>();
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
      counters_.add<&Stats::retransmits>();
      // Same ordering rule as resolve_async: a synchronous upstream
      // answer erases the entry inside send_query, so arm first.
      arm_timeout(id, p.serial, p.timeout);
      send_query(id, p);
      return;
    }
    counters_.add<&Stats::upstream_timeouts>();
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
    counters_.add<&Stats::upstream_mismatched>();
    return;
  }
  auto it = pending_.find(resp->id);
  if (it == pending_.end() || it->second.name != resp->name) {
    // Unknown id or an id-collision answer for a different question:
    // either way it must not touch the cache (§VII-A's stand-in for
    // off-path answer forgery).
    counters_.add<&Stats::upstream_mismatched>();
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
      counters_.add<&Stats::upstream_answers>();
      a.status = Status::ok;
      a.record = std::move(*resp->record);
      cache_.insert(resp->name, a.record,
                    now + std::min<core::ExpTime>(resp->ttl,
                                                  cfg_.positive_ttl),
                    gen);
      break;
    case Rcode::nxdomain:
      counters_.add<&Stats::upstream_nxdomain>();
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
    if (!r) counters_.add<&Stats::publish_blocked>();
    return r;
  }
  if (policy_.blocked(name, nullptr)) {
    counters_.add<&Stats::publish_blocked>();
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

// ---- ResolverPool ------------------------------------------------------------

void ResolverPool::process_lookups(std::span<const std::string> names,
                                   core::ExpTime now,
                                   std::span<Resolver::Answer> out) {
  assert(out.size() >= names.size());
  pool_.run(names.size(), kChunk,
            [&](std::size_t, std::size_t begin, std::size_t end) {
              for (std::size_t j = begin; j < end; ++j)
                resolver_.resolve_into(names[j], now, out[j]);
            });
}

}  // namespace apna::dns
