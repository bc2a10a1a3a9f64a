// Concurrency coverage for the DNS resolver subsystem: many reader threads
// hammering Resolver::resolve while writers mutate the zone and the domain
// policy (the TSan target) and, once the writers stop, answering exactly
// the zone; a same-name handoff (a lookup that starts after a put returned
// never sees the old record); plus ResolverPool determinism — pooled
// answers must match a sequential pass, and the resolver's own counters
// must account for every pooled lookup.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "dns/resolver.h"
#include "services/dns_zone.h"

namespace apna::dns {
namespace {

core::DnsRecord make_record(const std::string& name, std::uint32_t ipv4) {
  core::DnsRecord rec;
  rec.name = name;
  rec.ipv4 = ipv4;
  rec.cert.aid = 64512;
  rec.cert.exp_time = 1'700'000'900;
  return rec;
}

std::string nth_name(std::size_t i) {
  return "host" + std::to_string(i) + ".zone.example";
}

TEST(DnsConcurrency, ResolveRacesZoneAndPolicyMutation) {
  services::DnsZone zone;
  net::EventLoop loop;
  Resolver::Config cfg;
  cfg.cache.capacity = 1 << 10;
  Resolver resolver(zone, loop, cfg);

  constexpr std::size_t kNames = 256;
  for (std::size_t i = 0; i < kNames; ++i)
    zone.put(make_record(nth_name(i), static_cast<std::uint32_t>(i + 1)));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bogus{0};

  // Readers: every answer must be self-consistent — ok answers carry the
  // queried name and the ipv4 the writers ever stored for it (i+1 or
  // 1000+i), blocked answers only while a block rule can exist.
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t local_bogus = 0;
      for (std::size_t round = 0; !stop.load(std::memory_order_relaxed);
           ++round) {
        const std::size_t i = (round * 7 + static_cast<std::size_t>(t) * 13) %
                              kNames;
        const auto a = resolver.resolve(nth_name(i), /*now=*/1);
        switch (a.status) {
          case Resolver::Status::ok:
            if (a.record.name != nth_name(i)) ++local_bogus;
            if (a.record.ipv4 != i + 1 && a.record.ipv4 != 1000 + i)
              ++local_bogus;
            break;
          case Resolver::Status::nxdomain:
          case Resolver::Status::blocked:
            break;  // both legal mid-mutation
          default:
            ++local_bogus;  // servfail/invalid impossible here
        }
      }
      bogus.fetch_add(local_bogus, std::memory_order_relaxed);
    });
  }

  // Writer 1: flips records between their two legal values and erases /
  // re-inserts a sliding window.
  std::thread zone_writer([&] {
    for (int round = 0; round < 200; ++round) {
      const std::size_t i = static_cast<std::size_t>(round) % kNames;
      zone.put(make_record(nth_name(i),
                           static_cast<std::uint32_t>(1000 + i)));
      zone.erase(nth_name((i + kNames / 2) % kNames));
      zone.put(make_record(nth_name((i + kNames / 2) % kNames),
                           static_cast<std::uint32_t>((i + kNames / 2) % kNames + 1)));
    }
  });

  // Writer 2: policy churn — block/unblock the shared parent suffix.
  std::thread policy_writer([&] {
    for (int round = 0; round < 200; ++round) {
      resolver.policy().block("zone.example");
      resolver.policy().erase("zone.example");
      resolver.policy().monitor("zone.example");
      resolver.policy().erase("zone.example");
    }
  });

  zone_writer.join();
  policy_writer.join();
  // The writers are done and the readers still run: every name's answer
  // must now equal the zone's record. A fill stamped before one of the
  // writers' bumps is stillborn, so no stale answer survives the race.
  for (std::size_t i = 0; i < kNames; ++i) {
    const auto want = zone.get(nth_name(i));
    const auto got = resolver.resolve(nth_name(i), /*now=*/1);
    if (!want) {
      EXPECT_EQ(got.status, Resolver::Status::nxdomain) << nth_name(i);
      continue;
    }
    // EXPECT, not ASSERT: returning early would leave the readers unjoined.
    EXPECT_EQ(got.status, Resolver::Status::ok) << nth_name(i);
    EXPECT_EQ(got.record.ipv4, want->ipv4) << nth_name(i);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();

  EXPECT_EQ(bogus.load(), 0u);
  const auto s = resolver.stats();
  EXPECT_GT(s.lookups, 0u);
  EXPECT_EQ(s.lookups,
            s.cache_hits + s.negative_hits + s.zone_hits + s.nxdomain +
                s.policy_blocked + s.invalid_name);
}

TEST(DnsConcurrency, ReaderAfterPutReturnedNeverSeesOldRecord) {
  // Same-name handoff: once put(v) has returned, a lookup that starts
  // after it must answer v or newer, even while other readers keep the
  // cache warm with the previous record.
  services::DnsZone zone;
  net::EventLoop loop;
  Resolver::Config cfg;
  cfg.cache.capacity = 1 << 10;
  Resolver resolver(zone, loop, cfg);
  const std::string name = nth_name(7);
  zone.put(make_record(name, 1));

  constexpr std::uint32_t kPuts = 500;
  std::atomic<std::uint32_t> returned{1};  // ipv4 of the last put returned
  std::atomic<std::uint64_t> answers{0};
  std::atomic<std::uint64_t> stale{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint32_t floor = returned.load(std::memory_order_acquire);
        const auto a = resolver.resolve(name, /*now=*/1);
        if (a.status != Resolver::Status::ok || a.record.ipv4 < floor)
          stale.fetch_add(1, std::memory_order_relaxed);
        answers.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::uint32_t v = 2; v <= kPuts; ++v) {
    // Let the readers cache the current record before replacing it.
    const std::uint64_t seen = answers.load(std::memory_order_relaxed);
    while (answers.load(std::memory_order_relaxed) < seen + 4)
      std::this_thread::yield();
    zone.put(make_record(name, v));
    returned.store(v, std::memory_order_release);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();

  EXPECT_EQ(stale.load(), 0u);
  EXPECT_GT(resolver.stats().cache_hits, 0u);
  EXPECT_EQ(resolver.resolve(name, 1).record.ipv4, kPuts);
}

TEST(DnsConcurrency, ResolverPoolMatchesSequentialAndCountsEveryLookup) {
  services::DnsZone zone;
  net::EventLoop loop;
  Resolver::Config cfg;
  cfg.cache.capacity = 1 << 12;

  constexpr std::size_t kNames = 512;
  for (std::size_t i = 0; i < kNames; i += 2)  // odd names are NXDOMAIN
    zone.put(make_record(nth_name(i), static_cast<std::uint32_t>(i + 1)));

  // Sequential reference pass on its own resolver (same zone, own cache).
  Resolver reference(zone, loop, cfg);
  reference.policy().block("host13.zone.example");
  std::vector<std::string> names;
  std::vector<Resolver::Answer> expected;
  for (std::size_t i = 0; i < kNames * 2; ++i) {
    names.push_back(nth_name(i % kNames));
    expected.push_back(reference.resolve(names.back(), /*now=*/1));
  }
  // 1024 names: 16 chunks across 4 threads.
  ASSERT_GE(names.size(), 3 * ResolverPool::kChunk);

  Resolver pooled(zone, loop, cfg);
  pooled.policy().block("host13.zone.example");
  ResolverPool::Config pool_cfg;
  pool_cfg.threads = 4;
  ResolverPool pool(pooled, pool_cfg);
  std::vector<Resolver::Answer> out(names.size());
  pool.process_lookups(names, /*now=*/1, out);

  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(out[i].status, expected[i].status) << names[i];
    if (out[i].status == Resolver::Status::ok) {
      EXPECT_EQ(out[i].record.name, expected[i].record.name);
      EXPECT_EQ(out[i].record.ipv4, expected[i].record.ipv4);
    }
  }

  // The resolver's counters account for every pooled lookup: each one
  // ends in exactly one outcome.
  const auto rs = pooled.stats();
  EXPECT_EQ(rs.lookups, names.size());
  std::size_t ok = 0, nx = 0, blocked = 0;
  for (const auto& a : out) {
    ok += a.status == Resolver::Status::ok;
    nx += a.status == Resolver::Status::nxdomain;
    blocked += a.status == Resolver::Status::blocked;
  }
  EXPECT_EQ(rs.cache_hits + rs.zone_hits, ok);
  EXPECT_EQ(rs.negative_hits + rs.nxdomain, nx);
  EXPECT_EQ(rs.policy_blocked, blocked);
  EXPECT_EQ(ok + nx + blocked, names.size());

  // A second burst through the same pool reuses the warm cache and still
  // matches (cached ≡ uncached).
  std::vector<Resolver::Answer> out2(names.size());
  pool.process_lookups(names, /*now=*/1, out2);
  for (std::size_t i = 0; i < names.size(); ++i)
    EXPECT_EQ(out2[i].status, expected[i].status) << names[i];
  EXPECT_EQ(pooled.stats().lookups, 2 * names.size());
  EXPECT_GT(pooled.stats().cache_hits, rs.cache_hits);
}

}  // namespace
}  // namespace apna::dns
