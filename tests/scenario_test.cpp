// Scenario-engine properties (src/scenario) — the scale-sensitive
// invariants the integration examples were too small to exercise:
//  * never-cache-negatives under attack: a pure bogus-EphID flood drops
//    every packet at authenticated EphID decryption and inserts NOTHING
//    into any worker's FlowCache;
//  * resilience: legitimate-traffic hit rates recover to baseline after a
//    flood and after mass-revocation epoch churn;
//  * mass-revocation soak: cached and uncached classification stay verdict-
//    identical across 10k-revocation waves interleaved with classify
//    bursts (the VerdictEpoch invalidation contract at scale);
//  * determinism: two engines with the same seed produce identical
//    deterministic phase counters; different seeds diverge.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/packet_auth.h"
#include "scenario/scenario.h"

namespace apna::scenario {
namespace {

Engine::Config small_config(std::uint64_t seed = 7) {
  Engine::Config cfg;
  cfg.seed = seed;
  cfg.threads = 2;
  cfg.active_flows = 64;
  return cfg;
}

// ---- Flood properties --------------------------------------------------------

TEST(ScenarioFlood, BogusEphIdsNeverPopulateAnyFlowCache) {
  Engine engine(small_config());
  engine.run_phase(Phase::register_hosts("prov", 2'000));

  // 100% forged EphIDs, no garbage frames: every packet parses, reaches
  // classification and must die at authenticated EphID decryption.
  Phase flood = Phase::flood("pure_flood", 8, 256, /*bogus=*/1.0,
                             /*garbage=*/0.0);
  const PhaseReport r = engine.run_phase(flood);

  ASSERT_GT(r.packets, 0u);
  EXPECT_EQ(r.rx_rejected, 0u);  // all frames were well-formed
  EXPECT_EQ(r.router.drop_bad_ephid, r.packets);
  EXPECT_EQ(r.router.forwarded_out, 0u);
  // The never-cache-negatives property, summed over every worker's cache:
  // drops are never memoized, so the flood inserts nothing and hits nothing.
  EXPECT_EQ(r.cache.insertions, 0u);
  EXPECT_EQ(r.cache.hits, 0u);
}

TEST(ScenarioFlood, GarbageFramesDieAtBindBeforeTheRouter) {
  Engine engine(small_config());
  engine.run_phase(Phase::register_hosts("prov", 500));

  Phase flood = Phase::flood("garbage_only", 4, 128, /*bogus=*/0.0,
                             /*garbage=*/1.0);
  const PhaseReport r = engine.run_phase(flood);

  // Unparseable frames are counted at the transport (rx_rejected) and
  // never reach classification — the classified-packet count is zero.
  EXPECT_EQ(r.packets, 0u);
  EXPECT_EQ(r.rx_rejected, 4u * 128u);
  EXPECT_EQ(r.router.total_drops(), 0u);
  EXPECT_EQ(r.cache.insertions, 0u);
}

TEST(ScenarioFlood, HitRateRecoversAfterFlood) {
  Engine engine(small_config());
  engine.run_phase(Phase::register_hosts("prov", 2'000));

  const PhaseReport baseline =
      engine.run_phase(Phase::traffic("baseline", 16, 256));
  engine.run_phase(Phase::flood("flood", 8, 512, 0.8, 0.1));
  const PhaseReport recovery =
      engine.run_phase(Phase::traffic("recovery", 16, 256));

  ASSERT_GT(baseline.cache.hit_rate(), 0.5);
  // The flood neither poisoned nor displaced the legitimate working set's
  // cache efficiency: the post-storm phase (a structurally identical
  // traffic script) recovers to baseline.
  EXPECT_GE(recovery.cache.hit_rate(), baseline.cache.hit_rate() - 0.05);
  EXPECT_EQ(recovery.router.total_drops(), 0u);
}

// ---- Mass-revocation soak ----------------------------------------------------

/// Standalone soak fixture: one AS, a burst of sealed legitimate packets,
/// one router classifying the SAME burst with and without a FlowCache while
/// revocation waves hammer VerdictEpoch between rounds.
struct SoakFixture {
  crypto::ChaChaRng rng{99};
  core::AsState as{64512, core::AsSecrets::generate(rng)};
  core::ExpTime now = 1'700'000'000;
  static constexpr core::Hid kHosts = 256;
  std::vector<core::HostAsKeys> keys;
  std::vector<core::EphId> flows;
  std::unique_ptr<router::BorderRouter> br;

  SoakFixture() {
    for (core::Hid hid = 1; hid <= kHosts; ++hid) {
      core::HostRecord rec;
      rec.hid = hid;
      rng.fill(MutByteSpan(rec.keys.enc.data(), rec.keys.enc.size()));
      rng.fill(MutByteSpan(rec.keys.mac.data(), rec.keys.mac.size()));
      as.host_db.upsert(rec);
      keys.push_back(rec.keys);
      flows.push_back(as.codec.issue(hid, now + 7200, rng));
    }
    router::BorderRouter::Callbacks cb;
    cb.now = [this] { return now; };
    br = std::make_unique<router::BorderRouter>(as, std::move(cb));
  }

  wire::Packet egress_packet(core::Hid hid) {
    wire::Packet pkt;
    pkt.src_aid = as.aid;
    pkt.src_ephid = flows[hid - 1].bytes;
    pkt.dst_aid = 64513;
    rng.fill(MutByteSpan(pkt.dst_ephid.data(), 16));
    pkt.proto = wire::NextProto::data;
    pkt.payload = rng.bytes(48);
    core::stamp_packet_mac(
        crypto::AesCmac(ByteSpan(keys[hid - 1].mac.data(), 16)), pkt);
    return pkt;
  }
};

TEST(ScenarioSoak, CachedVerdictsMatchUncachedAcross10kRevocations) {
  SoakFixture f;
  core::FlowCache cache(1024);

  // A Zipf-ish burst over the flow set (hot flows repeat — the cacheable
  // case that must keep re-verifying correctly as the epoch advances).
  std::vector<wire::PacketBuf> bufs;
  std::vector<wire::PacketView> views;
  for (std::size_t i = 0; i < 512; ++i) {
    const core::Hid hid =
        1 + static_cast<core::Hid>(f.rng.next_u32() %
                                   (i % 4 == 0 ? SoakFixture::kHosts : 16));
    bufs.push_back(f.egress_packet(hid).seal());
    views.push_back(bufs.back().view());
  }

  constexpr std::size_t kWaves = 10, kRevocationsPerWave = 1'000;
  std::uint64_t revoked_verdicts = 0;
  for (std::size_t wave = 0; wave <= kWaves; ++wave) {
    std::vector<router::BorderRouter::Verdict> cached(views.size());
    std::vector<router::BorderRouter::Verdict> uncached(views.size());
    router::BorderRouter::Stats cs, us;
    f.br->classify_outgoing_burst(views, f.now, cached, cs, &cache);
    f.br->classify_outgoing_burst(views, f.now, uncached, us);
    for (std::size_t i = 0; i < views.size(); ++i) {
      ASSERT_EQ(static_cast<int>(cached[i].err),
                static_cast<int>(uncached[i].err))
          << "wave " << wave << " packet " << i;
      ASSERT_EQ(cached[i].hid, uncached[i].hid)
          << "wave " << wave << " packet " << i;
      if (cached[i].err == Errc::revoked) ++revoked_verdicts;
    }
    if (wave == kWaves) break;

    // The wave: 1k revocations — one hits a hot live flow (so revoked
    // verdicts actually appear in the next burst), the rest are fresh
    // EphIDs of random hosts (pure epoch churn).
    f.as.revoked.revoke_ephid(f.flows[wave], f.now + 7200,
                              static_cast<core::Hid>(wave + 1));
    for (std::size_t i = 1; i < kRevocationsPerWave; ++i) {
      const core::Hid hid =
          1 + static_cast<core::Hid>(f.rng.next_u32() % SoakFixture::kHosts);
      f.as.revoked.revoke_ephid(f.as.codec.issue(hid, f.now + 7200, f.rng),
                                f.now + 7200, hid);
    }
  }

  // 10k revocations really were applied, epoch churn really invalidated
  // cached verdicts, and revoked flows really started dropping.
  EXPECT_GE(f.as.revoked.size(), kWaves * kRevocationsPerWave);
  EXPECT_GT(cache.stats().stale_gen, 0u);
  EXPECT_GT(revoked_verdicts, 0u);
}

TEST(ScenarioSoak, EngineRevocationWaveKeepsClassifying) {
  Engine engine(small_config());
  engine.run_phase(Phase::register_hosts("prov", 5'000));
  engine.run_phase(Phase::traffic("warm", 8, 256));

  const PhaseReport wave = engine.run_phase(
      Phase::revocation_wave("wave", 10'000, 10, 4, 256));
  EXPECT_EQ(wave.revocations_applied, 10'000u);
  EXPECT_GE(wave.epoch, 10'000u);          // every revocation bumped it
  EXPECT_GT(wave.cache.stale_gen, 0u);     // caches were invalidated...
  EXPECT_GT(wave.router.forwarded_out, 0u);  // ...yet traffic kept flowing
  EXPECT_GT(wave.router.drop_revoked, 0u);   // and revoked flows dropped

  const PhaseReport recovery =
      engine.run_phase(Phase::traffic("recover", 8, 256));
  EXPECT_GT(recovery.cache.hit_rate(), 0.5);
}

// ---- Shutoff storms ----------------------------------------------------------

TEST(ScenarioStorm, ShutoffStormRevokesAndEscalates) {
  Engine engine(small_config());
  engine.run_phase(Phase::register_hosts("prov", 1'000));

  // 8 attackers × 20 requests each: every attacker crosses the §VIII-G2
  // threshold (16) mid-storm.
  const PhaseReport r =
      engine.run_phase(Phase::shutoff_storm("storm", 160));
  EXPECT_EQ(r.shutoff_requests, 160u);
  EXPECT_GT(r.aa_accepted, 0u);
  EXPECT_GT(r.aa_hid_escalations, 0u);
  EXPECT_GT(r.epoch, 1u);                 // revocation instructions landed
  EXPECT_GT(r.revoked_entries, 0u);
}

// ---- Determinism -------------------------------------------------------------

std::vector<Phase> determinism_script() {
  return {
      Phase::register_hosts("prov", 3'000),
      Phase::traffic("traffic", 8, 256),
      Phase::flood("flood", 4, 256, 0.8, 0.1),
      Phase::shutoff_storm("storm", 48),
      Phase::revocation_wave("wave", 2'000, 4, 2, 128),
      Phase::replay_tamper("replay", 4, 128),
  };
}

void expect_same_deterministic_fields(const PhaseReport& a,
                                      const PhaseReport& b,
                                      bool compare_cache = true) {
  EXPECT_EQ(a.packets, b.packets) << a.name;
  EXPECT_EQ(a.joins, b.joins) << a.name;
  EXPECT_EQ(a.leaves, b.leaves) << a.name;
  EXPECT_EQ(a.shutoff_requests, b.shutoff_requests) << a.name;
  EXPECT_EQ(a.revocations_applied, b.revocations_applied) << a.name;
  EXPECT_EQ(a.router.forwarded_out, b.router.forwarded_out) << a.name;
  EXPECT_EQ(a.router.total_drops(), b.router.total_drops()) << a.name;
  EXPECT_EQ(a.router.drop_bad_ephid, b.router.drop_bad_ephid) << a.name;
  EXPECT_EQ(a.router.drop_revoked, b.router.drop_revoked) << a.name;
  EXPECT_EQ(a.router.drop_replayed, b.router.drop_replayed) << a.name;
  if (compare_cache) {
    // Per-worker cache counters are deterministic only for a FIXED thread
    // count: a flow that migrates between workers re-misses in each
    // worker's cache (the cross_worker_duplicates gauge measures exactly
    // this), so the split of hits/misses depends on the worker count.
    EXPECT_EQ(a.cache.hits, b.cache.hits) << a.name;
    EXPECT_EQ(a.cache.misses, b.cache.misses) << a.name;
    EXPECT_EQ(a.cache.insertions, b.cache.insertions) << a.name;
  }
  EXPECT_EQ(a.rx_rejected, b.rx_rejected) << a.name;
  EXPECT_EQ(a.rx_delivered, b.rx_delivered) << a.name;
  EXPECT_EQ(a.aa_accepted, b.aa_accepted) << a.name;
  EXPECT_EQ(a.aa_rejected, b.aa_rejected) << a.name;
  EXPECT_EQ(a.aa_hid_escalations, b.aa_hid_escalations) << a.name;
  EXPECT_EQ(a.epoch, b.epoch) << a.name;
  EXPECT_EQ(a.live_hosts, b.live_hosts) << a.name;
  EXPECT_EQ(a.revoked_entries, b.revoked_entries) << a.name;
  EXPECT_EQ(a.host_db_bytes, b.host_db_bytes) << a.name;
  EXPECT_EQ(a.revocation_bytes, b.revocation_bytes) << a.name;
}

TEST(ScenarioDeterminism, SameSeedSameCountersAcrossEngines) {
  Engine a(small_config(42));
  Engine b(small_config(42));
  const auto ra = a.run_script(determinism_script());
  const auto rb = b.run_script(determinism_script());
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i)
    expect_same_deterministic_fields(ra[i], rb[i]);
}

TEST(ScenarioDeterminism, DifferentSeedsDiverge) {
  Engine a(small_config(1));
  Engine b(small_config(2));
  // The flood phase's forged EphIDs and traffic mix are seed-driven; two
  // seeds agreeing on every drop counter would mean the seed is ignored.
  const auto script = std::vector<Phase>{
      Phase::register_hosts("prov", 1'000),
      Phase::flood("flood", 4, 256, 0.5, 0.3),
  };
  const auto ra = a.run_script(script);
  const auto rb = b.run_script(script);
  EXPECT_NE(ra[1].rx_rejected, rb[1].rx_rejected);
}

TEST(ScenarioDeterminism, ThreadCountDoesNotChangeRouterCounters) {
  Engine::Config one = small_config(11);
  one.threads = 1;
  Engine::Config four = small_config(11);
  four.threads = 4;
  Engine a(one), b(four);
  const auto script = std::vector<Phase>{
      Phase::register_hosts("prov", 2'000),
      Phase::traffic("traffic", 8, 256),
      Phase::flood("flood", 4, 256, 0.8, 0.1),
  };
  const auto ra = a.run_script(script);
  const auto rb = b.run_script(script);
  for (std::size_t i = 0; i < ra.size(); ++i)
    expect_same_deterministic_fields(ra[i], rb[i], /*compare_cache=*/false);
}

// ---- Churn + memory accounting -----------------------------------------------

TEST(ScenarioChurn, DiurnalChurnRetiresOldestAndBumpsEpoch) {
  Engine engine(small_config());
  // live_hosts counts the whole HostDb, infrastructure identities (the AA)
  // included — hence relative assertions against the provisioned baseline.
  const auto prov = engine.run_phase(Phase::register_hosts("prov", 4'000));
  EXPECT_GE(prov.live_hosts, 4'000u);

  const auto churn =
      engine.run_phase(Phase::churn("day", 500, 300, 4, 128));
  EXPECT_EQ(churn.live_hosts, prov.live_hosts + 500 - 300);
  EXPECT_EQ(churn.joins, 500u);
  EXPECT_EQ(churn.leaves, 300u);
  EXPECT_GE(churn.epoch, 300u);  // every de-registration bumped the epoch
  // The ≤200 B/host budget is an AMORTIZED claim (the schedule cache is a
  // fixed cost) — asserted at 10⁶ hosts by the internet_scale ctest entry,
  // not here. At 4k hosts we only require the accounting to be sane.
  EXPECT_GT(churn.host_db_bytes, 0u);
  EXPECT_GT(churn.host_db_bytes_per_host, 0.0);
}

TEST(ScenarioMultiAs, PopulationSpreadsAndTrafficFlows) {
  MultiAsConfig cfg;
  cfg.seed = 5;
  cfg.as_count = 16;
  cfg.hosts_per_as = 200;
  cfg.bursts = 8;
  cfg.burst_packets = 64;
  const MultiAsReport rep = run_multi_as(cfg);
  EXPECT_EQ(rep.as_count, 16u);
  EXPECT_EQ(rep.total_hosts, 16u * 200u);  // churn is leave+join symmetric
  EXPECT_GT(rep.forwarded_out, 0u);
  EXPECT_GT(rep.transited, 0u);
  EXPECT_GT(rep.delivered_in, 0u);
  EXPECT_EQ(rep.total_drops, 0u);
  EXPECT_GT(rep.churned, 0u);

  // Determinism holds for the multi-AS sweep too.
  const MultiAsReport rep2 = run_multi_as(cfg);
  EXPECT_EQ(rep.forwarded_out, rep2.forwarded_out);
  EXPECT_EQ(rep.delivered_in, rep2.delivered_in);
  EXPECT_EQ(rep.total_host_db_bytes, rep2.total_host_db_bytes);
}

// ---- DNS storm ---------------------------------------------------------------

TEST(ScenarioDnsStorm, NegativeBoundsHoldAndHitRateRecovers) {
  Engine engine(small_config());
  constexpr std::uint64_t kNames = 5'000;
  constexpr std::uint64_t kJunk = 50'000;

  const PhaseReport baseline =
      engine.run_phase(Phase::dns_storm("baseline", kNames, 0, 8, 512));
  const PhaseReport storm =
      engine.run_phase(Phase::dns_storm("storm", kNames, kJunk, 8, 512));
  const PhaseReport recovery =
      engine.run_phase(Phase::dns_storm("recovery", kNames, 0, 8, 512));

  // Per-phase counter deltas, like the other storms: the storm phase's
  // lookup count is exactly its two positive passes plus the junk flood.
  EXPECT_EQ(storm.dns_lookups, 2u * 8u * 512u + kJunk);
  EXPECT_EQ(storm.packets, storm.dns_lookups);
  // Every junk lookup was answered negatively — authoritatively or from
  // the negative cache, never from a positive entry.
  EXPECT_EQ(storm.dns_nxdomain + storm.dns_negative_hits, kJunk);

  // The negative-cache bound: a 50k-name NXDOMAIN flood stays inside the
  // cache's bounded negative slice.
  EXPECT_GT(storm.dns_negative_capacity, 0u);
  EXPECT_LE(storm.dns_negative_entries, storm.dns_negative_capacity);

  // The positive hit rate recovers after the storm: the post-storm pass
  // inside the storm phase AND the whole recovery phase match baseline.
  ASSERT_GT(baseline.dns_recovery_hit_rate, 0.5);
  EXPECT_GE(storm.dns_recovery_hit_rate,
            baseline.dns_recovery_hit_rate - 0.05);
  EXPECT_GE(recovery.dns_recovery_hit_rate,
            baseline.dns_recovery_hit_rate - 0.05);

  // Non-DNS phases report zero DNS activity.
  const PhaseReport prov =
      engine.run_phase(Phase::register_hosts("prov", 100));
  EXPECT_EQ(prov.dns_lookups, 0u);
  EXPECT_EQ(prov.dns_negative_entries, 0u);
}

}  // namespace
}  // namespace apna::scenario
