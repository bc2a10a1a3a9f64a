// E2/E3 — Border-router forwarding performance (Fig 8a: Mpps, Fig 8b: Gbps)
// and E11 (baseline overhead comparison).
// Metric: per-packet pipeline cost (ns/pkt) for the exact Fig 4 egress
// checks, projected onto the paper's 120 Gbps port model; plus aggregate
// pkts/s of the concurrent data plane — ForwardingPool over the one fused
// classify kernel, against a per-packet check_outgoing reference, AND the
// verified-flow cache on a flow-local (Zipf) workload: hit-rate,
// pps-vs-hit-rate and --threads axes are recorded to
// BENCH_e2.json together with the zero-copy accounting: heap allocations
// per forwarded packet (asserted == 0 in steady state) and copied bytes
// per forwarded packet (wire::copy_audit).
//
// Paper setup: a commodity server (2× Xeon E5-2680, 16 cores) with 6
// dual-port 10 GbE NICs (120 Gbps aggregate), driven by a Spirent traffic
// generator, DPDK forwarding; packet sizes {128, 256, 512, 1024, 1518} B.
// Result: APNA forwarding matches the theoretical line-rate maximum at all
// sizes — the extra per-packet work (1 AES decryption, 2 lookups, 1 MAC
// verification) never becomes the bottleneck.
//
// Substitution: we measure the same per-packet pipeline (check_outgoing /
// check_incoming, the exact Fig 4 work) in-memory over bound PacketViews,
// then combine the measured CPU cost with the testbed's port model
// (12×10GbE, Ethernet 20 B/frame overhead) to produce the two Fig 8
// panels. The --threads sweep measures aggregation directly (M workers
// over the lock-striped AS state), and the Zipf sweep measures what the
// paper's testbed never exercised: flow-dominated traffic, where the
// verified-flow cache amortizes the EphID verdict across a flow's packets
// (design choice 3 taken one step further — most packets do ONE symmetric
// MAC and zero EphID crypto).
//
// The --loopback leg (on by default; also in --smoke) moves the same
// forwarding pipeline onto a REAL wire: a TX thread blasts sealed packets
// over a loopback UDP socket pair (net/transport.h), the RX thread drains
// datagrams into pooled PacketBufs and runs ForwardingPool bursts with
// flow-hash steering — real multi-worker pps, recorded to BENCH_e2.json.
// The >1.0x-at-2+-workers assertion skips (with a printed warning) on
// single-core hosts, where the sweep measures the scheduler, not the code.
//
// Usage: bench_e2_forwarding [--threads=1,2,4,8] [--burst=512] [--smoke]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/as_state.h"
#include "core/packet_auth.h"
#include "net/sim.h"
#include "net/transport.h"
#include "router/border_router.h"
#include "router/forwarding_pool.h"
// Heap-allocation counter: the steady-state forwarding loops below must
// not add a single allocation per packet (the zero-copy API contract —
// the SAME hook as tests/alloc_count_test, asserted here so a regression
// fails the bench run, not just the unit suite).
#include "util/alloc_count_hook.h"

using namespace apna;

namespace {

struct Setup {
  crypto::ChaChaRng rng{808};
  core::AsState as{64512, core::AsSecrets::generate(rng)};
  core::ExpTime now = net::kEpochSeconds;
  std::unique_ptr<router::BorderRouter> br;
  std::unique_ptr<router::BorderRouter> baseline;
  std::vector<core::HostAsKeys> host_keys;

  Setup() {
    router::BorderRouter::Callbacks cb;
    // Count-only egress: consumes (and pool-recycles) the handed-off
    // buffer like a real transmit queue, with no simulator behind it.
    cb.send_external = [](wire::PacketBuf) { return Result<void>::success(); };
    cb.deliver_internal = [](core::Hid, wire::PacketBuf) {
      return Result<void>::success();
    };
    cb.now = [this] { return now; };
    br = std::make_unique<router::BorderRouter>(as, cb);
    router::BorderRouter::Config base_cfg;
    base_cfg.mode = router::BorderRouter::Mode::baseline;
    baseline = std::make_unique<router::BorderRouter>(as, cb, base_cfg);

    // A population of hosts so table lookups exercise a realistic map.
    for (core::Hid hid = 1; hid <= 1024; ++hid) {
      crypto::SharedSecret seed{};
      rng.fill(MutByteSpan(seed.data(), 32));
      core::HostRecord rec;
      rec.hid = hid;
      rec.keys = core::HostAsKeys::derive(seed);
      as.host_db.upsert(rec);
      host_keys.push_back(rec.keys);
    }
  }

  /// Builds an egress packet whose wire size equals `frame_size`.
  wire::Packet make_packet(std::size_t frame_size, core::Hid hid) {
    wire::Packet pkt;
    pkt.src_aid = as.aid;
    pkt.dst_aid = 64513;
    pkt.src_ephid = as.codec.issue(hid, now + 900, rng).bytes;
    rng.fill(MutByteSpan(pkt.dst_ephid.data(), 16));
    pkt.proto = wire::NextProto::data;
    const std::size_t overhead = wire::kApnaHeaderSize + 4;  // header + ext
    pkt.payload = rng.bytes(frame_size > overhead ? frame_size - overhead : 1);
    core::stamp_packet_mac(
        crypto::AesCmac(ByteSpan(host_keys[hid - 1].mac.data(), 16)), pkt);
    return pkt;
  }
};

/// Owned buffers + the view span the zero-copy fast path consumes.
struct SealedBurst {
  std::vector<wire::PacketBuf> bufs;
  std::vector<wire::PacketView> views;

  void push(const wire::Packet& p) {
    bufs.push_back(p.seal());
    views.push_back(bufs.back().view());
  }
};

constexpr std::size_t kSizes[] = {128, 256, 512, 1024, 1518};
constexpr double kLineRateBps = 120e9;        // 6 dual-port 10GbE NICs
constexpr double kEthOverheadBytes = 20;      // preamble + IFG

double line_rate_pps(std::size_t frame) {
  return kLineRateBps / (8.0 * (frame + kEthOverheadBytes));
}

std::vector<std::size_t> parse_thread_list(int argc, char** argv,
                                           unsigned cores) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      std::vector<std::size_t> out;
      const char* p = argv[i] + 10;
      while (*p) {
        char* end = nullptr;
        const unsigned long v = std::strtoul(p, &end, 10);
        if (end == p) break;  // non-numeric token: stop, don't spin
        if (v > 0) out.push_back(v);
        p = *end == ',' ? end + 1 : end;
      }
      if (!out.empty()) return out;
    }
  }
  // Default sweep: 1, 2, 4, ... up to at least 4 (so the scaling shape is
  // recorded even on small hosts, where extra threads just tie).
  std::vector<std::size_t> out;
  for (std::size_t t = 1; t <= std::max(4u, cores); t *= 2) out.push_back(t);
  return out;
}

/// --burst (default 512). The loopback leg warms one pooled buffer per
/// packet of its largest burst, max(burst, rx_batch), plus one for the
/// handoff copy; a thread's BufferPool keeps at most kMaxRetained, so a
/// larger burst can allocate in the measured window.
std::size_t parse_burst(int argc, char** argv) {
  std::size_t burst = 512;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--burst=", 8) == 0)
      burst = std::strtoul(argv[i] + 8, nullptr, 10);
  constexpr std::size_t kRetained = wire::BufferPool::kMaxRetained;
  if (std::max(burst, net::UdpTransport::Config().rx_batch) + 1 > kRetained) {
    std::fprintf(stderr,
                 "usage: bench_e2_forwarding [--threads=1,2,4,8] "
                 "[--burst=N] [--smoke]\n"
                 "--burst=%zu: the loopback leg warms max(burst, rx_batch) "
                 "+ 1 pooled buffers and a BufferPool keeps at most %zu, so "
                 "N must be at most %zu\n",
                 burst, kRetained, kRetained - 1);
    std::exit(2);
  }
  return burst;
}

struct PoolRun {
  double pps = 0;
  double allocs_per_pkt = 0;      // heap allocations per forwarded packet
  double copy_bytes_per_pkt = 0;  // pooled copy_of bytes per packet
  double hit_rate = 0;            // verified-flow cache (0 when disabled)
};

/// Measurement window (seconds); --smoke shrinks it.
double g_measure_s = 0.4;

/// Wall-clock pkts/s of `process` (one burst per call) over a cycling
/// schedule of bursts, with zero-copy accounting taken over the
/// measurement window (after warm-up).
template <class Process>
PoolRun timed_run(std::span<const std::vector<wire::PacketView>> schedule,
                  Process&& process) {
  using Clock = std::chrono::steady_clock;
  // Warmup (populates the per-thread buffer pools, the verdict buffers and
  // — when enabled — the flow caches), then measure.
  for (std::size_t i = 0; i < std::max<std::size_t>(4, schedule.size()); ++i)
    process(schedule[i % schedule.size()]);

  const std::uint64_t allocs0 = util::heap_alloc_count();
  const wire::CopyAudit audit0 = wire::copy_audit();
  std::size_t packets = 0, iter = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  do {
    const auto& burst = schedule[iter++ % schedule.size()];
    process(burst);
    packets += burst.size();
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (elapsed < g_measure_s);

  PoolRun run;
  run.pps = static_cast<double>(packets) / elapsed;
  run.allocs_per_pkt =
      static_cast<double>(util::heap_alloc_count() - allocs0) / packets;
  // copy_audit is thread-local: the apply phase (where copy_of runs) is on
  // the calling thread, so this thread's audit sees every handoff copy.
  run.copy_bytes_per_pkt =
      static_cast<double>(wire::copy_audit().copy_bytes - audit0.copy_bytes) /
      packets;
  return run;
}

/// A ForwardingPool of `threads` over the schedule, plus the flow-cache
/// hit rate over the same window.
PoolRun pool_run(router::BorderRouter& br,
                 std::span<const std::vector<wire::PacketView>> schedule,
                 core::ExpTime now, std::size_t threads,
                 std::size_t cache_entries) {
  router::ForwardingPool::Config cfg;
  cfg.threads = threads;
  cfg.flow_cache_entries = cache_entries;
  router::ForwardingPool pool(br, cfg);
  const auto process = [&](const auto& burst) {
    pool.process_outgoing(burst, now);
  };
  // One pass over the schedule warms the caches, so the hit rate below
  // covers steady state only. The stats are read outside timed_run's
  // alloc window: flow_cache_stats() builds the cross-worker duplicate map
  // (a stats read, not a fast path — it may allocate).
  for (const auto& burst : schedule) process(burst);
  const core::FlowCache::Stats cache0 = pool.flow_cache_stats();
  PoolRun run = timed_run(schedule, process);
  const core::FlowCache::Stats cache1 = pool.flow_cache_stats();
  const std::uint64_t lookups =
      (cache1.hits - cache0.hits) + (cache1.misses - cache0.misses);
  if (lookups > 0)
    run.hit_rate = static_cast<double>(cache1.hits - cache0.hits) / lookups;
  return run;
}

/// The per-packet reference on one thread: check_outgoing (plus the MTU
/// check) for every packet, then apply_outgoing_verdicts — no flow cache
/// and no batching. The denominator of the kernel and cache speedups.
PoolRun reference_run(router::BorderRouter& br,
                      std::span<const std::vector<wire::PacketView>> schedule,
                      core::ExpTime now) {
  std::vector<router::BorderRouter::Verdict> verdicts;
  router::BorderRouter::Stats stats;
  return timed_run(schedule, [&](const auto& burst) {
    verdicts.resize(burst.size());
    for (std::size_t i = 0; i < burst.size(); ++i)
      verdicts[i].err = burst[i].wire_size() > br.config().mtu
                            ? Errc::too_big
                            : br.check_outgoing(burst[i], now).code();
    br.apply_outgoing_verdicts(burst, verdicts, stats);
  });
}

// ---- Loopback UDP leg: the pipeline behind a real socket ---------------------

struct LoopbackPoint {
  std::size_t workers = 0;
  double pps = 0;             // packets forwarded per second, RX side
  std::uint64_t allocs = 0;   // heap allocations in the measured window
  std::size_t packets = 0;    // packets forwarded in the measured window
  std::size_t max_burst = 0;  // largest burst drained, warm-up included

  double allocs_per_pkt() const {
    return packets == 0 ? 0.0
                        : static_cast<double>(allocs) /
                              static_cast<double>(packets);
  }
};

/// One measured worker count over the live TX blast. `rx` is drained on
/// the calling thread into pooled PacketBufs; full (or socket-empty)
/// bursts run through a flow-hash-steered ForwardingPool. One poll drains
/// up to `rx_batch` datagrams, so a burst never exceeds
/// max(burst_size, rx_batch): the bound every warm-up below sizes for.
LoopbackPoint loopback_point(Setup& s, net::Transport& rx,
                             const SealedBurst& flows, std::size_t burst_size,
                             std::size_t rx_batch, std::size_t rx_buf_bytes,
                             std::size_t workers, double warm_s,
                             double measure_s) {
  router::ForwardingPool::Config cfg;
  cfg.threads = workers;
  cfg.flow_cache_entries = 4096;  // steering keeps each flow's entry hot
  router::ForwardingPool pool(*s.br, cfg);

  const std::size_t max_burst = std::max(burst_size, rx_batch);
  std::vector<wire::PacketBuf> owned;
  std::vector<wire::PacketView> views;
  owned.reserve(max_burst);
  views.reserve(max_burst);
  rx.set_rx([&](net::PeerId, wire::PacketBuf p) {
    views.push_back(p.view());
    owned.push_back(std::move(p));  // Bytes move: the view stays valid
  });

  // Deterministic worst-case warm-up of the pool's reusable buffers: a
  // largest-possible single-flow burst per flow bounds every ring's index
  // list / gather / scratch at max_burst, so the measured window cannot grow
  // a vector no matter how the live bursts skew across rings.
  {
    std::vector<wire::PacketView> synth(max_burst);
    for (const wire::PacketView& v : flows.views) {
      synth.assign(max_burst, v);
      pool.process_outgoing(synth, s.now);
    }
  }
  // This thread's BufferPool must hold a burst's worth of RX-sized buffers
  // plus one for the action phase's handoff copy before anything is
  // measured; otherwise the first burst larger than any before it misses.
  // parse_burst keeps that count within BufferPool::kMaxRetained.
  {
    std::vector<Bytes> bufs;
    for (std::size_t i = 0; i <= max_burst; ++i)
      bufs.push_back(wire::BufferPool::local().acquire(rx_buf_bytes));
    for (Bytes& b : bufs) wire::BufferPool::local().release(std::move(b));
  }

  using Clock = std::chrono::steady_clock;
  std::size_t packets = 0;
  std::size_t largest = 0;
  const auto spin = [&](double seconds) {
    const auto t0 = Clock::now();
    double elapsed = 0;
    packets = 0;
    do {
      (void)rx.poll(1);
      // Poll again only while a whole rx_batch still fits in the burst.
      while (owned.size() + rx_batch <= burst_size && rx.poll(0) > 0) {
      }
      if (!owned.empty()) {
        pool.process_outgoing(views, s.now);
        packets += owned.size();
        largest = std::max(largest, owned.size());
        views.clear();
        owned.clear();  // PacketBuf dtors recycle into this thread's pool
      }
      elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
    } while (elapsed < seconds);
    return elapsed;
  };

  spin(warm_s);  // warm pools, peer table, RX buffers
  const std::uint64_t allocs0 = util::heap_alloc_count();
  const double elapsed = spin(measure_s);

  LoopbackPoint pt;
  pt.workers = workers;
  pt.max_burst = largest;
  pt.pps = static_cast<double>(packets) / elapsed;
  pt.allocs = util::heap_alloc_count() - allocs0;
  pt.packets = packets;
  rx.set_rx({});
  return pt;
}

/// Runs the loopback sweep: TX thread blasting over 127.0.0.1, RX thread
/// forwarding through the steered pool at each worker count. Empty result
/// means the environment forbids UDP sockets.
std::vector<LoopbackPoint> loopback_sweep(
    Setup& s, std::size_t burst_size, const std::vector<std::size_t>& workers,
    double warm_s, double measure_s) {
  const net::UdpTransport::Config rx_cfg;
  auto rx = net::UdpTransport::open(rx_cfg);
  auto tx = net::UdpTransport::open({});
  if (!rx.ok() || !tx.ok()) return {};
  const auto to_rx = (*tx)->add_peer("127.0.0.1", (*rx)->local_port());
  if (!to_rx.ok()) return {};

  // The live flow set: enough flows to exercise steering across workers,
  // few enough that the verified-flow caches stay hot.
  constexpr std::size_t kLoopbackFlows = 64;
  SealedBurst flows;
  for (std::size_t i = 0; i < kLoopbackFlows; ++i)
    flows.push(s.make_packet(512, static_cast<core::Hid>(1 + (i % 1024))));

  // TX side: send_raw straight from the sealed images — no per-send
  // buffer traffic, so the blast thread is pure sendto().
  std::atomic<bool> run{true};
  net::UdpTransport& txr = **tx;
  const net::PeerId peer = *to_rx;
  std::thread blaster([&] {
    std::size_t i = 0;
    while (run.load(std::memory_order_relaxed)) {
      (void)txr.send_raw(peer, flows.views[i % kLoopbackFlows].bytes());
      ++i;
    }
  });

  std::vector<LoopbackPoint> sweep;
  for (const std::size_t w : workers)
    sweep.push_back(
        loopback_point(s, **rx, flows, burst_size, rx_cfg.rx_batch,
                       rx_cfg.rx_buf_bytes, w, warm_s, measure_s));
  run.store(false);
  blaster.join();
  return sweep;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(
      "E2/E3 — border-router forwarding (Fig 8a Mpps, Fig 8b Gbps) + E11 "
      "baseline",
      "Fig 8: throughput matches the 120 Gbps testbed's theoretical max at "
      "all packet sizes");

  const bool smoke = bench::smoke_mode(argc, argv);
  const std::size_t burst_size = parse_burst(argc, argv);
  const std::size_t kIters = smoke ? 400 : 20'000;
  if (smoke) g_measure_s = 0.02;

  Setup s;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  std::printf("AES backend: %s | modelling %u cores against a 120 Gbps "
              "(12x10GbE) port model%s\n\n",
              s.as.codec.backend(), cores, smoke ? " [SMOKE]" : "");

  std::printf("%-8s %14s %14s %14s %14s %12s %12s\n", "size(B)",
              "line-rate Mpps", "APNA Mpps", "APNA Gbps", "baseline Mpps",
              "ns/pkt APNA", "ns/pkt base");

  // Machine-readable Fig 8 series for plotting.
  FILE* csv = std::fopen("fig8_data.csv", "w");
  if (csv)
    std::fprintf(csv,
                 "size_bytes,line_rate_mpps,apna_mpps,apna_gbps,"
                 "baseline_mpps,apna_ns_per_pkt,baseline_ns_per_pkt\n");

  bool all_line_rate = true;
  double apna_ns_total = 0, base_ns_total = 0;
  for (std::size_t frame : kSizes) {
    // A working set of packets from distinct hosts/EphIDs, sealed once —
    // the checks below run in place over the bound views.
    constexpr std::size_t kSet = 512;
    SealedBurst packets;
    for (std::size_t i = 0; i < kSet; ++i)
      packets.push(s.make_packet(frame, static_cast<core::Hid>(1 + (i % 1024))));

    const double apna_ns = bench::time_per_op_ns(
        kIters, [&](std::size_t i) {
          if (!s.br->check_outgoing(packets.views[i % kSet], s.now).ok())
            std::abort();
        });
    const double base_ns = bench::time_per_op_ns(
        kIters, [&](std::size_t i) {
          if (!s.baseline->check_baseline(packets.views[i % kSet]).ok())
            std::abort();
        });
    apna_ns_total += apna_ns;
    base_ns_total += base_ns;

    const double wire_pps = line_rate_pps(frame);
    const double cpu_pps = cores * 1e9 / apna_ns;
    const double achieved_pps = std::min(wire_pps, cpu_pps);
    const double base_pps = std::min(wire_pps, cores * 1e9 / base_ns);
    const double achieved_gbps = achieved_pps * frame * 8 / 1e9;
    if (achieved_pps < wire_pps * 0.999) all_line_rate = false;

    std::printf("%-8zu %14.1f %14.1f %14.1f %14.1f %12.0f %12.0f\n", frame,
                wire_pps / 1e6, achieved_pps / 1e6, achieved_gbps,
                base_pps / 1e6, apna_ns, base_ns);
    if (csv)
      std::fprintf(csv, "%zu,%.3f,%.3f,%.3f,%.3f,%.1f,%.1f\n", frame,
                   wire_pps / 1e6, achieved_pps / 1e6, achieved_gbps,
                   base_pps / 1e6, apna_ns, base_ns);
  }
  if (csv) {
    std::fclose(csv);
    std::printf("(series written to fig8_data.csv)\n");
  }

  std::printf("\nE11 — per-packet pipeline cost: APNA %.0f ns vs baseline "
              "%.0f ns (overhead factor %.1fx on pure CPU cost; invisible "
              "at line rate when CPU capacity exceeds the wire budget)\n",
              apna_ns_total / 5, base_ns_total / 5,
              apna_ns_total / std::max(1.0, base_ns_total));

  // ---- §VIII extension ablation at 512 B ------------------------------------
  {
    constexpr std::size_t kFrame = 512;
    constexpr std::size_t kSet = 512;
    SealedBurst packets;
    for (std::size_t i = 0; i < kSet; ++i) {
      auto pkt = s.make_packet(kFrame, static_cast<core::Hid>(1 + (i % 1024)));
      pkt.set_nonce(i + 1);
      core::stamp_packet_mac(
          crypto::AesCmac(ByteSpan(s.host_keys[i % 1024].mac.data(), 16)),
          pkt);
      packets.push(pkt);
    }

    const double plain_ns = bench::time_per_op_ns(kIters, [&](std::size_t i) {
      if (!s.br->check_outgoing(packets.views[i % kSet], s.now).ok())
        std::abort();
    });
    // Path stamping (§VIII-C): check + pooled splice of the AID.
    const double stamp_ns = bench::time_per_op_ns(kIters, [&](std::size_t i) {
      if (!s.br->check_outgoing(packets.views[i % kSet], s.now).ok())
        std::abort();
      wire::PacketBuf stamped =
          wire::append_path_stamp(packets.views[i % kSet], s.as.aid);
      volatile auto sink = stamped.view().path_stamp_count();
      (void)sink;
    });
    // In-network replay filter (§VIII-D): check + sharded window update.
    // Each source's nonce increments by one, like live per-host traffic.
    core::ShardedReplayFilter wins;
    std::vector<core::EphId> srcs(kSet);
    for (std::size_t i = 0; i < kSet; ++i)
      srcs[i].bytes = packets.views[i].src_ephid();
    std::vector<std::uint64_t> per_src_nonce(kSet, 0);
    const double replay_ns = bench::time_per_op_ns(kIters, [&](std::size_t i) {
      if (!s.br->check_outgoing(packets.views[i % kSet], s.now).ok())
        std::abort();
      (void)wins.accept(srcs[i % kSet], ++per_src_nonce[i % kSet]);
    });

    std::printf("\n§VIII extension ablation (512 B packets):\n");
    std::printf("  %-44s %8.0f ns/pkt\n", "Fig 4 pipeline", plain_ns);
    std::printf("  %-44s %8.0f ns/pkt (+%.0f%%)\n",
                "+ path stamping (§VIII-C)", stamp_ns,
                100.0 * (stamp_ns - plain_ns) / plain_ns);
    std::printf("  %-44s %8.0f ns/pkt (+%.0f%%)\n",
                "+ in-network replay filter (§VIII-D)", replay_ns,
                100.0 * (replay_ns - plain_ns) / plain_ns);
  }
  std::printf("Paper Fig 8 shape: Mpps decreases with packet size; Gbps "
              "saturates 120 Gbps at large sizes; measured matches "
              "theoretical max: %s\n",
              all_line_rate ? "YES (all sizes)" : "only at larger sizes on "
              "this host (fewer/slower cores than the paper's 16-core "
              "server)");

  // ---- Concurrent data plane: kernel, flow cache, Zipf + threads sweeps -----
  {
    const auto thread_list = smoke ? std::vector<std::size_t>{1, 2}
                                   : parse_thread_list(argc, argv, cores);
    constexpr std::size_t kFrame = 512;
    std::vector<std::vector<wire::PacketView>> uniform(1);
    SealedBurst burst;
    for (std::size_t i = 0; i < burst_size; ++i)
      burst.push(s.make_packet(kFrame, static_cast<core::Hid>(1 + (i % 1024))));
    uniform[0] = burst.views;

    // Verdict equivalence over a mixed burst: the classify kernel, uncached
    // and CACHED (cold and warm), must drop exactly the packets the
    // per-packet check_outgoing drops.
    SealedBurst mixed;
    for (std::size_t i = 0; i < burst_size; ++i) {
      auto pkt = s.make_packet(kFrame, static_cast<core::Hid>(1 + (i % 1024)));
      if (i == 1) pkt.mac[0] ^= 1;                              // bad MAC
      if (i == 2) s.rng.fill(MutByteSpan(pkt.src_ephid.data(), 16));  // forged
      if (i == 3)
        pkt.src_ephid = s.as.codec.issue(5, s.now - 10, s.rng).bytes;  // expired
      mixed.push(pkt);
    }
    std::vector<router::BorderRouter::Verdict> v(mixed.views.size());
    router::BorderRouter::Stats sv;
    core::FlowCache cache(4096);
    bool verdicts_equal = true;
    for (core::FlowCache* c : {static_cast<core::FlowCache*>(nullptr), &cache,
                               &cache}) {  // uncached, cold, warm
      s.br->classify_outgoing_burst(mixed.views, s.now, v, sv, c);
      for (std::size_t i = 0; i < mixed.views.size(); ++i)
        if (v[i].err != s.br->check_outgoing(mixed.views[i], s.now).code())
          verdicts_equal = false;
    }
    std::printf("\nConcurrent data plane (burst %zu x %zu B, %u hw cores):\n",
                burst_size, kFrame, cores);
    std::printf("  kernel (uncached/cached) verdicts identical to "
                "check_outgoing: %s\n",
                verdicts_equal ? "YES" : "NO (BUG)");
    if (!verdicts_equal) return 1;

    // Single-context comparison on the uniform (cache-hostile up to 1024
    // flows) burst, with the zero-copy accounting: the per-packet
    // reference vs the uncached fused kernel.
    const PoolRun scalar = reference_run(*s.br, uniform, s.now);
    const PoolRun batched = pool_run(*s.br, uniform, s.now, 1, 0);
    std::printf("  1-thread per-packet checks: %10.0f pkts/s (%.0f ns/pkt)\n",
                scalar.pps, 1e9 / scalar.pps);
    std::printf("  1-thread fused kernel     : %10.0f pkts/s (%.0f ns/pkt, "
                "%.2fx)\n",
                batched.pps, 1e9 / batched.pps, batched.pps / scalar.pps);
    std::printf("  steady-state heap allocations per forwarded packet: "
                "%.4f (must be 0)\n",
                batched.allocs_per_pkt);
    std::printf("  copied bytes per forwarded packet: %.1f (handoff copy at "
                "the send edge; pre-PacketBuf transport copied >= %zu B/hop "
                "— full deep copy + re-serialize)\n",
                batched.copy_bytes_per_pkt, 2 * kFrame);
    // The zero-copy contract is an assertion, not a report: a regression
    // that reintroduces per-packet allocation must fail the bench.
    if (batched.allocs_per_pkt != 0.0 || scalar.allocs_per_pkt != 0.0) {
      std::fprintf(stderr,
                   "FATAL: forwarding fast path allocated on the heap "
                   "(%.4f allocs/pkt fused kernel, %.4f per-packet)\n",
                   batched.allocs_per_pkt, scalar.allocs_per_pkt);
      return 1;
    }

    // ---- Flow-locality (Zipf) workload: the verified-flow cache ------------
    // kFlows live EphIDs across the 1024 hosts; bursts sample flows from a
    // Zipf(s) popularity law. The sampled schedule is IDENTICAL for every
    // configuration (same seed), so pps differences are pipeline, not
    // workload.
    const std::size_t kFlows = smoke ? 512 : 4096;
    const std::size_t kScheduleBursts = smoke ? 4 : 16;
    SealedBurst flow_pkts;
    for (std::size_t fidx = 0; fidx < kFlows; ++fidx)
      flow_pkts.push(
          s.make_packet(kFrame, static_cast<core::Hid>(1 + (fidx % 1024))));

    struct ZipfPoint {
      double s = 0;
      PoolRun cached;
      PoolRun uncached;
    };
    const double zipf_list[] = {0.0, 0.8, 1.1, 1.4};
    std::vector<ZipfPoint> zipf_sweep;
    std::vector<std::vector<wire::PacketView>> schedule_s11;
    for (const double zs : zipf_list) {
      bench::ZipfSampler zipf(kFlows, zs, 0xe2f705eedULL);
      std::vector<std::vector<wire::PacketView>> schedule(kScheduleBursts);
      for (auto& b : schedule) {
        b.reserve(burst_size);
        for (std::size_t i = 0; i < burst_size; ++i)
          b.push_back(flow_pkts.views[zipf.next()]);
      }
      ZipfPoint pt;
      pt.s = zs;
      pt.cached = pool_run(*s.br, schedule, s.now, 1, 4096);
      pt.uncached = pool_run(*s.br, schedule, s.now, 1, 0);
      zipf_sweep.push_back(pt);
      if (zs == 1.1) schedule_s11 = std::move(schedule);
    }

    // The per-packet single-core reference on the SAME flow-local workload
    // (check_outgoing per packet, no cache) — the acceptance baseline for
    // the cached fused pipeline.
    const PoolRun scalar_s11 = reference_run(*s.br, schedule_s11, s.now);
    const ZipfPoint* s11 = nullptr;
    for (const auto& pt : zipf_sweep)
      if (pt.s == 1.1) s11 = &pt;
    const double cached_speedup =
        s11 ? s11->cached.pps / scalar_s11.pps : 0.0;

    std::printf("\nVerified-flow cache, Zipf flow-locality sweep "
                "(%zu flows, 1 thread, burst %zu):\n",
                kFlows, burst_size);
    std::printf("  %6s %10s %14s %14s %10s\n", "zipf s", "hit rate",
                "cached pkts/s", "uncached", "gain");
    for (const auto& pt : zipf_sweep)
      std::printf("  %6.1f %9.1f%% %14.0f %14.0f %9.2fx\n", pt.s,
                  100 * pt.cached.hit_rate, pt.cached.pps, pt.uncached.pps,
                  pt.cached.pps / pt.uncached.pps);
    std::printf("  cached fused vs per-packet single-core at s=1.1: %.0f vs "
                "%.0f pkts/s = %.2fx (target >= 1.5x)\n",
                s11 ? s11->cached.pps : 0.0, scalar_s11.pps, cached_speedup);
    if (s11 && s11->cached.allocs_per_pkt != 0.0) {
      std::fprintf(stderr, "FATAL: cached pipeline allocated on the heap "
                           "(%.4f allocs/pkt)\n",
                   s11->cached.allocs_per_pkt);
      return 1;
    }
    // The 1.5x floor is ENFORCED, not just printed — on every hardware
    // AES tier in full runs. The soft backend is exempt (its MAC dominates
    // both paths, so the ratio sits near 1x by construction), as are
    // --smoke windows (too short to be stable).
    if (!smoke && std::strcmp(s.as.codec.backend(), "soft") != 0 &&
        cached_speedup < 1.5) {
      std::fprintf(stderr,
                   "FATAL: cached fused pipeline is only %.2fx the "
                   "per-packet single-core pps at Zipf s=1.1 (floor 1.5x)\n",
                   cached_speedup);
      return 1;
    }

    // ---- Thread sweeps: uncached + cached (s=1.1) --------------------------
    struct ThreadPoint {
      std::size_t threads = 0;
      PoolRun uncached;
      PoolRun cached;
    };
    std::vector<ThreadPoint> sweep;
    std::printf("\nThreads sweep (fused kernel; cached column runs the "
                "Zipf s=1.1 schedule):\n");
    std::printf("  %7s %14s %9s %14s %9s %9s\n", "threads", "uncached pps",
                "speedup", "cached pps", "speedup", "hit rate");
    for (const std::size_t t : thread_list) {
      ThreadPoint pt;
      pt.threads = t;
      pt.uncached = pool_run(*s.br, uniform, s.now, t, 0);
      pt.cached = pool_run(*s.br, schedule_s11, s.now, t, 4096);
      sweep.push_back(pt);
      std::printf("  %7zu %14.0f %8.2fx %14.0f %8.2fx %8.1f%%\n", t,
                  pt.uncached.pps, pt.uncached.pps / batched.pps,
                  pt.cached.pps, s11 ? pt.cached.pps / s11->cached.pps : 0.0,
                  100 * pt.cached.hit_rate);
    }

    // ---- Loopback UDP leg: real sockets, real threads ----------------------
    // Worker counts: 1 (the speedup denominator), 2, and 4 when the host
    // has the cores for it. Kept separate from --threads: the loopback RX
    // thread itself burns a core, so the in-memory sweep's counts don't
    // transfer.
    std::vector<std::size_t> loopback_workers{1, 2};
    if (cores >= 4) loopback_workers.push_back(4);
    const std::vector<LoopbackPoint> loopback = loopback_sweep(
        s, burst_size, loopback_workers, smoke ? 0.05 : 0.3,
        smoke ? 0.05 : g_measure_s);
    double loopback_speedup = 0;  // best multi-worker pps / 1-worker pps
    if (loopback.empty()) {
      std::printf("\nLoopback UDP leg: SKIPPED (sockets unavailable in this "
                  "environment)\n");
    } else {
      std::printf("\nLoopback UDP leg (TX blast thread -> steered "
                  "ForwardingPool, flow_hash, burst %zu):\n",
                  burst_size);
      // loopback_sweep's RX socket drains rx_batch datagrams per poll.
      const std::size_t burst_bound =
          std::max(burst_size, net::UdpTransport::Config().rx_batch);
      std::printf("  %7s %14s %9s %12s %10s\n", "workers", "forwarded pps",
                  "speedup", "allocs/pkt", "max burst");
      for (const auto& pt : loopback) {
        const double speedup = pt.pps / loopback[0].pps;
        if (pt.workers > 1) loopback_speedup = std::max(loopback_speedup, speedup);
        std::printf("  %7zu %14.0f %8.2fx %12.4f %10zu\n", pt.workers, pt.pps,
                    speedup, pt.allocs_per_pkt(), pt.max_burst);
        // The warm-up sized every buffer for this bound; a larger burst
        // would measure the harness, not the forwarding path.
        if (pt.max_burst > burst_bound) {
          std::fprintf(stderr,
                       "FATAL: loopback drained a %zu-packet burst, above "
                       "the warmed bound of %zu\n",
                       pt.max_burst, burst_bound);
          return 1;
        }
        // The zero-alloc contract crosses the syscall boundary: recvfrom
        // lands in recycled pool storage, so the steady-state UDP
        // forwarding path must not allocate either.
        if (pt.allocs != 0) {
          std::fprintf(stderr,
                       "FATAL: loopback UDP forwarding path allocated on the "
                       "heap (%llu allocations over %zu packets at %zu "
                       "workers)\n",
                       static_cast<unsigned long long>(pt.allocs), pt.packets,
                       pt.workers);
          return 1;
        }
      }
      if (bench::single_core()) {
        std::printf("  WARNING: single hardware thread — the multi-worker "
                    "speedup assertion is SKIPPED (this sweep measures the "
                    "scheduler, not the data plane, on 1 core)\n");
      } else if (!smoke && loopback_speedup <= 1.0) {
        std::fprintf(stderr,
                     "FATAL: loopback pps never exceeded the 1-worker rate "
                     "on a %u-core host (best %.2fx at 2+ workers)\n",
                     cores, loopback_speedup);
        return 1;
      }
    }

    // ---- BENCH_e2.json ------------------------------------------------------
    bench::JsonFile json("BENCH_e2.json");
    if (json.ok()) {
      json.field("experiment", "E2 concurrent forwarding");
      json.field("frame_bytes", kFrame);
      json.field("burst_packets", burst_size);
      json.machine_shape();
      json.provenance(808);  // Setup's ChaChaRng seed
      json.field("aes_backend", s.as.codec.backend());
      // scalar_* keys: the per-packet check_outgoing reference.
      json.field("scalar_1t_pps", scalar.pps, 0);
      json.field("batched_1t_pps", batched.pps, 0);
      json.field("allocs_per_forwarded_packet", batched.allocs_per_pkt, 4);
      json.field("copy_bytes_per_packet", batched.copy_bytes_per_pkt, 1);
      // What the old parsed-struct API copied per forwarded packet at
      // minimum: one deep Packet copy into the scheduled event + one
      // serialize at the next parse boundary.
      json.field("copy_bytes_per_packet_pre_packetbuf", 2.0 * kFrame, 1);
      json.field("zipf_flows", kFlows);
      json.field("flow_cache_entries", std::size_t{4096});
      json.field("scalar_1t_zipf11_pps", scalar_s11.pps, 0);
      json.field("cached_1t_zipf11_speedup_vs_scalar", cached_speedup, 3);
      json.begin_array("zipf_sweep");  // pps-vs-hit-rate axis
      for (const auto& pt : zipf_sweep) {
        json.begin_object();
        json.field("zipf_s", pt.s, 1);
        json.field("hit_rate", pt.cached.hit_rate, 4);
        json.field("cached_pps", pt.cached.pps, 0);
        json.field("uncached_pps", pt.uncached.pps, 0);
        json.end_object();
      }
      json.end_array();
      json.begin_array("sweep");  // threads axis
      for (const auto& pt : sweep) {
        json.begin_object();
        json.field("threads", pt.threads);
        json.field("pkts_per_sec", pt.uncached.pps, 0);
        json.field("speedup", pt.uncached.pps / batched.pps, 3);
        json.field("cached_zipf11_pps", pt.cached.pps, 0);
        json.field("cached_hit_rate", pt.cached.hit_rate, 4);
        json.end_object();
      }
      json.end_array();
      json.field("loopback_udp_available", !loopback.empty());
      if (!loopback.empty()) {
        // The speedup column is real only when single_core is false —
        // that is exactly what the machine-shape fields above record.
        json.begin_array("loopback_sweep");
        for (const auto& pt : loopback) {
          json.begin_object();
          json.field("workers", pt.workers);
          json.field("pkts_per_sec", pt.pps, 0);
          json.field("speedup", pt.pps / loopback[0].pps, 3);
          json.field("allocs_per_pkt", pt.allocs_per_pkt(), 4);
          json.end_object();
        }
        json.end_array();
      }
      if (json.close())
        std::printf("  (baseline written to BENCH_e2.json)\n");
    }
  }

  bench::print_footer(
      "who wins: APNA == theoretical line rate (no throughput penalty); "
      "monotone Mpps-vs-size decay and Gbps saturation reproduced; the "
      "verified-flow cache turns flow locality into >= 1.5x single-core "
      "pps at Zipf s=1.1 with verdicts bit-identical to the uncached path; "
      "0 heap allocations and one bounded handoff copy per forwarded packet");
  return 0;
}
