// Data-plane workloads: fwd_zipf, fwd_churn and fwd_udp.
//
// Two ASes, A (senders) and B (receivers). A packet goes sender host →
// A's egress ForwardingPool → inter-AS hop (net::SimTransport, or a real
// loopback net::UdpTransport pair for fwd_udp) → B's ingress
// ForwardingPool → receiver host.
//
// Saturation phase (closed loop): replays packets pre-sealed during set-up,
// one burst after another, so the rate is the two border routers' and the
// hop's, not host crypto's. Paced phase (open loop): the sender seals fresh
// packets (Session::seal + stamp_packet_mac) at a fixed offered rate and the
// receiver opens them (Session::open); latency runs from each packet's due
// time to its open.
//
// fwd_churn adds 10% attack packets (forged EphID, bad MAC, expired EphID,
// revoked EphID) and Fig 5 shutoffs at a fixed rate through the
// AccountabilityAgent; each shutoff revokes a live flow, which is replaced
// from a pool minted during set-up.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <unordered_map>

#include "core/as_directory.h"
#include "core/as_state.h"
#include "core/cert.h"
#include "core/packet_auth.h"
#include "core/session.h"
#include "crypto/aes.h"
#include "crypto/rng.h"
#include "net/sim.h"
#include "net/transport.h"
#include "router/border_router.h"
#include "router/forwarding_pool.h"
#include "services/accountability_agent.h"
#include "services/service_identity.h"
#include "wire/packet_buf.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace apna;

constexpr core::Aid kAidA = 64512;
constexpr core::Aid kAidB = 64513;
constexpr core::ExpTime kNow = net::kEpochSeconds;
constexpr core::ExpTime kLifetime = 86400;
constexpr core::Hid kAaHid = 0x00f00000;  // above every host HID
constexpr std::size_t kBurst = 256;       // saturation burst (sim hop), packets
constexpr std::size_t kPacedMax = 256;    // largest paced round, packets
constexpr std::size_t kOverhead = wire::kApnaHeaderSize + 4;  // header + ext
constexpr std::size_t kSessionOverhead = 8 + 16;  // counter + AEAD tag
/// §VIII-G2 escalates a host at 16 revocations; shutoff targets stay below.
constexpr std::uint32_t kMaxRevocationsPerHost = 15;
constexpr std::size_t kSpanCapacity = 1u << 22;
/// Threads per ForwardingPool. At bursts of 256 a two-thread pool forwarded
/// fewer packets than one, and small paced rounds paid a hand-off each.
constexpr std::size_t kPoolThreads = 1;

enum Kind : std::uint32_t { kLegit, kForged, kBadMac, kExpired, kRevoked, kKinds };
constexpr std::uint32_t kKindShift = 28;
constexpr std::uint32_t kIndexMask = (1u << kKindShift) - 1;

struct Params {
  std::size_t hosts = 1024;
  std::size_t flows = 4096;
  double zipf_s = 1.1;         // flow popularity; 0 = uniform
  double attack_share = 0;     // of all packets
  double shutoff_per_s = 0;    // Fig 5 shutoffs
  bool udp = false;
  double paced_pps = 0;        // offered rate of the paced phase
  std::size_t window = 0;      // fwd_udp: packets in flight
  std::size_t udp_burst = 0;   // fwd_udp: saturation burst, below the window
  std::size_t ring = 1u << 20; // schedule length
  std::size_t attack_pool = 1024;
};

Params params_for(const std::string& name) {
  Params p;
  if (name == "fwd_zipf") {
    p.paced_pps = kFwdZipfPacedPps;
  } else if (name == "fwd_churn") {
    p.flows = 65536;
    p.zipf_s = 0;
    p.attack_share = 0.10;
    p.shutoff_per_s = kFwdChurnShutoffsPerS;
    p.paced_pps = kFwdChurnPacedPps;
  } else {  // fwd_udp
    p.udp = true;
    p.paced_pps = kFwdUdpPacedPps;
    p.window = kFwdUdpWindow;
    p.udp_burst = kFwdUdpBurst;
  }
  return p;
}

/// IMIX 128:512:1518 B at 7:4:1, assigned by popularity rank so the byte
/// mix the routers see is the same for every seed.
std::uint16_t imix_frame(std::size_t rank) {
  const std::size_t u = rank % 12;
  return u < 7 ? 128 : (u < 11 ? 512 : 1518);
}

struct Flow {
  core::Hid src = 0;  // A host
  core::Hid dst = 0;  // B host
  std::uint16_t frame = 0;
  wire::PacketBuf pkt;  // pre-sealed image; payload starts with the slot tag
};

/// Everything the data-plane workloads run on, built from the seed.
struct World {
  Params p;
  crypto::ChaChaRng rng;
  core::AsState as_a;
  core::AsState as_b;
  core::AsDirectory dir;
  net::EventLoop loop;

  std::vector<std::shared_ptr<const crypto::AesCmac>> cmac_a;  // [hid - 1]
  std::vector<core::EphIdKeyPair> kp_b;  // receiver EphID key pairs
  std::vector<core::EphId> dst_ephid;    // one per B host
  std::vector<core::Session> tx, rx;     // per A host: sender / receiver ends
  std::unordered_map<core::EphId, std::uint32_t, core::EphIdHash> session_of;

  std::vector<Flow> flows;
  std::vector<std::uint32_t> by_rank;         // popularity rank → flow slot
  std::vector<wire::PacketBuf> pool[kKinds];  // attack images by kind
  std::vector<std::uint32_t> ring;            // the packet schedule

  // Shutoff plan: request k revokes flows[shutoff_slot[k]], whose image is
  // then replaced by spares[k].
  std::vector<core::ShutoffRequest> shutoffs;
  std::vector<std::uint32_t> shutoff_slot;
  std::vector<wire::PacketBuf> spares;
  std::unique_ptr<services::AccountabilityAgent> aa;

  // The egress callback queues forwarded packets for the hop; the ingress
  // callback queues deliveries for the receiver.
  std::vector<wire::PacketBuf> outbox;
  std::vector<std::pair<core::Hid, wire::PacketBuf>> inbox;
  std::unique_ptr<router::BorderRouter> br_a, br_b;
  std::unique_ptr<router::ForwardingPool> egress, ingress;

  World(const Params& params, std::uint64_t seed, double seconds)
      : p(params),
        rng(seed),
        as_a(kAidA, core::AsSecrets::generate(rng)),
        as_b(kAidB, core::AsSecrets::generate(rng)) {
    for (core::AsState* s : {&as_a, &as_b}) {
      core::AsPublicInfo info;
      info.aid = s->aid;
      info.sign_pub = s->secrets.sign.pub;
      info.dh_pub = s->secrets.dh.pub;
      dir.register_as(info);
    }
    register_hosts();
    make_flows();
    make_attacks();
    make_ring();
    if (p.shutoff_per_s > 0) plan_shutoffs(seconds);
    start_data_plane();
  }

  void register_hosts() {
    const core::ExpTime exp = kNow + kLifetime;
    for (core::Hid h = 1; h <= p.hosts; ++h) {
      for (core::AsState* as : {&as_a, &as_b}) {
        crypto::SharedSecret seed{};
        rng.fill(MutByteSpan(seed.data(), seed.size()));
        core::HostRecord rec;
        rec.hid = h;
        rec.keys = core::HostAsKeys::derive(seed);
        as->host_db.upsert(rec);
        if (as == &as_a)
          cmac_a.push_back(std::make_shared<const crypto::AesCmac>(
              ByteSpan(rec.keys.mac.data(), rec.keys.mac.size())));
      }
      kp_b.push_back(core::EphIdKeyPair::generate(rng));
      dst_ephid.push_back(as_b.codec.issue(h, exp, rng));
    }
    // One session pair per sender host, bound to the same-numbered
    // receiver: the paced phase seals and opens through these.
    for (core::Hid h = 1; h <= p.hosts; ++h) {
      const core::EphIdKeyPair kp = core::EphIdKeyPair::generate(rng);
      const core::EphId me = as_a.codec.issue(h, exp, rng);
      const core::EphIdKeyPair& peer = kp_b[h - 1];
      tx.push_back(core::Session::derive(kp, me, peer.pub.dh, dst_ephid[h - 1],
                                         crypto::AeadSuite::chacha20_poly1305,
                                         true));
      rx.push_back(core::Session::derive(peer, dst_ephid[h - 1], kp.pub.dh, me,
                                         crypto::AeadSuite::chacha20_poly1305,
                                         false));
    }
  }

  /// A pre-sealed image from `src` (under a fresh EphID) to `dst`, `frame`
  /// bytes on the wire, payload tagged with `slot`.
  wire::PacketBuf seal_image(core::Hid src, core::Hid dst, std::uint16_t frame,
                             std::uint32_t slot, core::ExpTime exp) {
    wire::Packet pkt;
    pkt.src_aid = kAidA;
    pkt.src_ephid = as_a.codec.issue(src, exp, rng).bytes;
    pkt.dst_aid = kAidB;
    pkt.dst_ephid = dst_ephid[dst - 1].bytes;
    pkt.proto = wire::NextProto::data;
    pkt.payload = rng.bytes(frame - kOverhead);
    std::memcpy(pkt.payload.data(), &slot, sizeof slot);
    core::stamp_packet_mac(*cmac_a[src - 1], pkt);
    return pkt.seal();
  }

  void make_flows() {
    // Popularity rank → flow slot through a seeded shuffle, so popular flows
    // are spread over hosts and workers.
    by_rank.resize(p.flows);
    for (std::uint32_t i = 0; i < p.flows; ++i) by_rank[i] = i;
    for (std::size_t i = p.flows; i > 1; --i)
      std::swap(by_rank[i - 1], by_rank[rng.next_u64() % i]);
    flows.resize(p.flows);
    for (std::size_t r = 0; r < p.flows; ++r) flows[by_rank[r]].frame = imix_frame(r);
    for (std::uint32_t f = 0; f < p.flows; ++f) {
      Flow& fl = flows[f];
      fl.src = 1 + static_cast<core::Hid>(rng.next_u32() % p.hosts);
      fl.dst = 1 + static_cast<core::Hid>(rng.next_u32() % p.hosts);
      fl.pkt = seal_image(fl.src, fl.dst, fl.frame, f, kNow + kLifetime);
      session_of[core::EphId{fl.pkt.view().src_ephid()}] = fl.src - 1;
    }
  }

  void make_attacks() {
    if (p.attack_share <= 0) return;
    for (std::size_t i = 0; i < p.attack_pool; ++i) {
      const Flow& fl = flows[rng.next_u32() % flows.size()];
      // Forged: an EphID no AS issued — fails authenticated decryption.
      wire::Packet forged;
      forged.src_aid = kAidA;
      rng.fill(MutByteSpan(forged.src_ephid.data(), forged.src_ephid.size()));
      forged.dst_aid = kAidB;
      forged.dst_ephid = fl.pkt.view().dst_ephid();
      forged.payload = rng.bytes(fl.frame - kOverhead);
      core::stamp_packet_mac(*cmac_a[fl.src - 1], forged);
      pool[kForged].push_back(forged.seal());
      // Bad MAC: a genuine EphID, one flipped MAC bit.
      wire::PacketBuf bad = seal_image(fl.src, fl.dst, fl.frame, 0, kNow + kLifetime);
      std::array<std::uint8_t, wire::kMacSize> mac{};
      std::memcpy(mac.data(), bad.view().mac_span().data(), mac.size());
      mac[0] ^= 1;
      bad.set_mac(ByteSpan(mac.data(), mac.size()));
      pool[kBadMac].push_back(std::move(bad));
      // Expired: a genuine, correctly MACed EphID past its ExpTime.
      pool[kExpired].push_back(seal_image(fl.src, fl.dst, fl.frame, 0, kNow - 10));
    }
  }

  void make_ring() {
    ring.resize(p.ring);
    const ZipfTable zipf(p.flows, p.zipf_s);
    const auto attack_mark = static_cast<std::uint32_t>(p.attack_share * 1e6);
    for (std::uint32_t& code : ring) {
      if (rng.next_u32() % 1'000'000 < attack_mark) {
        const std::uint32_t kind = 1 + rng.next_u32() % (kKinds - 1);
        code = (kind << kKindShift) |
               static_cast<std::uint32_t>(rng.next_u32() % p.attack_pool);
      } else {
        code = by_rank[zipf.pick(rng.uniform_double())];
      }
    }
  }

  /// Mints one shutoff request per planned revocation, targets spread so no
  /// host reaches the §VIII-G2 limit, plus each target's replacement image.
  void plan_shutoffs(double seconds) {
    const auto n = static_cast<std::size_t>(p.shutoff_per_s * seconds) + 16;
    std::vector<std::uint32_t> order(p.flows);
    for (std::uint32_t i = 0; i < p.flows; ++i) order[i] = i;
    for (std::size_t i = p.flows; i > 1; --i)
      std::swap(order[i - 1], order[rng.next_u64() % i]);
    aa = std::make_unique<services::AccountabilityAgent>(
        as_a, dir, loop,
        services::make_service_identity(as_a, kAaHid, kNow + kLifetime, 0,
                                        nullptr, rng));
    std::vector<core::EphIdCertificate> cert(p.hosts);
    for (core::Hid h = 1; h <= p.hosts; ++h) {
      core::EphIdCertificate& c = cert[h - 1];
      c.ephid = dst_ephid[h - 1];
      c.exp_time = kNow + kLifetime;
      c.pub = kp_b[h - 1].pub;
      c.aid = kAidB;
      c.aa_ephid = c.ephid;
      c.sign_with(as_b.secrets.sign);
    }
    std::vector<std::uint32_t> per_host(p.hosts + 1, 0);
    for (const std::uint32_t slot : order) {
      if (shutoffs.size() == n) break;
      const Flow& fl = flows[slot];
      if (per_host[fl.src] == kMaxRevocationsPerHost) continue;
      ++per_host[fl.src];
      core::ShutoffRequest req;
      const ByteSpan img = fl.pkt.view().bytes();
      req.offending_packet.assign(img.begin(), img.end());
      req.sig = kp_b[fl.dst - 1].sign(
          ByteSpan(req.offending_packet.data(), req.offending_packet.size()));
      req.dst_cert = cert[fl.dst - 1];
      shutoffs.push_back(std::move(req));
      shutoff_slot.push_back(slot);
      spares.push_back(seal_image(fl.src, fl.dst, fl.frame, slot, kNow + kLifetime));
    }
  }

  void start_data_plane() {
    outbox.reserve(4 * kBurst);
    inbox.reserve(4 * kBurst);
    router::BorderRouter::Callbacks ca;
    ca.send_external = [this](wire::PacketBuf b) {
      outbox.push_back(std::move(b));
      return Result<void>::success();
    };
    ca.deliver_internal = [](core::Hid, wire::PacketBuf) {
      return Result<void>(Errc::no_route, "egress router delivers nothing");
    };
    ca.now = [] { return kNow; };
    router::BorderRouter::Callbacks cb;
    cb.send_external = [](wire::PacketBuf) {
      return Result<void>(Errc::no_route, "no transit expected");
    };
    cb.deliver_internal = [this](core::Hid h, wire::PacketBuf b) {
      inbox.emplace_back(h, std::move(b));
      return Result<void>::success();
    };
    cb.now = [] { return kNow; };
    br_a = std::make_unique<router::BorderRouter>(as_a, ca);
    br_b = std::make_unique<router::BorderRouter>(as_b, cb);
    router::ForwardingPool::Config ce;
    ce.threads = kPoolThreads;
    router::ForwardingPool::Config ci;
    ci.threads = kPoolThreads;
    egress = std::make_unique<router::ForwardingPool>(*br_a, ce);
    ingress = std::make_unique<router::ForwardingPool>(*br_b, ci);
  }
};

/// Fills this thread's wire::BufferPool with full-size buffers. The pool
/// reuses buffers LIFO and grows a reused one that is too small, so without
/// this the small buffers a paced segment releases make the next saturation
/// segment allocate until every pooled buffer has held a 1518 B frame.
void warm_buffer_pool() {
  std::vector<Bytes> bufs;
  for (int i = 0; i < 1024; ++i) bufs.push_back(wire::BufferPool::local().acquire(2048));
  for (Bytes& b : bufs) wire::BufferPool::local().release(std::move(b));
}

router::BorderRouter::Stats minus(router::BorderRouter::Stats a,
                                  const router::BorderRouter::Stats& b) {
  a -= b;
  return a;
}

core::FlowCache::Stats minus(core::FlowCache::Stats a, const core::FlowCache::Stats& b) {
  a -= b;
  return a;
}

/// One round's inputs and the verdicts the oracle expects for them.
struct Round {
  std::vector<wire::PacketView> views;
  std::vector<wire::PacketBuf> fresh;  // paced: freshly sealed packets
  std::uint64_t expect[kKinds] = {};
  std::uint64_t mac_bytes = 0;   // bytes the packet CMAC covers
  std::uint64_t aead_bytes = 0;  // plaintext bytes sealed

  void clear() {
    views.clear();
    fresh.clear();
    for (auto& e : expect) e = 0;
    mac_bytes = aead_bytes = 0;
  }
};

/// Receiver-side checks shared by both hops: every delivery reaches its
/// flow's destination HID, and in the paced phase the receiver's session
/// opens it; latency runs from the packet's due time to its open.
class Receiver {
 public:
  Receiver(World& w, Report& rep) : w_(w), rep_(rep) {}

  /// `pacer_start`/`period_ns` give paced due times (period 0 = saturated).
  std::size_t take(std::uint64_t pacer_start, double period_ns,
                   std::vector<double>& lat_us) {
    std::size_t ok = 0;
    for (auto& [hid, buf] : w_.inbox) {
      const ByteSpan payload = buf.view().payload();
      std::uint32_t slot = 0;
      if (period_ns == 0) {
        std::memcpy(&slot, payload.data(), sizeof slot);
      } else {
        const auto it = w_.session_of.find(core::EphId{buf.view().src_ephid()});
        if (it == w_.session_of.end()) {
          rep_.fail("delivery from an unknown flow");
          continue;
        }
        auto pt = w_.rx[it->second].open(payload);
        if (!pt || pt->size() < 12) {
          rep_.fail("receiver session could not open a packet");
          continue;
        }
        std::uint64_t seq = 0;
        std::memcpy(&seq, pt->data(), sizeof seq);
        std::memcpy(&slot, pt->data() + 8, sizeof slot);
        const auto due = pacer_start + static_cast<std::uint64_t>(
                                           static_cast<double>(seq) * period_ns);
        lat_us.push_back(static_cast<double>(now_ns() - due) / 1e3);
      }
      if (slot >= w_.flows.size() || w_.flows[slot].dst != hid) {
        rep_.fail("packet delivered to the wrong HID");
        continue;
      }
      ++ok;
    }
    w_.inbox.clear();
    return ok;
  }

 private:
  World& w_;
  Report& rep_;
};

/// Totals the per-layer metrics are computed from (saturation phase unless
/// noted).
struct Counts {
  std::uint64_t packets = 0;  // offered to egress
  std::uint64_t router_allocs = 0;
  std::uint64_t copy_bytes = 0;
  std::uint64_t mac_bytes = 0;
  std::uint64_t polls = 0;
  std::uint64_t empty_polls = 0;
  std::uint64_t polled = 0;
  std::uint64_t window_wait_ns = 0;
  std::uint64_t paced_pkts = 0;  // paced phase: legit packets sealed
  std::uint64_t aead_bytes = 0;  // paced phase: sealed + opened
  std::uint64_t host_allocs = 0; // paced phase: during sealing
};

class Driver {
 public:
  Driver(World& w, const Options& o, Report& rep)
      : w_(w), o_(o), rep_(rep), tr_(o.trace, kSpanCapacity), recv_(w, rep) {
    round_.views.reserve(kBurst + kPacedMax + 64);
    round_.fresh.reserve(kPacedMax);
    staging_.reserve(4 * kBurst);
    staged_.reserve(4 * kBurst);
    lat_us_.reserve(1u << 21);
    gen_lag_us_.reserve(1u << 21);
  }

  void run() {
    const double warm_s = std::max(0.2, 0.1 * o_.seconds);
    sat_ns_ = static_cast<std::uint64_t>(0.45 * o_.seconds / kCycles * 1e9);
    paced_ns_ = static_cast<std::uint64_t>((0.55 * o_.seconds - warm_s) / kCycles * 1e9);
    warm_buffer_pool();
    prime_pools();
    warm_end_ = now_ns() + static_cast<std::uint64_t>(warm_s * 1e9);
    if (w_.p.udp)
      run_udp();
    else
      run_sim();
  }

 private:
  /// Sends every flow once through both pools, in bursts larger than any
  /// the run makes. A pool sizes its per-burst buffers to the largest burst
  /// it has seen, and a host's first packet builds its MAC key schedule, so
  /// without this a rare flow's first packet allocates in a measured cycle.
  void prime_pools() {
    std::vector<wire::PacketView> views;
    for (std::size_t at = 0; at < w_.flows.size(); at += 2 * kBurst) {
      views.clear();
      for (std::size_t i = at; i < at + 2 * kBurst; ++i)
        views.push_back(w_.flows[i % w_.flows.size()].pkt.view());
      w_.egress->process_outgoing(views, kNow);
      views.clear();
      for (const wire::PacketBuf& b : w_.outbox) views.push_back(b.view());
      w_.ingress->process_ingress(views, kNow);
      if (w_.inbox.size() != 2 * kBurst) rep_.fail("priming burst not delivered");
      primed_ += w_.inbox.size();
      w_.outbox.clear();
      w_.inbox.clear();
    }
    egress_seen_ = w_.egress->stats();
  }

  // ---- schedule ----
  void gen_saturated(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) add(w_.ring[pos_++ % w_.ring.size()], false, 0);
  }
  void gen_paced(std::uint64_t first, std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i)
      add(w_.ring[(paced_ring_at_ + first + i) % w_.ring.size()], true, first + i);
  }
  /// Adds one packet of the schedule. Paced legit packets are sealed fresh
  /// (`seq` is their schedule index); everything else replays an image.
  void add(std::uint32_t code, bool paced, std::uint64_t seq) {
    std::uint32_t kind = code >> kKindShift;
    const std::uint32_t idx = code & kIndexMask;
    if (kind == kLegit) {
      const Flow& fl = w_.flows[idx];
      round_.mac_bytes += fl.frame - wire::kMacSize;
      if (paced)
        seal_fresh(fl, idx, seq);
      else
        round_.views.push_back(fl.pkt.view());
      ++round_.expect[kLegit];
      return;
    }
    if (kind == kRevoked && w_.pool[kRevoked].empty()) kind = kForged;
    const auto& pool = w_.pool[kind];
    const wire::PacketView v = pool[idx % pool.size()].view();
    if (kind == kBadMac) round_.mac_bytes += v.wire_size() - wire::kMacSize;
    round_.views.push_back(v);
    ++round_.expect[kind];
  }
  void seal_fresh(const Flow& fl, std::uint32_t slot, std::uint64_t seq) {
    const std::size_t pt_len = fl.frame - kOverhead - kSessionOverhead;
    std::uint8_t pt[1518] = {};
    std::memcpy(pt, &seq, sizeof seq);
    std::memcpy(pt + 8, &slot, sizeof slot);
    const wire::PacketView img = fl.pkt.view();
    wire::Packet pkt;
    pkt.src_aid = kAidA;
    pkt.src_ephid = img.src_ephid();
    pkt.dst_aid = kAidB;
    pkt.dst_ephid = img.dst_ephid();
    pkt.proto = wire::NextProto::data;
    pkt.payload = w_.tx[fl.src - 1].seal(ByteSpan(pt, pt_len));
    wire::PacketBuf buf = pkt.seal();
    core::stamp_packet_mac(*w_.cmac_a[fl.src - 1], buf);
    round_.fresh.push_back(std::move(buf));
    round_.views.push_back(round_.fresh.back().view());
    round_.aead_bytes += pt_len;
  }

  // ---- the path ----
  void egress(std::uint32_t id) {
    const std::uint64_t a0 = heap_allocs();
    const std::uint64_t c0 = wire::copy_audit().copy_bytes;
    {
      Tracer::Scope s(tr_, kEgress, id, static_cast<std::uint32_t>(round_.views.size()));
      w_.egress->process_outgoing(round_.views, kNow);
    }
    router_allocs_ += heap_allocs() - a0;
    copy_bytes_ += wire::copy_audit().copy_bytes - c0;
  }
  /// Checks the round's egress verdicts against the oracle: every attack
  /// packet dropped with its expected Errc, every legitimate one forwarded.
  void check_egress() {
    const router::BorderRouter::Stats now = w_.egress->stats();
    const router::BorderRouter::Stats d = minus(now, egress_seen_);
    egress_seen_ = now;
    if (d.forwarded_out != round_.expect[kLegit]) rep_.fail("legitimate packet not forwarded");
    if (d.drop_bad_ephid != round_.expect[kForged]) rep_.fail("forged-EphID verdict");
    if (d.drop_bad_mac != round_.expect[kBadMac]) rep_.fail("bad-MAC verdict");
    if (d.drop_expired != round_.expect[kExpired]) rep_.fail("expired-EphID verdict");
    if (d.drop_revoked != round_.expect[kRevoked]) rep_.fail("revoked-EphID verdict");
    if (d.drop_unknown_host + d.drop_no_route + d.drop_too_big + d.drop_replayed != 0)
      rep_.fail("unexpected egress drop");
  }

  // ---- shutoffs (fwd_churn) ----
  /// Processes every shutoff due by `t`; the revoked flow's image becomes a
  /// probe at the head of the next round and the flow is replaced.
  void shutoffs_due(std::uint64_t t) {
    while (shutoff_start_ != 0 && next_shutoff_ < w_.shutoffs.size()) {
      const std::uint64_t due =
          shutoff_start_ + static_cast<std::uint64_t>(
                               static_cast<double>(next_shutoff_) * 1e9 /
                               w_.p.shutoff_per_s);
      if (due > t) return;
      const std::size_t k = next_shutoff_++;
      Result<void> r = Result<void>::success();
      {
        Tracer::Scope s(tr_, kShutoff, round_id_, 1);
        r = w_.aa->process(w_.shutoffs[k], kNow);
      }
      ++rep_.attempted;
      if (!r.ok()) {
        rep_.fail("shutoff request rejected");
        continue;
      }
      Flow& fl = w_.flows[w_.shutoff_slot[k]];
      w_.pool[kRevoked].push_back(std::move(fl.pkt));
      fl.pkt = std::move(w_.spares[k]);
      w_.session_of[core::EphId{fl.pkt.view().src_ephid()}] = fl.src - 1;
      probes_.push_back({w_.pool[kRevoked].size() - 1, due});
    }
  }
  void add_probes() {
    for (const Probe& pr : probes_) {
      round_.views.push_back(w_.pool[kRevoked][pr.revoked_idx].view());
      ++round_.expect[kRevoked];
    }
  }
  /// Shutoff latency: due time → end of the egress call that dropped the
  /// probe as revoked (check_egress verifies the drop reason).
  void probes_done(std::uint64_t egress_end, bool paced) {
    for (const Probe& pr : probes_)
      if (paced) shutoff_us_.push_back(static_cast<double>(egress_end - pr.due) / 1e3);
    probes_.clear();
  }

  // ---- SimTransport hop (fwd_zipf, fwd_churn) ----
  std::size_t sim_round(bool paced, double period_ns, std::uint64_t pacer_start);
  void sim_saturated(std::uint64_t end, bool count);
  void sim_paced(std::uint64_t end);
  void run_sim();
  // ---- UdpTransport hop (fwd_udp) ----
  void run_udp();

  /// Counter baselines at the start and end of the measured cycles.
  void begin_measured() {
    eg0_ = w_.egress->stats();
    eg_cache0_ = w_.egress->flow_cache_stats();
    in_cache0_ = w_.ingress->flow_cache_stats();
    epoch0_ = w_.as_a.epoch.current();
    if (w_.aa) aa0_ = w_.aa->stats();
  }
  void end_measured() {
    eg_cache1_ = w_.egress->flow_cache_stats();
    in_cache1_ = w_.ingress->flow_cache_stats();
  }
  void sat_segment_done(std::uint64_t t0, std::uint64_t t1, std::uint64_t d0,
                        std::uint64_t d1, bool traced) {
    rates_.add(t0, t1, d0, d1);
    (traced ? traced_ : untraced_).add(t0, t1, d0, d1);
  }
  /// Closes a paced segment: generator lag and backlog; packets still
  /// waiting missed any latency limit and count at the age they reached.
  void paced_segment_done(Pacer& pacer, std::uint64_t end, std::vector<double>& lat) {
    const std::uint64_t left = pacer.backlog(end);
    if (left > std::max<std::uint64_t>(kSaturatedBacklog, (pacer.taken() + left) / 100))
      paced_saturated_ = true;
    backlog_max_ = std::max(backlog_max_, pacer.backlog_max());
    gen_lag_us_.insert(gen_lag_us_.end(), pacer.lag_us().begin(), pacer.lag_us().end());
    for (std::uint64_t i = 0; i < left; ++i)
      lat.push_back(static_cast<double>(end - pacer.due_ns(pacer.taken() + i)) / 1e3);
  }
  void finish(const std::vector<const Tracer*>& tracers);

  struct Probe {
    std::size_t revoked_idx;
    std::uint64_t due;
  };

  World& w_;
  const Options& o_;
  Report& rep_;
  Tracer tr_;
  Receiver recv_;
  Round round_;
  std::uint64_t sat_ns_ = 0, paced_ns_ = 0;  // per cycle
  std::uint64_t warm_end_ = 0;
  CpuRotation cpus_;                      // driver thread(s)
  std::vector<wire::PacketBuf> staging_;  // hop RX buffers
  std::vector<wire::PacketView> staged_;
  std::size_t pos_ = 0;            // saturation schedule cursor
  std::size_t paced_ring_at_ = 0;  // paced schedule origin
  std::uint32_t round_id_ = 0;
  router::BorderRouter::Stats egress_seen_;
  std::uint64_t router_allocs_ = 0;
  std::uint64_t copy_bytes_ = 0;
  Counts c_;
  std::size_t next_shutoff_ = 0;
  std::uint64_t shutoff_start_ = 0;
  std::vector<Probe> probes_;
  std::vector<double> shutoff_us_;
  std::vector<double> lat_us_;
  std::vector<std::size_t> cycle_ends_;  // where each cycle's samples end
  bool paced_saturated_ = false;
  std::uint64_t backlog_max_ = 0;
  std::vector<double> gen_lag_us_;
  SegmentRates rates_;
  Throughput untraced_, traced_;
  std::uint64_t delivered_ = 0;
  std::uint64_t primed_ = 0;  // delivered by prime_pools()
  router::BorderRouter::Stats eg0_;
  core::FlowCache::Stats eg_cache0_, in_cache0_, eg_cache1_, in_cache1_;
  services::AccountabilityAgent::Stats aa0_;
  std::uint64_t epoch0_ = 0;
  net::TransportStats hop_tx_, hop_rx_;

  std::unique_ptr<net::SimTransport> sim_a_, sim_b_;
  net::PeerId to_b_ = 0;
};

std::size_t Driver::sim_round(bool paced, double period_ns,
                              std::uint64_t pacer_start) {
  const std::uint32_t id = round_id_++;
  Tracer::Scope root(tr_, kRoot, id, static_cast<std::uint32_t>(round_.views.size()));
  egress(id);
  const std::uint64_t egress_end = now_ns();
  {
    Tracer::Scope s(tr_, kNetSend, id, static_cast<std::uint32_t>(w_.outbox.size()));
    for (wire::PacketBuf& b : w_.outbox)
      if (!sim_a_->send(to_b_, std::move(b)).ok()) rep_.fail("sim hop send");
    w_.outbox.clear();
  }
  {
    Tracer::Scope s(tr_, kNetPoll, id, 0);
    const std::size_t n = sim_b_->poll();
    s.items(static_cast<std::uint32_t>(n));
    if (!paced) {
      ++c_.polls;
      c_.polled += n;
    }
  }
  staged_.clear();
  for (const wire::PacketBuf& b : staging_) staged_.push_back(b.view());
  {
    const std::uint64_t a0 = heap_allocs();
    const std::uint64_t c0 = wire::copy_audit().copy_bytes;
    {
      Tracer::Scope s(tr_, kIngress, id, static_cast<std::uint32_t>(staged_.size()));
      w_.ingress->process_ingress(staged_, kNow);
    }
    router_allocs_ += heap_allocs() - a0;
    copy_bytes_ += wire::copy_audit().copy_bytes - c0;
  }
  std::size_t ok = 0;
  {
    Tracer::Scope s(tr_, paced ? kHostOpen : kCheck, id,
                    static_cast<std::uint32_t>(w_.inbox.size()));
    ok = recv_.take(pacer_start, period_ns, lat_us_);
    staging_.clear();
  }
  Tracer::Scope s(tr_, kCheck, id, 0);
  check_egress();
  if (ok != round_.expect[kLegit]) rep_.fail("legitimate packet not delivered");
  probes_done(egress_end, paced);
  round_.clear();
  shutoffs_due(now_ns());
  return ok;
}

void Driver::sim_saturated(std::uint64_t end, bool count) {
  const std::uint64_t a0 = router_allocs_, c0 = copy_bytes_;
  while (now_ns() < end) {
    {
      Tracer::Scope g(tr_, kGen, round_id_, kBurst);
      add_probes();
      gen_saturated(kBurst);
    }
    rep_.attempted += round_.views.size();
    if (count) {
      c_.packets += round_.views.size();
      c_.mac_bytes += round_.mac_bytes;
    }
    delivered_ += sim_round(false, 0, 0);
  }
  if (count) {
    c_.router_allocs += router_allocs_ - a0;
    c_.copy_bytes += copy_bytes_ - c0;
  }
}

void Driver::sim_paced(std::uint64_t end) {
  const std::uint64_t start = now_ns();
  Pacer pacer(start, w_.p.paced_pps);
  const double period = 1e9 / w_.p.paced_pps;
  paced_ring_at_ = pos_;
  std::uint64_t slice = kSlicesPerSegment;  // none yet
  for (;;) {
    const std::uint64_t t = now_ns();
    if (t >= end) break;
    if (slice_of(start, end, t) != slice) {
      slice = slice_of(start, end, t);
      cpus_.next();
    }
    std::uint64_t n = 0;
    const std::uint64_t first = pacer.take(t, kPacedMax, n);
    if (n == 0 && probes_.empty()) continue;
    const std::uint64_t a0 = heap_allocs();
    {
      Tracer::Scope g(tr_, kHostSeal, round_id_, static_cast<std::uint32_t>(n));
      add_probes();
      gen_paced(first, n);
    }
    c_.host_allocs += heap_allocs() - a0;
    c_.paced_pkts += round_.expect[kLegit];
    c_.aead_bytes += 2 * round_.aead_bytes;  // sealed, then opened
    rep_.attempted += round_.views.size();
    delivered_ += sim_round(true, period, start);
  }
  pos_ += pacer.taken();
  paced_segment_done(pacer, end, lat_us_);
  cycle_ends_.push_back(lat_us_.size());
}

void Driver::run_sim() {
  sim_a_ = std::make_unique<net::SimTransport>(w_.loop);
  sim_b_ = std::make_unique<net::SimTransport>(w_.loop);
  to_b_ = sim_a_->add_peer(*sim_b_);
  sim_b_->add_peer(*sim_a_);
  sim_b_->set_rx([this](net::PeerId, wire::PacketBuf b) { staging_.push_back(std::move(b)); });

  tr_.pause(true);
  tr_.set_phase(kWarm);
  sim_saturated(warm_end_, false);

  begin_measured();
  c_.polls = c_.polled = 0;
  shutoff_start_ = now_ns();
  CycleBudget budget;
  for (int c = 0; c < kCycles; ++c) {
    const bool traced =
        traced_cycle(o_.trace, c) && budget.room(tr_.spans().size(), tr_.capacity());
    tr_.pause(!traced);
    tr_.set_phase(kSaturated);
    for (std::size_t k = 0; k < kSlicesPerSegment; ++k) {
      cpus_.next();
      const std::uint64_t t0 = now_ns();
      const std::uint64_t d0 = delivered_;
      sim_saturated(t0 + sat_ns_ / kSlicesPerSegment, true);
      sat_segment_done(t0, now_ns(), d0, delivered_, traced);
    }
    tr_.set_phase(kPaced);
    sim_paced(now_ns() + paced_ns_);
  }
  cpus_.unpin();
  end_measured();
  hop_tx_ = sim_a_->stats();
  hop_rx_ = sim_b_->stats();
  finish({&tr_});
}

// ---- fwd_udp: sender and receiver on their own threads ----------------------

void Driver::run_udp() {
  auto rx_ep = net::UdpTransport::open({});
  auto tx_ep = net::UdpTransport::open({});
  if (!rx_ep.ok() || !tx_ep.ok()) {
    rep_.fail("loopback UDP sockets unavailable");
    return;
  }
  net::UdpTransport& rx = **rx_ep;
  net::UdpTransport& tx = **tx_ep;
  const auto peer = tx.add_peer("127.0.0.1", rx.local_port());
  if (!peer.ok()) {
    rep_.fail("loopback UDP peer");
    return;
  }
  const std::size_t window = w_.p.window;
  const double period = 1e9 / w_.p.paced_pps;

  // Shared with the receiver thread. Every segment ends with the window
  // drained, so the receiver never holds packets of two segments at once.
  std::atomic<std::uint64_t> processed{0};  // datagrams the receiver took in
  std::atomic<std::uint64_t> delivered{0};  // of those, passed the checks
  std::atomic<std::size_t> timed{0};        // latency samples taken so far
  std::atomic<int> phase{kWarm};
  std::atomic<bool> tracing{false};
  std::atomic<std::uint64_t> paced_start{0};  // 0 = saturation images
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> rx_spans{0};       // spans the receiver holds
  std::atomic<std::size_t> cpu_turn{0};       // the sender's; 0 = unpinned

  // Receiver-owned until join.
  Tracer rtr(o_.trace, kSpanCapacity);
  Report rrep;
  Receiver recv(w_, rrep);
  std::vector<double> rlat;
  rlat.reserve(1u << 21);
  Counts rc;

  std::thread receiver([&] {
    warm_buffer_pool();
    std::vector<wire::PacketBuf> staging;
    std::vector<wire::PacketView> views;
    staging.reserve(4 * kBurst);
    views.reserve(4 * kBurst);
    rx.set_rx([&](net::PeerId, wire::PacketBuf b) { staging.push_back(std::move(b)); });
    std::uint32_t id = 0;
    std::uint64_t free_at = now_ns();  // when the last round's work ended
    std::size_t turn = 0;
    while (!stop.load(std::memory_order_acquire)) {
      if (cpu_turn.load(std::memory_order_relaxed) != turn) {
        turn = cpu_turn.load(std::memory_order_relaxed);
        cpus_.follow(turn);
      }
      const int ph = phase.load(std::memory_order_acquire);
      rtr.set_phase(static_cast<Phase>(ph));
      rtr.pause(!tracing.load(std::memory_order_acquire));
      // Run-to-completion RX: busy-poll, never sleep in the kernel.
      const std::uint64_t t0 = now_ns();
      while (staging.size() < kBurst && rx.poll(0) > 0) {
      }
      const std::size_t n = staging.size();
      if (ph == kSaturated) {
        ++rc.polls;
        rc.polled += n;
        if (n == 0) ++rc.empty_polls;
      }
      if (n == 0) continue;
      // Empty polls since the last round, then the poll that found data.
      rtr.record(kRxIdle, id, 0, free_at, t0);
      rtr.record(kNetPoll, id, static_cast<std::uint32_t>(n), t0, now_ns());
      Tracer::Scope root(rtr, kRoot, id, static_cast<std::uint32_t>(n));
      views.clear();
      for (const wire::PacketBuf& b : staging) views.push_back(b.view());
      const std::uint64_t a0 = heap_allocs();
      const std::uint64_t c0 = wire::copy_audit().copy_bytes;
      {
        Tracer::Scope s(rtr, kIngress, id, static_cast<std::uint32_t>(n));
        w_.ingress->process_ingress(views, kNow);
      }
      if (ph == kSaturated) {
        rc.router_allocs += heap_allocs() - a0;
        rc.copy_bytes += wire::copy_audit().copy_bytes - c0;
      }
      const std::uint64_t start = paced_start.load(std::memory_order_acquire);
      std::size_t ok = 0;
      {
        Tracer::Scope s(rtr, start != 0 ? kHostOpen : kCheck, id,
                        static_cast<std::uint32_t>(w_.inbox.size()));
        ok = recv.take(start, start != 0 ? period : 0, rlat);
        staging.clear();
      }
      ++id;
      rx_spans.store(rtr.spans().size(), std::memory_order_release);
      timed.store(rlat.size(), std::memory_order_release);
      delivered.fetch_add(ok, std::memory_order_release);
      processed.fetch_add(n, std::memory_order_release);
      free_at = now_ns();
    }
    rx.set_rx({});
  });

  // Sender: this thread.
  std::uint64_t sent = 0;
  std::uint64_t lost = 0;
  std::uint64_t waited_ns = 0;
  auto wait_window = [&](std::size_t need) {
    const std::uint64_t t0 = now_ns();
    Tracer::Scope s(tr_, kWindowWait, round_id_, static_cast<std::uint32_t>(need));
    std::uint64_t last = processed.load(std::memory_order_acquire);
    std::uint64_t last_change = t0;
    for (;;) {
      const std::uint64_t done = processed.load(std::memory_order_acquire);
      if (sent - done - lost + need <= window) break;
      const std::uint64_t t = now_ns();
      if (done != last) {
        last = done;
        last_change = t;
      } else if (t - last_change > 200'000'000) {
        // Nothing arrived for 200 ms: what is in flight was lost.
        const std::uint64_t gone = sent - done - lost;
        rep_.fail("datagram lost on the loopback hop", gone);
        lost += gone;
        break;
      }
      std::this_thread::yield();
    }
    waited_ns += now_ns() - t0;
  };
  auto send_round = [&](std::uint32_t id) {
    Tracer::Scope s(tr_, kNetSend, id, static_cast<std::uint32_t>(w_.outbox.size()));
    for (wire::PacketBuf& b : w_.outbox) {
      if (!tx.send(*peer, std::move(b)).ok()) rep_.fail("UDP send");
      ++sent;
    }
    w_.outbox.clear();
  };
  auto saturated = [&](std::uint64_t end, bool count) {
    const std::uint64_t a0 = router_allocs_, c0 = copy_bytes_;
    const std::size_t n = w_.p.udp_burst;
    while (now_ns() < end) {
      wait_window(n);
      const std::uint32_t id = round_id_++;
      Tracer::Scope root(tr_, kRoot, id, static_cast<std::uint32_t>(n));
      {
        Tracer::Scope g(tr_, kGen, id, static_cast<std::uint32_t>(n));
        gen_saturated(n);
      }
      rep_.attempted += round_.views.size();
      if (count) {
        c_.packets += round_.views.size();
        c_.mac_bytes += round_.mac_bytes;
      }
      egress(id);
      send_round(id);
      Tracer::Scope c(tr_, kCheck, id, 0);
      check_egress();
      round_.clear();
    }
    if (count) {
      c_.router_allocs += router_allocs_ - a0;
      c_.copy_bytes += copy_bytes_ - c0;
    }
  };

  auto next_cpu = [&] {
    cpus_.next();
    cpu_turn.store(cpus_.turn(), std::memory_order_relaxed);
  };

  tr_.pause(true);
  tr_.set_phase(kWarm);
  saturated(warm_end_, false);
  wait_window(window);  // drained: the receiver is idle in poll

  begin_measured();
  std::vector<std::size_t> timed_ends;
  std::vector<std::vector<double>> waiting(kCycles);  // due but never sent
  CycleBudget tx_budget, rx_budget;
  for (int c = 0; c < kCycles; ++c) {
    const bool traced =
        traced_cycle(o_.trace, c) && tx_budget.room(tr_.spans().size(), tr_.capacity()) &&
        rx_budget.room(rx_spans.load(std::memory_order_acquire), rtr.capacity());
    tr_.pause(!traced);
    tracing.store(traced, std::memory_order_release);
    tr_.set_phase(kSaturated);
    phase.store(kSaturated, std::memory_order_release);
    for (std::size_t k = 0; k < kSlicesPerSegment; ++k) {
      next_cpu();
      const std::uint64_t t0 = now_ns();
      const std::uint64_t w0 = waited_ns;
      const std::uint64_t d0 = delivered.load(std::memory_order_acquire);
      saturated(t0 + sat_ns_ / kSlicesPerSegment, true);
      wait_window(window);  // count only what arrived
      sat_segment_done(t0, now_ns(), d0, delivered.load(std::memory_order_acquire), traced);
      c_.window_wait_ns += waited_ns - w0;
    }

    // Paced: seal at the offered rate, at most `window` in flight.
    tr_.set_phase(kPaced);
    const std::uint64_t p0 = now_ns();
    const std::uint64_t p_end = p0 + paced_ns_;
    Pacer pacer(p0, w_.p.paced_pps);
    paced_start.store(p0, std::memory_order_release);
    phase.store(kPaced, std::memory_order_release);
    paced_ring_at_ = pos_;
    std::uint64_t slice = kSlicesPerSegment;  // none yet
    for (;;) {
      const std::uint64_t t = now_ns();
      if (t >= p_end) break;
      if (slice_of(p0, p_end, t) != slice) {
        slice = slice_of(p0, p_end, t);
        next_cpu();
      }
      std::uint64_t n = 0;
      const std::uint64_t first = pacer.take(t, std::min(kPacedMax, window), n);
      if (n == 0) continue;
      wait_window(n);
      const std::uint32_t id = round_id_++;
      Tracer::Scope root(tr_, kRoot, id, static_cast<std::uint32_t>(n));
      const std::uint64_t a0 = heap_allocs();
      {
        Tracer::Scope g(tr_, kHostSeal, id, static_cast<std::uint32_t>(n));
        gen_paced(first, n);
      }
      c_.host_allocs += heap_allocs() - a0;
      c_.paced_pkts += round_.expect[kLegit];
      c_.aead_bytes += 2 * round_.aead_bytes;
      rep_.attempted += round_.views.size();
      egress(id);
      send_round(id);
      Tracer::Scope chk(tr_, kCheck, id, 0);
      check_egress();
      round_.clear();
    }
    pos_ += pacer.taken();
    paced_segment_done(pacer, p_end, waiting[c]);
    wait_window(window);
    timed_ends.push_back(timed.load(std::memory_order_acquire));
    paced_start.store(0, std::memory_order_release);
  }
  cpus_.unpin();
  end_measured();
  stop.store(true, std::memory_order_release);
  receiver.join();

  rep_.fail("receiver-side check", rrep.failed);
  const std::uint64_t got = delivered.load(std::memory_order_acquire);
  if (got + lost != sent) rep_.fail("datagram unaccounted for", sent - got - lost);
  delivered_ = got;
  std::size_t from = 0;
  for (int c = 0; c < kCycles; ++c) {
    lat_us_.insert(lat_us_.end(), rlat.begin() + static_cast<std::ptrdiff_t>(from),
                   rlat.begin() + static_cast<std::ptrdiff_t>(timed_ends[c]));
    lat_us_.insert(lat_us_.end(), waiting[c].begin(), waiting[c].end());
    cycle_ends_.push_back(lat_us_.size());
    from = timed_ends[c];
  }
  c_.polls = rc.polls;
  c_.empty_polls = rc.empty_polls;
  c_.polled = rc.polled;
  c_.router_allocs += rc.router_allocs;
  c_.copy_bytes += rc.copy_bytes;
  hop_tx_ = tx.stats();
  hop_rx_ = rx.stats();
  finish({&tr_, &rtr});
}

void Driver::finish(const std::vector<const Tracer*>& tracers) {
  Report& r = rep_;
  const router::BorderRouter::Stats in = w_.ingress->stats();
  if (in.total_drops() != 0) r.fail("ingress dropped a packet", in.total_drops());
  if (in.delivered_in != delivered_ + primed_) r.fail("ingress delivered count");

  // End-to-end.
  rates_.describe("saturation");
  r.set("ops_per_s", rates_.best_rate());
  r.set("p50_us", best_slice_quantile(lat_us_, cycle_ends_, 0.50));
  r.set("p90_us", best_slice_quantile(lat_us_, cycle_ends_, 0.90));
  describe("host-to-host latency", lat_us_);
  if (!shutoff_us_.empty()) describe("shutoff latency", shutoff_us_);

  // Per-layer: spans.
  SpanTotals t;
  double coverage = 1;  // of the least-covered thread
  for (std::size_t i = 0; i < tracers.size(); ++i) {
    t.add(*tracers[i]);
    SpanTotals own;
    own.add(*tracers[i]);
    const double c = own.coverage(kSaturated, traced_.ns);
    coverage = std::min(coverage, c);
    if (o_.trace) std::fprintf(stderr, "perfbench: thread %zu span coverage %.3f\n", i, c);
  }
  const double pkts = static_cast<double>(std::max<std::uint64_t>(c_.packets, 1));
  r.set("router.egress_ns_per_pkt", t.self_per_item(kEgress, kSaturated));
  r.set("router.ingress_ns_per_pkt", t.self_per_item(kIngress, kSaturated));
  const double net_items = t.items[kNetSend][kSaturated];
  r.set("net.hop_ns_per_pkt",
        net_items > 0
            ? (t.self_ns[kNetSend][kSaturated] + t.self_ns[kNetPoll][kSaturated]) / net_items
            : 0);
  r.set("host.seal_ns_per_pkt", t.self_per_item(kHostSeal, kPaced));
  r.set("host.open_ns_per_pkt", t.self_per_item(kHostOpen, kPaced));
  r.set("bench.span_coverage", o_.trace ? coverage : 0);
  r.set("bench.trace_overhead", trace_overhead(untraced_, traced_));
  double shutoff_ns = 0, shutoffs = 0;
  for (int ph = kSaturated; ph <= kPaced; ++ph) {
    shutoff_ns += t.self_ns[kShutoff][ph];
    shutoffs += t.count[kShutoff][ph];
  }
  r.set("services.shutoff_ns_per_req", shutoffs > 0 ? shutoff_ns / shutoffs : 0);

  // Per-layer: counters.
  const router::BorderRouter::Stats eg = minus(w_.egress->stats(), eg0_);
  r.set("router.drop_expired", static_cast<double>(eg.drop_expired + in.drop_expired));
  r.set("router.drop_revoked", static_cast<double>(eg.drop_revoked + in.drop_revoked));
  r.set("router.drop_unknown_host",
        static_cast<double>(eg.drop_unknown_host + in.drop_unknown_host));
  r.set("router.drop_bad_mac", static_cast<double>(eg.drop_bad_mac + in.drop_bad_mac));
  r.set("router.drop_bad_ephid", static_cast<double>(eg.drop_bad_ephid + in.drop_bad_ephid));
  r.set("router.drop_too_big", static_cast<double>(eg.drop_too_big + in.drop_too_big));
  r.set("router.allocs_per_pkt", static_cast<double>(c_.router_allocs) / pkts);
  r.set("router.copy_bytes_per_pkt", static_cast<double>(c_.copy_bytes) / pkts);
  const core::FlowCache::Stats ec = minus(eg_cache1_, eg_cache0_);
  const core::FlowCache::Stats ic = minus(in_cache1_, in_cache0_);
  r.set("core.flow_cache_hit_rate", ec.hit_rate());
  r.set("core.ingress_cache_hit_rate", ic.hit_rate());
  r.set("core.flow_cache_stale_gen", static_cast<double>(ec.stale_gen + ic.stale_gen));
  r.set("core.flow_cache_evictions", static_cast<double>(ec.evictions + ic.evictions));
  r.set("core.cross_worker_duplicates",
        static_cast<double>(eg_cache1_.cross_worker_duplicates +
                            in_cache1_.cross_worker_duplicates));
  r.set("core.epoch_bumps", static_cast<double>(w_.as_a.epoch.current() - epoch0_));
  r.set("crypto.ephid_opens_per_pkt", static_cast<double>(ec.misses + ic.misses) / pkts);
  r.set("crypto.mac_bytes_per_pkt", static_cast<double>(c_.mac_bytes) / pkts);
  const double paced = static_cast<double>(std::max<std::uint64_t>(c_.paced_pkts, 1));
  r.set("crypto.aead_bytes_per_pkt", static_cast<double>(c_.aead_bytes) / paced);
  r.set("host.allocs_per_pkt", static_cast<double>(c_.host_allocs) / paced);
  r.set("net.pkts_per_poll",
        c_.polls > 0 ? static_cast<double>(c_.polled) / static_cast<double>(c_.polls) : 0);
  r.set("net.empty_poll_ratio",
        c_.polls > 0 ? static_cast<double>(c_.empty_polls) / static_cast<double>(c_.polls) : 0);
  r.set("net.window_wait_ns_per_pkt", static_cast<double>(c_.window_wait_ns) / pkts);
  r.set("net.tx_errors", static_cast<double>(hop_tx_.tx_errors));
  r.set("net.rx_rejected", static_cast<double>(hop_rx_.rx_rejected));
  r.set("net.rx_truncated", static_cast<double>(hop_rx_.rx_truncated));
  if (w_.aa) {
    const services::AccountabilityAgent::Stats a = w_.aa->stats();
    r.set("services.aa_accepted", static_cast<double>(a.accepted - aa0_.accepted));
    r.set("services.aa_rejected",
          static_cast<double>(a.rejected_bad_cert + a.rejected_bad_sig +
                              a.rejected_unauthorized + a.rejected_not_our_host +
                              a.rejected_bad_mac + a.rejected_malformed));
    r.set("services.aa_hid_escalations", static_cast<double>(a.hid_escalations));
    if (a.hid_escalations != 0) r.fail("a host reached the revocation limit");
  }
  r.set("services.shutoff_p50_us", quantile(shutoff_us_, 0.50));
  r.set("services.shutoff_p90_us", quantile(shutoff_us_, 0.90));
  r.set("services.shutoff_samples", static_cast<double>(shutoff_us_.size()));

  // The generator itself.
  r.set("bench.gen_lag_p99_us", quantile(gen_lag_us_, 0.99));
  r.set("bench.backlog_max", static_cast<double>(backlog_max_));
  r.set("bench.latency_samples", static_cast<double>(lat_us_.size()));
  r.set("bench.paced_saturated", paced_saturated_ ? 1 : 0);

  r.note("pool_threads", "{\"egress\": " + std::to_string(kPoolThreads) +
                             ", \"ingress\": " + std::to_string(kPoolThreads) +
                             (w_.p.udp ? ", \"sender\": 1, \"receiver\": 1" : "") + "}");
  r.note("offered_pps", w_.p.paced_pps);
  if (w_.p.shutoff_per_s > 0) r.note("shutoffs_per_s", w_.p.shutoff_per_s);
  if (w_.p.udp) r.note("window_pkts", static_cast<double>(w_.p.window));
  r.note("flows", static_cast<double>(w_.p.flows));
  r.note("hosts_per_as", static_cast<double>(w_.p.hosts));
  double span_drops = 0;
  for (const Tracer* tr : tracers) span_drops += static_cast<double>(tr->dropped());
  r.note("span_drops", span_drops);
  if (!o_.trace_out.empty() && !write_spans(o_.trace_out, tracers))
    std::fprintf(stderr, "perfbench: could not write %s\n", o_.trace_out.c_str());
}

}  // namespace

void run_fwd(const Options& o, Report& rep) {
  const Params p = params_for(o.workload);
  const std::unique_ptr<World> w = build_world<World>(rep, p, o.seed, o.seconds);
  Driver d(*w, o, rep);
  d.run();
}

}  // namespace perfbench
