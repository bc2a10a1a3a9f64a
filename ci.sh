#!/usr/bin/env bash
# CI entry point: tier-1 verification in three configurations.
#
#   1. Release with warnings-as-errors for all APNA targets, plus every
#      src/ header compiled on its own
#   2. ASan + UBSan (Debug)
#   3. ThreadSanitizer over the `tsan`-labelled suites: util::ChunkPool and
#      util::Counters (util_test), the router/core concurrency tests, the
#      service and resolver pools built on that chunk pool, the crypto suites
#      (concurrent batch verification), the
#      persistence coordinator's multi-threaded sink, the zero-allocation
#      pool checks and the bounded scenario storms (bounded runtime — TSan
#      over the full integration matrix would dominate CI time for no extra
#      signal)
#
# 1 and 2 must build every library, test, bench and example target and pass
# the full ctest suite. Run from the repo root: ./ci.sh
set -euo pipefail

cd "$(dirname "$0")"

jobs=$(nproc 2>/dev/null || echo 2)

run_config() {
  local name=$1
  shift
  local build_dir="build-${name}"
  echo "=== [${name}] configure"
  cmake -B "${build_dir}" -S . "$@"
  echo "=== [${name}] build"
  cmake --build "${build_dir}" -j "${jobs}"
  echo "=== [${name}] test"
  ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}"
}

# Each leg's full ctest (in run_config) covers every label; no label is
# re-run on its own. Why particular suites matter in particular legs:
#   Release — `alloc`: the operator-new-hook test must see 0 heap
#     allocations per forwarded packet in steady state, and optimized
#     builds are where a copy/allocation regression shows. `bench`:
#     smoke runs of the baseline-emitting benches (E1/E2/E7/E9) keep them
#     from bit-rotting and hold their hard assertions (0 allocs/forwarded
#     packet including the loopback UDP leg, the E1 allocs/request
#     ceiling, cached-vs-uncached and cross-tier crypto equivalence).
#     `net`: the transport conformance suite (both backends) and the
#     two-process loopback demo; both skip where sockets are forbidden.
#     `scenario`: the Internet-scale scripts in --smoke trim (10⁶-host
#     memory gate, attack storms, multi-AS sweep, DNS NXDOMAIN storm — each
#     re-runs itself to verify byte-identical JSON); Release only matters
#     here because the 10⁶-host provisioning loop is what the gate
#     measures. `dns`: wire codec, sharded TTL/negative cache, policy trie,
#     upstream timeout/backoff. `persist`: journal framing under every
#     truncation point and bit flip, every flipped byte and every cut of
#     an AS snapshot failing recovery, fault-injected short writes/fsync
#     failures, full snapshot+journal recovery.
#   ASan/UBSan — `wire`: PacketView::bind and Packet::parse over
#     truncations/mutations. `services`: the span codec's truncation
#     properties and the pooled issuance path. `net`: recvfrom into pooled
#     storage, the MSG_TRUNC arm, bind() over adversarial datagrams. `dns`:
#     the name codec's truncation properties, the arena-backed cache and
#     trie edge splits. `persist`: the one loader, replay_journal plus a
#     snapshot's head and end checks, over attacker-shaped bytes. Each is
#     where an out-of-bounds read would hide.
run_config ci       -DCMAKE_BUILD_TYPE=Release -DAPNA_WERROR=ON
# Header self-containment, explicitly in the Release leg: every header
# under src/ must compile on its own, so no translation unit builds only
# because another header happened to be included first.
echo "=== [ci] header self-containment"
find src -name '*.h' -print0 |
  xargs -0 -P "${jobs}" -I{} "${CXX:-g++}" -std=c++20 -fsyntax-only -Isrc \
    -include {} -x c++ /dev/null
# Benchmark self-test, explicitly in the Release leg: the perfbench/
# program links seal_control, open_control, decode_msg and
# ForwardingPool::Config, so a library API change that breaks it fails CI
# instead of the next benchmark run. Every workload runs for 1 s, untraced
# and traced, and must keep its output checks and zero gates.
python3 perfbench/selftest.py
# Forced-cap crypto runs, explicitly in Release: re-run the KAT and
# property suites with the backend capped, once at `soft` (portable C AES,
# scalar ChaCha blocks) and once at `aesni` (AES-NI, 4-way SSE2 ChaCha).
# On an AVX2 host the uncapped run only ever takes the 8-way ChaCha kernel,
# so these two runs are what exercise the SSE2 and scalar paths, frame
# head and tail alike, where a host without AVX2 (or without AES-NI) runs
# them in production. The KAT suite's FF1 vectors check the EphID IV
# permutation on each AES tier the same way.
for cap in soft aesni; do
  APNA_CRYPTO_BACKEND=${cap} ctest --test-dir build-ci --output-on-failure \
    -R '^crypto_(kat|property)_test$'
done

run_config sanitize -DCMAKE_BUILD_TYPE=Debug -DAPNA_SANITIZE=ON -DAPNA_WERROR=ON

echo "=== [tsan] configure"
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DAPNA_TSAN=ON \
  -DAPNA_WERROR=ON -DAPNA_BUILD_BENCH=OFF -DAPNA_BUILD_EXAMPLES=OFF
echo "=== [tsan] build (tsan-labelled tests only)"
# A suite joins this leg by carrying the `tsan` ctest label
# (tests/CMakeLists.txt); apna_add_test collects every labelled suite into
# the tsan_tests target. Why particular suites are labelled:
#   util_test — the chunk pool's claim/wake/wait protocol at 1, 2 and 4
#     threads across back-to-back runs, and concurrent Counters adds.
#   router_concurrency_test, router_test, core_test, flow_cache_test — the
#     sharded data plane's stress suite and per-worker FlowCaches.
#   control_plane_test, services_test — the M-worker ServicePool on the
#     chunk pool.
#   alloc_count_test — the multi-thread ForwardingPool's steady state.
#   scenario_test — bounded storm scripts (bogus-EphID flood, shutoff
#     storm, revocation waves) driving the ForwardingPool, per-worker caches
#     and striped revocation tables under racing epoch bumps.
#   dns_concurrency_test — resolver lookups racing zone put/erase and
#     domain-policy churn, plus the M-worker ResolverPool on the chunk pool.
#   the crypto suites — concurrent ed25519_verify_batch, whose coefficient
#     transcript and scratch are per call, where a shared-scratch race
#     would hide; the KAT/property suites are cheap enough to keep as
#     ballast.
#   persist_test — service threads funnel journal records through one
#     PersistCoordinator sink while the main thread rotates snapshots.
cmake --build build-tsan -j "${jobs}" --target tsan_tests
echo "=== [tsan] test"
ctest --test-dir build-tsan --output-on-failure -j "${jobs}" -L tsan

echo "=== CI green: Release(-Werror), ASan/UBSan and TSan legs all passed"
