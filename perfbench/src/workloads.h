// The benchmark's frozen workload constants and its two entry points.
//
// Offered rates of the paced (open-loop) phases are fixed here, at about
// half of what the same pipeline sustains in a closed loop at the commit
// that introduced the benchmark (see perfbench/LAYERS.md). They must not be
// re-tuned by a change that claims a gain: the rate is part of the workload.
#pragma once

#include <cstddef>

#include "bench.h"

namespace perfbench {

// fwd_*: host-to-host packets per second (seal → egress → hop → ingress →
// open on the driver thread(s)).
constexpr double kFwdZipfPacedPps = 110'000;
constexpr double kFwdChurnPacedPps = 85'000;
constexpr double kFwdUdpPacedPps = 50'000;
/// fwd_udp: datagrams the sender keeps in flight.
constexpr std::size_t kFwdUdpWindow = 256;
/// fwd_udp: saturation burst. A quarter of the window, so the sender seals
/// and forwards the next burst while the receiver drains the last.
constexpr std::size_t kFwdUdpBurst = 64;
/// fwd_churn: Fig 5 shutoffs per second, both phases.
constexpr double kFwdChurnShutoffsPerS = 100;

// control_mix: offered EphID issuances and DNS lookups per second.
constexpr double kIssuePacedPerS = 2'000;
constexpr double kLookupPacedPerS = 50'000;
/// control_mix saturation: one control op is one EphID issuance plus this
/// many DNS lookups (with their publishes).
constexpr std::size_t kLookupsPerIssue = 64;
/// control_mix saturation: ops a segment runs per second of its nominal
/// length. Segments are work-bound; this fixes their size.
constexpr double kControlSatOpsPerS = 5'500;

/// Runs fwd_zipf, fwd_churn or fwd_udp into `rep`.
void run_fwd(const Options& o, Report& rep);
/// Runs control_mix into `rep`.
void run_control(const Options& o, Report& rep);

}  // namespace perfbench
