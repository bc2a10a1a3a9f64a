#include "services/service_runtime.h"

#include <cassert>
#include <memory>
#include <vector>

#include "crypto/ed25519.h"
#include "services/accountability_agent.h"
#include "services/management_service.h"
#include "wire/msg_codec.h"

namespace apna::services {

// ---- ServiceDispatcher ------------------------------------------------------

void ServiceDispatcher::dispatch(wire::PacketBuf pkt) {
  core::EphId dst;
  dst.bytes = pkt.view().dst_ephid();
  ControlService* svc = route(dst);
  if (!svc) {
    counters_.add<&Stats::unrouted>();
    return;
  }
  counters_.add<&Stats::dispatched>();
  auto reply = svc->handle_packet(pkt.view());
  if (!reply) {
    counters_.add<&Stats::service_errors>();
    return;
  }
  counters_.add<&Stats::replies>();
  if (reply_) reply_(reply.take());
}

// ---- ServicePool ------------------------------------------------------------

ServicePool::ServicePool(ManagementService& ms, AccountabilityAgent* aa,
                         Config cfg)
    : ms_(ms),
      aa_(aa),
      slots_(util::ChunkPool::resolve(cfg.threads)),
      pool_(slots_.size()) {}

void ServicePool::issue_chunk(std::size_t slot, std::span<const IssueJob> jobs,
                              core::ExpTime now, std::uint64_t nonce0,
                              std::span<Result<Bytes>> results) {
  Slot& st = slots_[slot];
  const std::size_t m = jobs.size();

  // Stage 1 — validate/decrypt/decode every request of the chunk.
  std::vector<ManagementService::PreparedIssue> preps(m);
  std::vector<Result<void>> begun;
  begun.reserve(m);
  for (std::size_t j = 0; j < m; ++j)
    begun.push_back(
        ms_.begin_issue(jobs[j].ctrl, jobs[j].sealed_request, now, preps[j]));

  // Stage 2 — one ed25519_verify_batch sweep over the chunk's
  // proof-of-possession signatures (bit-identical to per-request scalar
  // verification; see ed25519.h).
  std::vector<crypto::Ed25519BatchItem> items;
  std::vector<std::size_t> item_index;
  items.reserve(m);
  item_index.reserve(m);
  for (std::size_t j = 0; j < m; ++j) {
    if (!begun[j]) continue;
    items.push_back({&preps[j].request.ephid_pub.sig,
                     ByteSpan(preps[j].pop_tbs.data(), preps[j].pop_tbs.size()),
                     &preps[j].request.pop_sig});
    item_index.push_back(j);
  }
  std::vector<char> pop_ok(m, 0);
  if (!items.empty()) {
    auto verdicts = std::make_unique<bool[]>(items.size());
    (void)crypto::ed25519_verify_batch({items.data(), items.size()},
                                       verdicts.get());
    for (std::size_t v = 0; v < items.size(); ++v)
      pop_ok[item_index[v]] = verdicts[v] ? 1 : 0;
  }

  // Stage 3 — finish each request with its own index-derived reply
  // nonce (and so IV): results are bit-identical no matter which worker
  // (or how many workers) ran the request.
  st.stats.add<&Stats::issuance_jobs>(m);
  for (std::size_t j = 0; j < m; ++j) {
    if (!begun[j]) {
      st.stats.add<&Stats::failed_jobs>();
      results[j] = Result<Bytes>(begun[j].error());
      continue;
    }
    wire::MsgWriter out(320);
    auto issued =
        ms_.finish_issue(preps[j], pop_ok[j] != 0, now, nonce0 + j, out);
    if (issued) {
      results[j] = out.take();
    } else {
      st.stats.add<&Stats::failed_jobs>();
      results[j] = Result<Bytes>(issued.error());
    }
  }
}

void ServicePool::process_issuance(std::span<const IssueJob> burst,
                                   core::ExpTime now,
                                   std::span<Result<Bytes>> results) {
  assert(results.size() >= burst.size());
  // One contiguous nonce block per burst: request i uses nonce0+i, so the
  // emitted ciphertexts are independent of worker scheduling.
  const std::uint64_t nonce0 = ms_.reserve_reply_nonces(burst.size());
  pool_.run(burst.size(), kChunkJobs,
            [&](std::size_t slot, std::size_t begin, std::size_t end) {
              issue_chunk(slot, burst.subspan(begin, end - begin), now,
                          nonce0 + begin, results.subspan(begin, end - begin));
            });
}

void ServicePool::process_shutoffs(std::span<const core::ShutoffRequest> burst,
                                   core::ExpTime now,
                                   std::span<Result<void>> results) {
  assert(aa_ != nullptr && "ServicePool built without an AccountabilityAgent");
  assert(results.size() >= burst.size());
  pool_.run(burst.size(), kChunkJobs,
            [&](std::size_t slot, std::size_t begin, std::size_t end) {
              util::Counters<Stats>& st = slots_[slot].stats;
              for (std::size_t j = begin; j < end; ++j) {
                results[j] = aa_->process(burst[j], now);
                st.add<&Stats::shutoff_jobs>();
                if (!results[j]) st.add<&Stats::failed_jobs>();
              }
            });
}

ServicePool::Stats ServicePool::stats() const {
  Stats sum;
  for (const Slot& slot : slots_) util::add_fields(sum, slot.stats.snapshot());
  return sum;
}

}  // namespace apna::services
