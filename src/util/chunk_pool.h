// Fork-join pool over index ranges: the one claim/wake/wait protocol behind
// services::ServicePool and dns::ResolverPool.
//
// run(n, chunk, fn) splits [0, n) into chunks of `chunk` indices and calls
// fn(slot, begin, end) exactly once per chunk. The pool's thread count is
// the TOTAL parallelism: threads-1 background workers (slots 1..threads-1)
// plus the calling thread, which is slot 0 and claims chunks like any
// worker instead of blocking — so a 1-thread pool starts no thread at all,
// and a run of one chunk runs on the caller without waking a worker.
// run() returns once every chunk has finished; a worker that slept through
// the whole burst is never waited for. A slot is always the same thread,
// so per-slot state indexed by `slot` needs no lock of its own.
//
// One run at a time: run() must not be called from two threads at once.
// Owners declare the pool AFTER the per-slot state its chunks touch, so the
// pool's destructor joins the workers before that state is destroyed.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace apna::util {

class ChunkPool {
 public:
  /// `threads` is the total parallelism, calling thread included; 0 means
  /// one per hardware thread (see resolve()).
  explicit ChunkPool(std::size_t threads);
  ~ChunkPool();

  ChunkPool(const ChunkPool&) = delete;
  ChunkPool& operator=(const ChunkPool&) = delete;

  /// The thread count a pool built with `threads` runs: 0 becomes one per
  /// hardware thread (at least 1). Owners size their per-slot state by it.
  static std::size_t resolve(std::size_t threads);

  std::size_t threads() const { return workers_.size() + 1; }

  /// Calls fn(slot, begin, end) once for every chunk of [0, n), across all
  /// slots, and blocks until every chunk has finished. `chunk` must be at
  /// least 1. `fn` stays owned by the caller; nothing is allocated per run.
  template <class Fn>
  void run(std::size_t n, std::size_t chunk, const Fn& fn) {
    run_chunks(
        n, chunk,
        [](const void* ctx, std::size_t slot, std::size_t begin,
           std::size_t end) { (*static_cast<const Fn*>(ctx))(slot, begin, end); },
        std::addressof(fn));
  }

 private:
  using ChunkFn = void (*)(const void* ctx, std::size_t slot,
                           std::size_t begin, std::size_t end);

  void run_chunks(std::size_t n, std::size_t chunk, ChunkFn fn,
                  const void* ctx);
  /// Claims and runs chunks until none is left to claim.
  void drain(std::size_t slot);
  void worker_main(std::size_t slot);

  // The burst descriptor. Written under mu_ before any chunk is claimable;
  // a claim (also under mu_) therefore sees the whole descriptor.
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  ChunkFn fn_ = nullptr;
  const void* ctx_ = nullptr;
  std::size_t n_ = 0;
  std::size_t chunk_ = 1;
  std::size_t next_chunk_ = 0;
  std::size_t chunks_done_ = 0;
  std::size_t chunks_total_ = 0;
  bool stop_ = false;

  std::vector<std::thread> workers_;  // last: started after the state above
};

}  // namespace apna::util
