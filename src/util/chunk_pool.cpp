#include "util/chunk_pool.h"

#include <algorithm>
#include <cassert>

namespace apna::util {

std::size_t ChunkPool::resolve(std::size_t threads) {
  if (threads != 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ChunkPool::ChunkPool(std::size_t threads) {
  const std::size_t total = resolve(threads);
  workers_.reserve(total - 1);
  for (std::size_t slot = 1; slot < total; ++slot)
    workers_.emplace_back([this, slot] { worker_main(slot); });
}

ChunkPool::~ChunkPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ChunkPool::drain(std::size_t slot) {
  for (;;) {
    std::size_t begin, end;
    {
      std::lock_guard lock(mu_);
      if (next_chunk_ >= chunks_total_) return;
      begin = next_chunk_++ * chunk_;
      end = std::min(begin + chunk_, n_);
    }
    // fn_/ctx_ cannot change while this chunk is outstanding: the next
    // run_chunks starts only after chunks_done_ reaches chunks_total_.
    fn_(ctx_, slot, begin, end);
    {
      std::lock_guard lock(mu_);
      if (++chunks_done_ == chunks_total_) cv_done_.notify_all();
    }
  }
}

void ChunkPool::worker_main(std::size_t slot) {
  for (;;) {
    {
      std::unique_lock lock(mu_);
      cv_work_.wait(lock,
                    [this] { return stop_ || next_chunk_ < chunks_total_; });
      if (stop_) return;
    }
    drain(slot);
  }
}

void ChunkPool::run_chunks(std::size_t n, std::size_t chunk, ChunkFn fn,
                           const void* ctx) {
  assert(chunk > 0);
  if (n == 0) return;
  // A single chunk is the caller's alone: waking a worker for it would
  // only cost a futex wake and a lock hand-off.
  if (n <= chunk) {
    fn(ctx, 0, 0, n);
    return;
  }
  {
    std::lock_guard lock(mu_);
    fn_ = fn;
    ctx_ = ctx;
    n_ = n;
    chunk_ = chunk;
    next_chunk_ = 0;
    chunks_done_ = 0;
    chunks_total_ = (n + chunk - 1) / chunk;
  }
  cv_work_.notify_all();

  drain(0);  // the caller is slot 0
  std::unique_lock lock(mu_);
  cv_done_.wait(lock, [this] { return chunks_done_ == chunks_total_; });
}

}  // namespace apna::util
