// util::ChunkPool and util::Counters:
//  * ChunkPool visits every index of [0, n) exactly once, in chunks of at
//    most `chunk` that start on a chunk boundary, at 1, 2 and 4 threads
//    and across back-to-back runs (including n = threads with chunk 1, the
//    ForwardingPool's one-ring-per-chunk shape); the caller is slot 0, every slot is one
//    thread, and a 1-thread pool runs everything on the caller. Every pool
//    runs a one-chunk run on the caller alone.
//  * Counters::add<&S::f>() bumps f and nothing else, concurrent adds sum
//    exactly, snapshot() reads every field, and add_fields/sub_fields work
//    field by field. CounterSet admits only all-std::uint64_t layouts.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "util/chunk_pool.h"
#include "util/counters.h"

namespace apna::util {
namespace {

// ---- ChunkPool ----------------------------------------------------------------

TEST(ChunkPool, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kChunk = 16;
  const std::thread::id caller = std::this_thread::get_id();
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ChunkPool pool(threads);
    ASSERT_EQ(pool.threads(), threads);
    // The thread that ran each slot, over every run of this pool.
    std::vector<std::thread::id> slot_thread(threads);
    std::mutex mu;
    // Back-to-back runs through one pool, sizes around the chunk edges,
    // plus router::ForwardingPool's shape: one chunk of 1 per thread.
    struct Shape {
      std::size_t n, chunk;
    };
    for (int round = 0; round < 3; ++round) {
      for (const Shape shape :
           {Shape{0, kChunk}, Shape{1, kChunk}, Shape{kChunk - 1, kChunk},
            Shape{kChunk, kChunk}, Shape{kChunk + 1, kChunk},
            Shape{1000, kChunk}, Shape{threads, 1}}) {
        const std::size_t n = shape.n, chunk = shape.chunk;
        std::vector<std::atomic<unsigned>> visits(n);
        pool.run(n, chunk, [&](std::size_t slot, std::size_t begin,
                               std::size_t end) {
          EXPECT_LT(slot, threads);
          EXPECT_EQ(begin % chunk, 0u);
          EXPECT_LT(begin, end);
          EXPECT_LE(end - begin, chunk);
          EXPECT_LE(end, n);
          for (std::size_t i = begin; i < end && i < n; ++i)
            visits[i].fetch_add(1, std::memory_order_relaxed);
          std::lock_guard lock(mu);
          if (slot_thread[slot] == std::thread::id())
            slot_thread[slot] = std::this_thread::get_id();
          EXPECT_EQ(slot_thread[slot], std::this_thread::get_id())
              << "slot " << slot << " ran on two threads";
        });
        // run() returned, so every chunk has finished.
        for (std::size_t i = 0; i < n; ++i)
          EXPECT_EQ(visits[i].load(), 1u)
              << "index " << i << " of " << n << " at " << threads
              << " threads, round " << round;
      }
    }
    // The caller is slot 0 (it always claims at least the first chunk of
    // a 1-thread pool; with more threads it may lose every race, so only
    // a slot-0 chunk it did run is checked).
    if (slot_thread[0] != std::thread::id()) {
      EXPECT_EQ(slot_thread[0], caller);
    }
    if (threads == 1) {
      EXPECT_EQ(slot_thread[0], caller) << "1-thread pool ran off the caller";
    }
    for (std::size_t s = 1; s < threads; ++s)
      EXPECT_NE(slot_thread[s], caller) << "slot " << s;
  }
}

TEST(ChunkPool, SingleChunkRunsOnTheCaller) {
  // A paced issuance is a burst of one: its run has no chunk for a worker,
  // so the caller takes it as slot 0 and no worker is woken for it.
  const std::thread::id caller = std::this_thread::get_id();
  for (const std::size_t threads : {2u, 4u}) {
    ChunkPool pool(threads);
    for (int round = 0; round < 200; ++round) {
      for (const std::size_t n : {std::size_t{1}, std::size_t{16}}) {
        unsigned calls = 0;
        pool.run(n, 16, [&](std::size_t slot, std::size_t begin,
                            std::size_t end) {
          ++calls;
          EXPECT_EQ(slot, 0u);
          EXPECT_EQ(begin, 0u);
          EXPECT_EQ(end, n);
          EXPECT_EQ(std::this_thread::get_id(), caller);
        });
        EXPECT_EQ(calls, 1u) << "n=" << n << " threads=" << threads;
      }
    }
  }
}

TEST(ChunkPool, ZeroThreadsMeansOnePerHardwareThread) {
  const std::size_t want = ChunkPool::resolve(0);
  EXPECT_GE(want, 1u);
  ChunkPool pool(0);
  EXPECT_EQ(pool.threads(), want);
  EXPECT_EQ(ChunkPool::resolve(3), 3u);
}

// ---- Counters ------------------------------------------------------------------

struct Three {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

struct Narrow {  // two fields sharing one 64-bit word
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
};

struct Mixed {
  std::uint64_t n = 0;
  double d = 0;
};

static_assert(CounterSet<Three>);
static_assert(!CounterSet<Narrow>);
static_assert(!CounterSet<Mixed>);

std::array<std::uint64_t, 3> fields(const Three& s) { return {s.a, s.b, s.c}; }

template <std::uint64_t Three::*Field>
Three after_add(std::uint64_t n) {
  Counters<Three> c;
  c.add<Field>(n);
  return c.snapshot();
}

TEST(Counters, AddBumpsOnlyItsField) {
  using W = std::array<std::uint64_t, 3>;
  EXPECT_EQ(fields(Counters<Three>().snapshot()), (W{0, 0, 0}));
  EXPECT_EQ(fields(after_add<&Three::a>(3)), (W{3, 0, 0}));
  EXPECT_EQ(fields(after_add<&Three::b>(5)), (W{0, 5, 0}));
  EXPECT_EQ(fields(after_add<&Three::c>(7)), (W{0, 0, 7}));

  Counters<Three> c;
  c.add<&Three::b>();
  c.add<&Three::b>();
  c.add<&Three::c>(40);
  EXPECT_EQ(fields(c.snapshot()), (W{0, 2, 40}));
}

TEST(Counters, ConcurrentAddsSumExactly) {
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kIters = 100'000;
  Counters<Three> c;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&c, t] {
      for (std::uint64_t i = 0; i < kIters; ++i) {
        c.add<&Three::a>();
        c.add<&Three::b>(2);
        if (t % 2 == 0) c.add<&Three::c>();
      }
    });
  for (std::thread& th : threads) th.join();
  const Three s = c.snapshot();
  EXPECT_EQ(s.a, kThreads * kIters);
  EXPECT_EQ(s.b, 2 * kThreads * kIters);
  EXPECT_EQ(s.c, kThreads / 2 * kIters);
}

TEST(Counters, FieldWiseAddAndSub) {
  using W = std::array<std::uint64_t, 3>;
  Three sum{1, 2, 3};
  EXPECT_EQ(&add_fields(sum, Three{10, 20, 30}), &sum);
  EXPECT_EQ(fields(sum), (W{11, 22, 33}));
  EXPECT_EQ(&sub_fields(sum, Three{1, 20, 0}), &sum);
  EXPECT_EQ(fields(sum), (W{10, 2, 33}));
  // Deltas of monotone counters: later - earlier, field by field.
  Three later{100, 7, 33};
  sub_fields(later, sum);
  EXPECT_EQ(fields(later), (W{90, 5, 0}));
}

}  // namespace
}  // namespace apna::util
