// Real two-thread stress tests for SpscRing and the capture engine's
// live-sampled stats — the concurrency harness for the sharded capture
// pipeline. Run these under -fsanitize=thread (CAMPUSLAB_SANITIZE) to
// verify the memory-ordering story, not just the happy path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "campuslab/capture/sharded_engine.h"
#include "campuslab/capture/spsc_ring.h"
#include "campuslab/packet/builder.h"

namespace campuslab::capture {
namespace {

constexpr std::uint64_t kOps = 1'000'000;

/// Move-only payload: the ring must never copy it, and a lost or
/// duplicated item shows up as a null/dangling pointer or a bad value.
using Payload = std::unique_ptr<std::uint64_t>;

// Producer retries until accepted: every op arrives exactly once, in
// FIFO order, across real threads.
TEST(SpscRingConcurrency, MoveOnlyFifoNoLossWithRetry) {
  SpscRing<Payload> ring(1024);
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kOps;) {
      auto item = std::make_unique<std::uint64_t>(i);
      if (ring.try_push(std::move(item))) ++i;
      // On failure the ring leaves `value` untouched, but `item` dies
      // here anyway; rebuilding it per attempt keeps the loop simple.
    }
  });

  std::uint64_t expected = 0;
  Payload out;
  while (expected < kOps) {
    if (ring.try_pop(out)) {
      ASSERT_TRUE(out != nullptr);
      ASSERT_EQ(*out, expected) << "FIFO order violated";
      ++expected;
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.try_pop(out));
}

// Producer drops on failure (the capture engine's policy): the
// consumer-observed gap must exactly equal the producer's try_push
// failure count — losses are accounted, never silent.
TEST(SpscRingConcurrency, PushFailuresExactlyMatchConsumerGap) {
  SpscRing<Payload> ring(256);
  std::atomic<bool> done{false};
  std::uint64_t push_failures = 0;

  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kOps; ++i) {
      auto item = std::make_unique<std::uint64_t>(i);
      if (!ring.try_push(std::move(item))) ++push_failures;
    }
    done.store(true, std::memory_order_release);
  });

  std::uint64_t consumed = 0;
  std::uint64_t last_seen = 0;
  bool any = false;
  Payload out;
  for (;;) {
    if (ring.try_pop(out)) {
      ASSERT_TRUE(out != nullptr);
      if (any) {
        ASSERT_GT(*out, last_seen)
            << "sequence went backwards: duplication or reordering";
      }
      last_seen = *out;
      any = true;
      ++consumed;
    } else if (done.load(std::memory_order_acquire) && ring.empty()) {
      break;
    }
  }
  producer.join();

  // Every op either reached the consumer or failed to push — exactly.
  EXPECT_EQ(consumed + push_failures, kOps);
  EXPECT_GT(consumed, 0u);
}

// ShardedCaptureEngine::stats() is safe to sample from a third thread
// while a producer and a consumer thread run on one shard (polled
// without start()), and every live snapshot satisfies
// consumed <= offered and accepted + dropped <= offered, with all
// counters monotone. Exact equalities hold after quiescence.
TEST(ShardedCaptureEngineConcurrency, LiveStatsSnapshotInvariants) {
  ShardedCaptureEngine engine({.shards = 1, .ring_capacity = 512});
  std::uint64_t sink_count = 0;
  engine.add_sink_factory([&](std::size_t) {
    return [&](const DecodedPacket&) { ++sink_count; };
  });

  const auto pkt =
      packet::PacketBuilder(Timestamp::from_nanos(1))
          .udp(packet::Endpoint{packet::MacAddress::from_id(1),
                                packet::Ipv4Address(10, 0, 0, 1), 1111},
               packet::Endpoint{packet::MacAddress::from_id(2),
                                packet::Ipv4Address(10, 0, 0, 2), 53})
          .payload_size(32)
          .build();

  constexpr std::uint64_t kPackets = 300'000;
  std::atomic<bool> producer_done{false};
  std::atomic<bool> consumer_done{false};

  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kPackets; ++i)
      engine.offer(pkt, sim::Direction::kInbound);
    producer_done.store(true, std::memory_order_release);
  });
  std::thread consumer([&] {
    while (!producer_done.load(std::memory_order_acquire))
      engine.poll_shard(0, 128);
    engine.drain();
    consumer_done.store(true, std::memory_order_release);
  });

  CaptureStats prev;
  std::uint64_t samples = 0;
  while (!consumer_done.load(std::memory_order_acquire)) {
    const auto s = engine.stats();
    ++samples;
    ASSERT_LE(s.consumed, s.offered);
    ASSERT_LE(s.accepted + s.dropped, s.offered);
    ASSERT_LE(s.dropped_bytes, s.offered_bytes);
    // Monotone between samples (single sampler thread).
    ASSERT_GE(s.offered, prev.offered);
    ASSERT_GE(s.accepted, prev.accepted);
    ASSERT_GE(s.dropped, prev.dropped);
    ASSERT_GE(s.consumed, prev.consumed);
    prev = s;
  }
  producer.join();
  consumer.join();
  EXPECT_GT(samples, 0u);

  const auto end = engine.stats();
  EXPECT_EQ(end.offered, kPackets);
  EXPECT_EQ(end.offered, end.accepted + end.dropped);
  EXPECT_EQ(end.consumed, end.accepted);
  EXPECT_EQ(sink_count, end.consumed);
}

}  // namespace
}  // namespace campuslab::capture
