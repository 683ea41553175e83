// Unit tests for campuslab::util — Result/Status, RNG determinism and
// distribution sanity, byte reader/writer round-trips and bounds
// behaviour, time arithmetic, and streaming statistics.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <set>
#include <span>
#include <string_view>
#include <thread>
#include <vector>

#include "campuslab/util/bytes.h"
#include "campuslab/util/hash.h"
#include "campuslab/util/result.h"
#include "campuslab/util/rng.h"
#include "campuslab/util/stats.h"
#include "campuslab/util/time.h"
#include "campuslab/util/work_pool.h"

namespace campuslab {
namespace {

// ---------------------------------------------------------------- Result

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(Result, HoldsError) {
  Result<int> r = Error::make("not_found", "missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "not_found");
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(Result, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  auto p = std::move(r).value();
  EXPECT_EQ(*p, 5);
}

TEST(Status, DefaultIsSuccess) {
  Status s;
  EXPECT_TRUE(s.ok());
}

TEST(Status, CarriesError) {
  Status s = Error::make("full", "ring full");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, "full");
}

// ------------------------------------------------------------------- RNG

TEST(Rng, DeterministicForSameSeed) {
  Rng a(1234), b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(7);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, BetweenInclusive) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.between(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMean) {
  Rng rng(21);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(Rng, NormalMoments) {
  Rng rng(22);
  RunningStats st;
  for (int i = 0; i < 200000; ++i) st.add(rng.normal(10.0, 3.0));
  EXPECT_NEAR(st.mean(), 10.0, 0.05);
  EXPECT_NEAR(st.stddev(), 3.0, 0.05);
}

TEST(Rng, ParetoLowerBound) {
  Rng rng(23);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.pareto(100.0, 1.2), 100.0);
}

TEST(Rng, ForkIndependent) {
  Rng parent(42);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (c1.next() == c2.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

// ----------------------------------------------------------------- Bytes

TEST(Bytes, WriterReaderRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  const std::array<std::uint8_t, 3> tail{1, 2, 3};
  w.bytes(tail);

  ByteReader r(w.view());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  const auto got = r.bytes(3);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[2], 3);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bytes, BigEndianLayout) {
  ByteWriter w;
  w.u16(0x0102);
  EXPECT_EQ(w.view()[0], 0x01);
  EXPECT_EQ(w.view()[1], 0x02);
}

TEST(Bytes, ReaderTruncationSticky) {
  const std::array<std::uint8_t, 3> buf{1, 2, 3};
  ByteReader r(buf);
  EXPECT_EQ(r.u16(), 0x0102);
  EXPECT_EQ(r.u32(), 0u);  // only 1 byte left
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0u);  // still failing after the first violation
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bytes, ReaderSkipAndRest) {
  const std::array<std::uint8_t, 5> buf{10, 20, 30, 40, 50};
  ByteReader r(buf);
  r.skip(2);
  const auto rest = r.rest();
  ASSERT_EQ(rest.size(), 3u);
  EXPECT_EQ(rest[0], 30);
}

TEST(Bytes, PatchU16) {
  ByteWriter w;
  w.u16(0);
  w.u32(0x11223344);
  w.patch_u16(0, 0xBEEF);
  ByteReader r(w.view());
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0x11223344u);
}

TEST(Bytes, ZerosFill) {
  ByteWriter w;
  w.zeros(4);
  EXPECT_EQ(w.size(), 4u);
  for (auto b : w.view()) EXPECT_EQ(b, 0);
}

// ------------------------------------------------------------------ Time

TEST(Time, DurationFactoriesAgree) {
  EXPECT_EQ(Duration::seconds(1), Duration::millis(1000));
  EXPECT_EQ(Duration::millis(1), Duration::micros(1000));
  EXPECT_EQ(Duration::micros(1), Duration::nanos(1000));
  EXPECT_EQ(Duration::minutes(2), Duration::seconds(120));
  EXPECT_EQ(Duration::hours(1), Duration::minutes(60));
}

TEST(Time, ArithmeticAndComparison) {
  const Timestamp t0 = Timestamp::epoch();
  const Timestamp t1 = t0 + Duration::seconds(5);
  EXPECT_GT(t1, t0);
  EXPECT_EQ(t1 - t0, Duration::seconds(5));
  EXPECT_EQ((t1 - Duration::seconds(5)), t0);
}

TEST(Time, FractionalSeconds) {
  const auto d = Duration::from_seconds(0.25);
  EXPECT_DOUBLE_EQ(d.to_seconds(), 0.25);
  EXPECT_EQ(d.count_nanos(), 250'000'000);
}

// ----------------------------------------------------------------- Stats

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(77);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Histogram, CountsAndOverflow) {
  Histogram h(0.0, 10.0, 10);
  h.add(-1.0);
  h.add(0.5);
  h.add(9.99);
  h.add(10.0);
  h.add(25.0);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[9], 1u);
}

TEST(Histogram, QuantileOfUniformData) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 1.5);
  EXPECT_NEAR(h.quantile(0.0), 0.5, 1.0);
}

TEST(Histogram, EmptyQuantileIsZero) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(EntropyCounter, UniformIsMaximal) {
  EntropyCounter e;
  for (std::uint64_t k = 0; k < 8; ++k) e.add(k, 10);
  EXPECT_NEAR(e.entropy(), 3.0, 1e-12);
  EXPECT_NEAR(e.normalized_entropy(), 1.0, 1e-12);
}

TEST(EntropyCounter, SingleKeyIsZero) {
  EntropyCounter e;
  e.add(42, 1000);
  EXPECT_EQ(e.entropy(), 0.0);
  EXPECT_EQ(e.normalized_entropy(), 0.0);
}

TEST(EntropyCounter, SkewLowersEntropy) {
  EntropyCounter uniform, skewed;
  for (std::uint64_t k = 0; k < 4; ++k) uniform.add(k, 25);
  skewed.add(0, 97);
  for (std::uint64_t k = 1; k < 4; ++k) skewed.add(k, 1);
  EXPECT_LT(skewed.entropy(), uniform.entropy());
}

TEST(EntropyCounter, DistinctAndTotal) {
  EntropyCounter e;
  e.add(1);
  e.add(1);
  e.add(2, 3);
  EXPECT_EQ(e.distinct(), 2u);
  EXPECT_EQ(e.total(), 5u);
}

// ----------------------------------------------------------------- hash

// Reference vectors from the FNV-1a specification (64-bit). The
// segment-file checksums and every other byte-exact user depend on
// these constants; a drift here corrupts on-disk compatibility.
TEST(Fnv1a, ReferenceVectors) {
  EXPECT_EQ(util::fnv1a(std::string_view{}), util::kFnvOffsetBasis);
  EXPECT_EQ(util::fnv1a(std::string_view{"a"}), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(util::fnv1a(std::string_view{"foobar"}), 0x85944171f73967e8ULL);
}

TEST(Fnv1a, SpanAndStringAgree) {
  const std::string_view s = "campuslab";
  std::vector<std::uint8_t> bytes(s.begin(), s.end());
  EXPECT_EQ(util::fnv1a(std::span<const std::uint8_t>(bytes)),
            util::fnv1a(s));
}

TEST(Fnv1a, StepFoldsWholeWordsNotBytes) {
  // fnv1a_step is the spreader's historical whole-word fold — one
  // (h ^ v) * prime per 64-bit value — NOT byte-at-a-time FNV over the
  // word. Pin both the semantics and the compat basis the spreader
  // ships with.
  const std::uint64_t v = 0x0102030405060708ULL;
  EXPECT_EQ(util::fnv1a_step(util::kFnvCompatBasis, v),
            (util::kFnvCompatBasis ^ v) * util::kFnvPrime);
  EXPECT_EQ(util::kFnvCompatBasis, 1469598103934665603ULL);
  // The compat basis is the standard basis with its last decimal
  // digit dropped (the historical typo, kept bit-stable).
  EXPECT_EQ(util::kFnvCompatBasis, util::kFnvOffsetBasis / 10);
}

TEST(Mix64, AvalanchesHighBits) {
  // The finalizer exists because short-input FNV barely moves the top
  // bits: consecutive inputs must land in different 2^56-wide buckets
  // once mixed (this is what keeps hash-ring vnode points spread).
  std::set<std::uint64_t> top_bytes;
  for (std::uint64_t v = 0; v < 64; ++v)
    top_bytes.insert(util::mix64(v) >> 56);
  EXPECT_GT(top_bytes.size(), 32u);
  EXPECT_EQ(util::mix64(12345), util::mix64(12345));
  EXPECT_NE(util::mix64(12345), util::mix64(12346));
}

// -------------------------------------------------------------- WorkPool

TEST(WorkPool, RunsEveryIndexExactlyOnce) {
  util::WorkPool pool(4);
  ASSERT_EQ(pool.threads(), 4u);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "no index to run"; });
}

TEST(WorkPool, OneThreadRunsInOrderOnTheCaller) {
  util::WorkPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallel_for(5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(WorkPool, NestedParallelForRunsInlineWithoutDeadlock) {
  util::WorkPool pool(4);
  std::vector<std::atomic<int>> hits(8 * 16);
  std::atomic<int> strays{0};
  pool.parallel_for(8, [&](std::size_t outer) {
    const auto me = std::this_thread::get_id();
    // Every worker is busy with the outer job: a nested fan-out that
    // waited for them would never finish.
    pool.parallel_for(16, [&](std::size_t inner) {
      if (std::this_thread::get_id() != me) ++strays;
      ++hits[outer * 16 + inner];
    });
    // Another pool's fan-out from inside a task runs inline too.
    util::WorkPool::shared().parallel_for(4, [&](std::size_t) {
      if (std::this_thread::get_id() != me) ++strays;
    });
  });
  EXPECT_EQ(strays.load(), 0);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkPool, SlotsAreHeldByOneTaskAtATime) {
  util::WorkPool pool(4);
  constexpr std::size_t kSlots = 3;
  std::array<std::atomic<bool>, kSlots> busy{};
  std::vector<std::atomic<int>> hits(2000);
  std::atomic<int> overlaps{0};
  pool.parallel_for_slots(hits.size(), kSlots,
                          [&](std::size_t slot, std::size_t i) {
                            ASSERT_LT(slot, kSlots);
                            if (busy[slot].exchange(true)) ++overlaps;
                            ++hits[i];
                            busy[slot].store(false);
                          });
  EXPECT_EQ(overlaps.load(), 0);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkPool, ConcurrentCallersTakeTurns) {
  util::WorkPool pool(3);
  std::atomic<std::uint64_t> total{0};
  const auto caller = [&] {
    for (int round = 0; round < 50; ++round)
      pool.parallel_for(64, [&](std::size_t i) { total += i; });
  };
  std::thread a(caller), b(caller);
  a.join();
  b.join();
  EXPECT_EQ(total.load(), 2u * 50u * (63u * 64u / 2u));
}

TEST(WorkPool, SharedIsOnePoolSizedToTheHost) {
  auto& pool = util::WorkPool::shared();
  EXPECT_EQ(&pool, &util::WorkPool::shared());
  EXPECT_EQ(pool.threads(),
            std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace
}  // namespace campuslab
