#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/bloom_filter.hpp"
#include "util/fixed_point.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/status.hpp"
#include "util/string_util.hpp"
#include "util/table_printer.hpp"
#include "util/task_pool.hpp"

namespace kspot::util {
namespace {

// ---------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextU64() == b.NextU64();
  EXPECT_LT(same, 2);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedCoversAllResidues) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBounded(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyCorrect) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.NextGaussian(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(19);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, SplitStreamsAreIndependentAndDeterministic) {
  Rng base(31);
  Rng s1 = base.Split(1);
  Rng s2 = base.Split(2);
  Rng base2(31);
  Rng s1_again = base2.Split(1);
  EXPECT_EQ(s1.NextU64(), s1_again.NextU64());
  int same = 0;
  for (int i = 0; i < 64; ++i) same += s1.NextU64() == s2.NextU64();
  EXPECT_LT(same, 2);
}

// Pins the exact Split substream outputs. FaultPlan's per-node fault
// processes and ChurnEngine's per-epoch repair streams are Split children, so
// a silent change to the Split mixing function would invalidate every pinned
// churn golden digest — this test makes such a change loud.
TEST(RngTest, SplitGoldenVectors) {
  const uint64_t kExpected[4][8] = {
      {0xb344268a3ee87fbbULL, 0x9ad19b3ad4179cbcULL, 0xdb5068320b93fe90ULL, 0xfe5b252d327f601fULL,
       0xb8facdab40c09031ULL, 0x6ca9ed4122dfc776ULL, 0xc500f01023d7823cULL, 0xa5f36db321f877e9ULL},
      {0xfc67cd9e385300c3ULL, 0xc44c078a7e2c7cf6ULL, 0xf7a972ad67837bd5ULL, 0x7068187316be52e9ULL,
       0x458d56ead6e1f301ULL, 0x58a495e40a205888ULL, 0xa6b6fbb37891d0edULL, 0x6e04e4ef08af5138ULL},
      {0xff20afb2f1f90d7fULL, 0x6854a8ec7f77bfcfULL, 0x3829a8c235528363ULL, 0x69958e89b47d42a5ULL,
       0x4643d0f1aacd6800ULL, 0x912bf01cab7188b4ULL, 0x956fd32112f58270ULL, 0xd70a9737411b27c6ULL},
      {0xf42b81c14b09403dULL, 0x4a806c0bd6e0a956ULL, 0xd19e5e3a07c01522ULL, 0x2d2b5df7acc75ec6ULL,
       0x416831a80fcc88c0ULL, 0x57c1f8ae0c07a08eULL, 0x4be78e90f0b0817aULL, 0x76f2546e0ed7886fULL},
  };
  Rng base(0x5EED);
  for (uint64_t stream = 0; stream < 4; ++stream) {
    Rng child = base.Split(stream);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(child.NextU64(), kExpected[stream][i])
          << "stream " << stream << " draw " << i;
    }
  }
  // Split is const: after deriving 4 children the parent's own sequence is
  // untouched — its next draw equals a fresh generator's first draw.
  Rng fresh(0x5EED);
  EXPECT_EQ(base.NextU64(), fresh.NextU64());
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(37);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

// -------------------------------------------------------------------- Bloom

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter bf = BloomFilter::WithExpectedItems(100, 0.01);
  for (uint64_t k = 0; k < 100; ++k) bf.Insert(k * 977 + 3);
  for (uint64_t k = 0; k < 100; ++k) EXPECT_TRUE(bf.MayContain(k * 977 + 3));
}

TEST(BloomFilterTest, FalsePositiveRateNearTarget) {
  BloomFilter bf = BloomFilter::WithExpectedItems(500, 0.02);
  for (uint64_t k = 0; k < 500; ++k) bf.Insert(k);
  int fps = 0;
  const int probes = 20000;
  for (int i = 0; i < probes; ++i) {
    fps += bf.MayContain(1'000'000 + static_cast<uint64_t>(i));
  }
  double rate = static_cast<double>(fps) / probes;
  EXPECT_LT(rate, 0.06);  // target 0.02 with generous slack
}

TEST(BloomFilterTest, SerializeRoundTrip) {
  BloomFilter bf = BloomFilter::WithExpectedItems(64, 0.05);
  for (uint64_t k = 0; k < 64; ++k) bf.Insert(k * k + 1);
  std::vector<uint8_t> bytes;
  bf.Serialize(bytes);
  EXPECT_EQ(bytes.size(), bf.WireSizeBytes());
  BloomFilter parsed(64, 1);
  ASSERT_EQ(BloomFilter::Deserialize(bytes.data(), bytes.size(), &parsed), bytes.size());
  for (uint64_t k = 0; k < 64; ++k) EXPECT_TRUE(parsed.MayContain(k * k + 1));
  EXPECT_EQ(parsed.num_bits(), bf.num_bits());
  EXPECT_EQ(parsed.num_hashes(), bf.num_hashes());
}

TEST(BloomFilterTest, DeserializeRejectsMalformed) {
  BloomFilter out(64, 1);
  std::vector<uint8_t> junk = {1, 2, 3};
  EXPECT_EQ(BloomFilter::Deserialize(junk.data(), junk.size(), &out), 0u);
  // Truncated body.
  BloomFilter bf(128, 3);
  std::vector<uint8_t> bytes;
  bf.Serialize(bytes);
  EXPECT_EQ(BloomFilter::Deserialize(bytes.data(), bytes.size() - 1, &out), 0u);
}

TEST(BloomFilterTest, EstimatedFpRateMonotoneInLoad) {
  BloomFilter bf(1024, 4);
  EXPECT_LT(bf.EstimatedFpRate(10), bf.EstimatedFpRate(1000));
}

// -------------------------------------------------------------------- Stats

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  RunningStats all, left, right;
  Rng rng(41);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextGaussian(3, 2);
    all.Add(v);
    (i % 2 ? left : right).Add(v);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(PercentilesTest, QuantilesOfKnownSequence) {
  Percentiles p;
  for (int i = 1; i <= 100; ++i) p.Add(i);
  EXPECT_DOUBLE_EQ(p.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.Quantile(1.0), 100.0);
  EXPECT_NEAR(p.Quantile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(p.Quantile(0.95), 95.05, 0.2);
}

TEST(PercentilesTest, EmptyReturnsZero) {
  Percentiles p;
  EXPECT_EQ(p.Quantile(0.5), 0.0);
  DistSummary s = p.Summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.p99, 0.0);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(PercentilesTest, SingleSampleIsEveryQuantile) {
  Percentiles p;
  p.Add(7.5);
  EXPECT_DOUBLE_EQ(p.Quantile(0.0), 7.5);
  EXPECT_DOUBLE_EQ(p.Quantile(0.5), 7.5);
  EXPECT_DOUBLE_EQ(p.Quantile(1.0), 7.5);
  DistSummary s = p.Summary();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.p50, 7.5);
  EXPECT_DOUBLE_EQ(s.p95, 7.5);
  EXPECT_DOUBLE_EQ(s.p99, 7.5);
}

TEST(PercentilesTest, TwoSamplesInterpolate) {
  Percentiles p;
  p.Add(10.0);
  p.Add(20.0);
  EXPECT_DOUBLE_EQ(p.Quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(p.Quantile(0.5), 15.0);
  EXPECT_DOUBLE_EQ(p.Quantile(1.0), 20.0);
}

TEST(PercentilesTest, ExactBoundaryRanksAreNotInterpolated) {
  // With 5 samples the ranks for q in {0, .25, .5, .75, 1} land exactly on
  // elements; the quantile must return them directly (no 1-ulp smearing).
  std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0, 5.0};
  for (size_t i = 0; i < sorted.size(); ++i) {
    double q = static_cast<double>(i) / 4.0;
    EXPECT_DOUBLE_EQ(SortedQuantile(sorted, q), sorted[i]) << "q=" << q;
  }
  // Out-of-range q clamps instead of indexing out.
  EXPECT_DOUBLE_EQ(SortedQuantile(sorted, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(SortedQuantile(sorted, 1.5), 5.0);
  EXPECT_EQ(SortedQuantile({}, 0.5), 0.0);
}

TEST(PercentilesTest, AddAfterQuantileResorts) {
  // Regression: Add() must invalidate the sorted cache, or quantiles after
  // an interleaved Add are computed over partially unsorted data.
  Percentiles p;
  p.Add(50.0);
  p.Add(10.0);
  EXPECT_DOUBLE_EQ(p.Quantile(0.0), 10.0);  // forces the sort
  p.Add(1.0);
  EXPECT_DOUBLE_EQ(p.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.Quantile(1.0), 50.0);
}

TEST(PercentilesTest, SummaryMatchesDirectQuantiles) {
  Percentiles p;
  for (int i = 100; i >= 1; --i) p.Add(i);
  DistSummary s = p.Summary();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.mean, 50.5, 1e-9);
  EXPECT_DOUBLE_EQ(s.p50, p.Quantile(0.50));
  EXPECT_DOUBLE_EQ(s.p95, p.Quantile(0.95));
  EXPECT_DOUBLE_EQ(s.p99, p.Quantile(0.99));
}

// ------------------------------------------------------------------- String

TEST(StringUtilTest, TrimAndSplit) {
  EXPECT_EQ(Trim("  hello\t "), "hello");
  EXPECT_EQ(Trim(""), "");
  auto parts = Split(" a, b ,c ", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, CaseHelpers) {
  EXPECT_EQ(ToUpper("SeLeCt"), "SELECT");
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_TRUE(EqualsIgnoreCase("AVG", "avg"));
  EXPECT_FALSE(EqualsIgnoreCase("AVG", "av"));
  EXPECT_TRUE(StartsWith("roomid", "room"));
  EXPECT_FALSE(StartsWith("room", "roomid"));
}

TEST(StringUtilTest, Formatting) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.00 KiB");
}

// -------------------------------------------------------------- Fixed point

TEST(FixedPointTest, RoundTripOnGrid) {
  for (double v : {0.0, 1.0, -1.0, 75.5, 99.99609375, -20.25}) {
    double q = fixed_point::Quantize(v);
    EXPECT_DOUBLE_EQ(fixed_point::Decode(fixed_point::Encode(q)), q);
  }
}

TEST(FixedPointTest, QuantizationErrorBounded) {
  Rng rng(43);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble(-100, 100);
    EXPECT_NEAR(fixed_point::Quantize(v), v, 1.0 / 256.0);
  }
}

// ------------------------------------------------------------------- Status

TEST(StatusTest, OkAndError) {
  EXPECT_TRUE(Status::Ok().ok());
  Status e = Status::Error("boom");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.message(), "boom");
}

TEST(StatusOrTest, HoldsValueOrStatus) {
  StatusOr<int> v(42);
  EXPECT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  StatusOr<int> e(Status::Error("nope"));
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().message(), "nope");
}

// -------------------------------------------------------------------- Table

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow(std::vector<std::string>{"alpha", "1"});
  t.AddRow(std::vector<std::string>{"b", "23456"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("23456"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("---"), std::string::npos);
}

// ----------------------------------------------------------------- TaskPool

TEST(TaskPoolTest, RunsEveryIndexExactlyOnce) {
  TaskPool pool(4);
  constexpr size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.ParallelFor(kCount, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(TaskPoolTest, ZeroCountIsANoop) {
  TaskPool pool(4);
  pool.ParallelFor(0, [&](size_t) { FAIL() << "fn must not run for count 0"; });
}

TEST(TaskPoolTest, PoolOfOneRunsInlineOnCaller) {
  TaskPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::thread::id caller = std::this_thread::get_id();
  pool.ParallelFor(16, [&](size_t) { EXPECT_EQ(std::this_thread::get_id(), caller); });
}

TEST(TaskPoolTest, ExceptionPropagatesToCaller) {
  TaskPool pool(4);
  EXPECT_THROW(pool.ParallelFor(64,
                                [&](size_t i) {
                                  if (i == 13) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The pool survives a throwing job and serves the next one.
  std::atomic<size_t> count{0};
  pool.ParallelFor(64, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 64u);
}

TEST(TaskPoolTest, ReusableAcrossManyJobs) {
  TaskPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(10, [&](size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 45u);
  }
}

}  // namespace
}  // namespace kspot::util
