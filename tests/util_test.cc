// Unit and property tests of the common utilities: Status/Result, binary
// codec, CRC32C, histogram percentiles, Welford statistics, windowed
// series, deterministic RNG, network model, and geo-fencing.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "actor/network.h"
#include "cattle/geofence.h"
#include "common/codec.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"

namespace aodb {
namespace {

// --- Status / Result ----------------------------------------------------------

TEST(StatusTest, CodesAndMessages) {
  EXPECT_TRUE(Status::OK().ok());
  Status nf = Status::NotFound("key xyz");
  EXPECT_FALSE(nf.ok());
  EXPECT_TRUE(nf.IsNotFound());
  EXPECT_EQ(nf.ToString(), "NotFound: key xyz");
  EXPECT_EQ(Status::OK().ToString(), "OK");
}

TEST(ResultTest, ValueAndErrorChannels) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  EXPECT_TRUE(ok.status().ok());
  Result<int> err(Status::Timeout("slow"));
  EXPECT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsTimeout());
  EXPECT_EQ(err.value_or(-1), -1);
  // Result<Status> treats Status as a value.
  Result<Status> carried(Status::Aborted("x"));
  EXPECT_TRUE(carried.ok());
  EXPECT_TRUE(carried.value().IsAborted());
  Result<Status> failed = Result<Status>::FromError(Status::Internal("y"));
  EXPECT_FALSE(failed.ok());
}

// --- Codec ---------------------------------------------------------------------

TEST(CodecTest, RoundTripAllTypes) {
  BufWriter w;
  w.PutU8(7);
  w.PutVarint(0);
  w.PutVarint(127);
  w.PutVarint(128);
  w.PutVarint(0xDEADBEEFCAFEULL);
  w.PutSigned(-1);
  w.PutSigned(123456789);
  w.PutDouble(3.14159);
  w.PutBool(true);
  w.PutString("hello \x00 world");
  BufReader r(w.data());
  uint8_t u8;
  uint64_t v;
  int64_t s;
  double d;
  bool b;
  std::string str;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  EXPECT_EQ(u8, 7);
  ASSERT_TRUE(r.GetVarint(&v).ok());
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(r.GetVarint(&v).ok());
  EXPECT_EQ(v, 127u);
  ASSERT_TRUE(r.GetVarint(&v).ok());
  EXPECT_EQ(v, 128u);
  ASSERT_TRUE(r.GetVarint(&v).ok());
  EXPECT_EQ(v, 0xDEADBEEFCAFEULL);
  ASSERT_TRUE(r.GetSigned(&s).ok());
  EXPECT_EQ(s, -1);
  ASSERT_TRUE(r.GetSigned(&s).ok());
  EXPECT_EQ(s, 123456789);
  ASSERT_TRUE(r.GetDouble(&d).ok());
  EXPECT_DOUBLE_EQ(d, 3.14159);
  ASSERT_TRUE(r.GetBool(&b).ok());
  EXPECT_TRUE(b);
  ASSERT_TRUE(r.GetString(&str).ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(CodecTest, TruncationIsCorruption) {
  BufWriter w;
  w.PutString("abcdef");
  std::string data = w.data().substr(0, 3);  // Cut mid-string.
  BufReader r(data);
  std::string out;
  EXPECT_TRUE(r.GetString(&out).IsCorruption());
  // Truncated varint likewise (continuation bit set, no next byte).
  std::string one_byte("\xff", 1);
  BufReader r2(one_byte);
  uint64_t v;
  EXPECT_TRUE(r2.GetVarint(&v).IsCorruption());
}

/// Property sweep: signed zigzag round-trips across magnitudes and signs.
class SignedRoundTrip : public ::testing::TestWithParam<int64_t> {};

TEST_P(SignedRoundTrip, RoundTrips) {
  BufWriter w;
  w.PutSigned(GetParam());
  BufReader r(w.data());
  int64_t out;
  ASSERT_TRUE(r.GetSigned(&out).ok());
  EXPECT_EQ(out, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, SignedRoundTrip,
                         ::testing::Values(0, 1, -1, 63, -64, 8191, -8192,
                                           1LL << 31, -(1LL << 31),
                                           (1LL << 62), -(1LL << 62)));

TEST(Crc32cTest, KnownVector) {
  // RFC 3720 test vector: CRC32C of 32 zero bytes.
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros), 0x8a9136aaU);
  // "123456789" -> 0xe3069283.
  EXPECT_EQ(Crc32c(std::string("123456789")), 0xe3069283U);
  EXPECT_NE(Crc32c(std::string("a")), Crc32c(std::string("b")));
}

namespace {

// The bytewise table form the slicing-by-8 implementation must match bit
// for bit (wire seals and log records on disk depend on it).
uint32_t ReferenceCrc32c(const uint8_t* p, size_t len) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82f63b78u : crc >> 1;
    }
    table[i] = crc;
  }
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

}  // namespace

TEST(Crc32cTest, MatchesBytewiseReferenceAtUnalignedOffsets) {
  std::vector<uint8_t> buf(1024 + 8);
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (auto& b : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<uint8_t>(x);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1024; ++len) {
      ASSERT_EQ(Crc32c(buf.data() + offset, len),
                ReferenceCrc32c(buf.data() + offset, len))
          << "offset " << offset << " len " << len;
    }
  }
}

// --- Histogram ------------------------------------------------------------------

TEST(HistogramTest, ExactBelowSubBucketRange) {
  Histogram h;
  for (int i = 1; i <= 10; ++i) h.Record(i);
  EXPECT_EQ(h.count(), 10);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 10);
  EXPECT_DOUBLE_EQ(h.Mean(), 5.5);
  EXPECT_EQ(h.Percentile(50), 5);
  EXPECT_EQ(h.Percentile(100), 10);
}

/// Property sweep: percentile estimates stay within the bucketing scheme's
/// relative-error bound across magnitudes.
class HistogramAccuracy : public ::testing::TestWithParam<int64_t> {};

TEST_P(HistogramAccuracy, BoundedRelativeError) {
  int64_t scale = GetParam();
  Histogram h;
  Rng rng(99);
  std::vector<int64_t> values;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = static_cast<int64_t>(rng.Uniform(0, 1) * scale);
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (double p : {50.0, 90.0, 99.0}) {
    int64_t exact = values[static_cast<size_t>(p / 100 * (values.size() - 1))];
    int64_t est = h.Percentile(p);
    double err = std::fabs(static_cast<double>(est - exact)) /
                 std::max<double>(1.0, static_cast<double>(exact));
    EXPECT_LT(err, 0.05) << "p" << p << " scale " << scale << " exact "
                         << exact << " est " << est;
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, HistogramAccuracy,
                         ::testing::Values(100, 10000, 1000000, 100000000));

TEST(HistogramTest, MergeEqualsCombinedRecording) {
  Histogram a, b, combined;
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = static_cast<int64_t>(rng.NextBelow(100000));
    if (i % 2 == 0) {
      a.Record(v);
    } else {
      b.Record(v);
    }
    combined.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.max(), combined.max());
  EXPECT_EQ(a.Percentile(99), combined.Percentile(99));
  EXPECT_DOUBLE_EQ(a.Mean(), combined.Mean());
}

TEST(HistogramTest, EmptyAndNegative) {
  Histogram h;
  EXPECT_EQ(h.Percentile(99), 0);
  EXPECT_EQ(h.min(), 0);
  h.Record(-5);  // Clamped to zero.
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.count(), 1);
}

// --- Welford / WindowedSeries ----------------------------------------------------

TEST(WelfordTest, MatchesDirectComputation) {
  Welford w;
  std::vector<double> xs = {1, 2, 3, 4, 5, 100, -7};
  double sum = 0;
  for (double x : xs) {
    w.Add(x);
    sum += x;
  }
  double mean = sum / xs.size();
  double var = 0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= xs.size();
  EXPECT_DOUBLE_EQ(w.mean(), mean);
  EXPECT_NEAR(w.Variance(), var, 1e-9);
  EXPECT_EQ(w.count(), static_cast<int64_t>(xs.size()));
  EXPECT_EQ(w.min(), -7);
  EXPECT_EQ(w.max(), 100);
}

TEST(WelfordTest, MergeIsEquivalentToSequential) {
  Rng rng(11);
  Welford a, b, all;
  for (int i = 0; i < 500; ++i) {
    double x = rng.Normal(10, 3);
    (i < 200 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.Variance(), all.Variance(), 1e-6);
}

TEST(WindowedSeriesTest, SplitsByTimestampAndDropsEdges) {
  WindowedSeries series(kMicrosPerSecond);
  for (int w = 0; w < 5; ++w) {
    for (int i = 0; i < 10; ++i) {
      series.Add(w * kMicrosPerSecond + i * 1000, static_cast<double>(w));
    }
  }
  auto windows = series.Windows();
  ASSERT_EQ(windows.size(), 5u);
  EXPECT_EQ(windows[2].agg.count(), 10);
  EXPECT_DOUBLE_EQ(windows[2].agg.mean(), 2.0);
  auto interior = series.InteriorWindows();
  ASSERT_EQ(interior.size(), 3u);
  EXPECT_DOUBLE_EQ(interior.front().agg.mean(), 1.0);
  EXPECT_DOUBLE_EQ(interior.back().agg.mean(), 3.0);
}

// --- Rng ------------------------------------------------------------------------

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.NextU64();
    EXPECT_EQ(va, b.NextU64());
  }
  EXPECT_NE(a.NextU64(), c.NextU64());
}

TEST(RngTest, DistributionsAreSane) {
  Rng rng(7);
  Welford uni, expo, norm;
  for (int i = 0; i < 20000; ++i) {
    uni.Add(rng.Uniform(0, 10));
    expo.Add(rng.Exponential(5.0));
    norm.Add(rng.Normal(100, 15));
  }
  EXPECT_NEAR(uni.mean(), 5.0, 0.1);
  EXPECT_NEAR(expo.mean(), 5.0, 0.2);
  EXPECT_NEAR(norm.mean(), 100.0, 0.5);
  EXPECT_NEAR(norm.StdDev(), 15.0, 0.5);
}

// --- NetworkModel ------------------------------------------------------------------

TEST(NetworkModelTest, LocalIsFreeRemotePaysLatency) {
  NetworkOptions opts;
  opts.silo_latency_us = 500;
  opts.client_latency_us = 300;
  opts.jitter_us = 0;
  NetworkModel net(opts, 1);
  EXPECT_EQ(net.Delay(0, 0, 1000), 0);
  EXPECT_EQ(net.Delay(0, 1, 0), 500);
  EXPECT_EQ(net.Delay(kClientSiloId, 0, 0), 300);
  // Transfer time: 1 MB at 1000 B/us = 1000 us extra.
  EXPECT_EQ(net.Delay(0, 1, 1000000), 1500);
}

TEST(NetworkModelTest, FifoPerChannelNeverReorders) {
  NetworkOptions opts;
  opts.jitter_us = 400;
  NetworkModel net(opts, 7);
  Micros now = 0;
  Micros last_arrival = 0;
  for (int i = 0; i < 200; ++i) {
    now += 10;  // Sends every 10us; jitter alone would reorder them.
    Micros arrival = net.FifoArrival(0, 1, 100, now);
    EXPECT_GT(arrival, last_arrival) << "FIFO violated at message " << i;
    last_arrival = arrival;
  }
  // Independent channels are not serialized against each other.
  EXPECT_LT(net.FifoArrival(1, 0, 100, now) - now,
            opts.silo_latency_us + opts.jitter_us + 1);
}

// --- GeoFence ------------------------------------------------------------------------

TEST(GeoFenceTest, RectangleContainment) {
  cattle::GeoFence fence =
      cattle::GeoFence::Rectangle(55.0, 12.0, 55.1, 12.1);
  EXPECT_TRUE(fence.Contains(cattle::GeoPoint{55.05, 12.05}));
  EXPECT_FALSE(fence.Contains(cattle::GeoPoint{55.2, 12.05}));
  EXPECT_FALSE(fence.Contains(cattle::GeoPoint{55.05, 12.2}));
  EXPECT_FALSE(fence.Contains(cattle::GeoPoint{54.9, 11.9}));
}

TEST(GeoFenceTest, EmptyFenceContainsEverything) {
  cattle::GeoFence fence;
  EXPECT_TRUE(fence.Contains(cattle::GeoPoint{0, 0}));
  EXPECT_TRUE(fence.Contains(cattle::GeoPoint{90, 180}));
}

TEST(GeoFenceTest, ConcavePolygon) {
  // A "U"-shaped fence: the notch is outside.
  cattle::GeoFence fence;
  fence.vertices = {
      cattle::GeoPoint{0, 0}, cattle::GeoPoint{0, 10},
      cattle::GeoPoint{10, 10}, cattle::GeoPoint{10, 6},
      cattle::GeoPoint{2, 6},  cattle::GeoPoint{2, 4},
      cattle::GeoPoint{10, 4}, cattle::GeoPoint{10, 0},
  };
  EXPECT_TRUE(fence.Contains(cattle::GeoPoint{1, 5}));    // Base of the U.
  EXPECT_FALSE(fence.Contains(cattle::GeoPoint{5, 5}));   // Inside the notch.
  EXPECT_TRUE(fence.Contains(cattle::GeoPoint{5, 8}));    // Upper arm.
  EXPECT_TRUE(fence.Contains(cattle::GeoPoint{5, 2}));    // Lower arm.
}

/// Property sweep: points strictly inside / outside a convex polygon are
/// classified correctly at several scales.
class GeoFenceScale : public ::testing::TestWithParam<double> {};

TEST_P(GeoFenceScale, ScaledSquare) {
  double s = GetParam();
  cattle::GeoFence fence = cattle::GeoFence::Rectangle(-s, -s, s, s);
  Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    double lat = rng.Uniform(-0.99 * s, 0.99 * s);
    double lon = rng.Uniform(-0.99 * s, 0.99 * s);
    EXPECT_TRUE(fence.Contains(cattle::GeoPoint{lat, lon}));
    EXPECT_FALSE(fence.Contains(cattle::GeoPoint{lat + 2 * s, lon}));
    EXPECT_FALSE(fence.Contains(cattle::GeoPoint{lat, lon - 2.5 * s}));
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, GeoFenceScale,
                         ::testing::Values(0.001, 0.1, 1.0, 45.0));

}  // namespace
}  // namespace aodb
