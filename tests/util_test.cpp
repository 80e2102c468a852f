// Unit tests for src/util: ids, rng, time, stats, codec, log.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "util/codec.h"
#include "util/ids.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/sim_time.h"
#include "util/stats.h"

namespace matrix {
namespace {

using namespace time_literals;

// ---------------------------------------------------------------------------
// Ids
// ---------------------------------------------------------------------------

TEST(Ids, DefaultIsInvalid) {
  ServerId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id.value(), 0u);
}

TEST(Ids, GeneratorStartsAtOneAndIncrements) {
  IdGenerator<ClientId> gen;
  EXPECT_EQ(gen.next().value(), 1u);
  EXPECT_EQ(gen.next().value(), 2u);
  EXPECT_EQ(gen.next().value(), 3u);
}

TEST(Ids, GeneratorReserveThroughSkips) {
  IdGenerator<EntityId> gen;
  gen.reserve_through(100);
  EXPECT_EQ(gen.next().value(), 101u);
  gen.reserve_through(50);  // lower floor is a no-op
  EXPECT_EQ(gen.next().value(), 102u);
}

TEST(Ids, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<ServerId, ClientId>);
  static_assert(!std::is_convertible_v<ServerId, ClientId>);
  static_assert(!std::is_convertible_v<std::uint64_t, ServerId>);
}

TEST(Ids, ComparisonAndOrdering) {
  EXPECT_EQ(ServerId(3), ServerId(3));
  EXPECT_NE(ServerId(3), ServerId(4));
  EXPECT_LT(ServerId(3), ServerId(4));
}

TEST(Ids, StreamsWithPrefix) {
  std::ostringstream oss;
  oss << ServerId(7) << " " << ClientId(9);
  EXPECT_EQ(oss.str(), "S7 C9");
}

TEST(Ids, Hashable) {
  std::set<std::size_t> hashes;
  for (std::uint64_t i = 1; i <= 16; ++i) {
    hashes.insert(std::hash<ServerId>{}(ServerId(i)));
  }
  EXPECT_GT(hashes.size(), 1u);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(10), 10u);
  }
  EXPECT_EQ(rng.next_below(0), 0u);
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextInIsInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_in(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NormalHasRoughlyUnitStats) {
  Rng rng(5);
  OnlineStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.next_normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.05);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(6);
  OnlineStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.next_exponential(40.0));
  EXPECT_NEAR(stats.mean(), 40.0, 2.0);
}

TEST(Rng, BoolProbability) {
  Rng rng(8);
  int trues = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.next_bool(0.3)) ++trues;
  }
  EXPECT_NEAR(static_cast<double>(trues) / 10000.0, 0.3, 0.03);
}

TEST(Rng, ForkIsIndependentButDeterministic) {
  Rng a(42), b(42);
  Rng fa = a.fork();
  Rng fb = b.fork();
  EXPECT_EQ(fa.next_u64(), fb.next_u64());  // same lineage → same stream
  EXPECT_NE(fa.next_u64(), a.next_u64());   // child differs from parent
}

// ---------------------------------------------------------------------------
// SimTime
// ---------------------------------------------------------------------------

TEST(SimTime, ConversionsRoundTrip) {
  EXPECT_EQ(SimTime::from_ms(1.5).us(), 1500);
  EXPECT_DOUBLE_EQ(SimTime::from_sec(2.0).ms(), 2000.0);
  EXPECT_DOUBLE_EQ((1234_us).ms(), 1.234);
  EXPECT_EQ((3_sec).us(), 3'000'000);
}

TEST(SimTime, Arithmetic) {
  EXPECT_EQ((5_ms) + (7_ms), 12_ms);
  EXPECT_EQ((5_ms) - (7_ms), SimTime::from_ms(-2.0));
  EXPECT_EQ((5_ms) * 3, 15_ms);
  SimTime t = 1_sec;
  t += 500_ms;
  EXPECT_DOUBLE_EQ(t.sec(), 1.5);
}

TEST(SimTime, Ordering) {
  EXPECT_LT(1_ms, 2_ms);
  EXPECT_EQ(1000_us, 1_ms);
  EXPECT_GT(1_sec, 999_ms);
}

// ---------------------------------------------------------------------------
// OnlineStats
// ---------------------------------------------------------------------------

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(OnlineStats, KnownSequence) {
  OnlineStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, MergeMatchesCombined) {
  OnlineStats a, b, combined;
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.next_double_in(-5.0, 5.0);
    (i % 2 == 0 ? a : b).add(v);
    combined.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_NEAR(a.mean(), combined.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), combined.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a, empty;
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  OnlineStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(Histogram, PercentilesOfUniformRamp) {
  Histogram h;
  for (int i = 0; i <= 100; ++i) h.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(h.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(h.median(), 50.0);
  EXPECT_NEAR(h.percentile(95), 95.0, 1e-9);
}

TEST(Histogram, InterpolatesBetweenSamples) {
  Histogram h;
  h.add(0.0);
  h.add(10.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(h.percentile(25), 2.5);
}

TEST(Histogram, EmptyReturnsZero) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.percentile(99), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.fraction_above(1.0), 0.0);
}

TEST(Histogram, FractionAbove) {
  Histogram h;
  for (int i = 1; i <= 10; ++i) h.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(h.fraction_above(7.0), 0.3);   // 8, 9, 10
  EXPECT_DOUBLE_EQ(h.fraction_above(10.0), 0.0);  // strictly above
  EXPECT_DOUBLE_EQ(h.fraction_above(0.0), 1.0);
}

TEST(Histogram, AddAfterQueryStaysCorrect) {
  Histogram h;
  h.add(5.0);
  EXPECT_DOUBLE_EQ(h.median(), 5.0);
  h.add(1.0);
  h.add(9.0);
  EXPECT_DOUBLE_EQ(h.median(), 5.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 9.0);
}

TEST(Histogram, MergeConcatenatesSamples) {
  Histogram a, b;
  a.add(1.0);
  b.add(3.0);
  b.add(5.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.median(), 3.0);
}

// ---------------------------------------------------------------------------
// TimeSeries
// ---------------------------------------------------------------------------

TEST(TimeSeries, StepInterpolation) {
  TimeSeries s("x");
  s.record(1.0, 10.0);
  s.record(2.0, 20.0);
  s.record(5.0, 50.0);
  EXPECT_DOUBLE_EQ(s.value_at(0.5), 0.0);   // before first point
  EXPECT_DOUBLE_EQ(s.value_at(1.0), 10.0);
  EXPECT_DOUBLE_EQ(s.value_at(3.0), 20.0);  // holds last value
  EXPECT_DOUBLE_EQ(s.value_at(9.0), 50.0);
}

TEST(TimeSeries, MaxValue) {
  TimeSeries s;
  s.record(0.0, 3.0);
  s.record(1.0, 7.0);
  s.record(2.0, 5.0);
  EXPECT_DOUBLE_EQ(s.max_value(), 7.0);
  EXPECT_DOUBLE_EQ(TimeSeries{}.max_value(), 0.0);
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

TEST(Codec, PrimitivesRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.f64(3.14159);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(Codec, VarintBoundaries) {
  for (std::uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 300ULL, 16383ULL,
                          16384ULL, 0xFFFFFFFFULL,
                          0xFFFFFFFFFFFFFFFFULL}) {
    ByteWriter w;
    w.varint(v);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.varint(), v) << "value " << v;
    EXPECT_TRUE(r.ok());
  }
}

TEST(Codec, VarintCompactness) {
  ByteWriter w;
  w.varint(5);
  EXPECT_EQ(w.size(), 1u);
  ByteWriter w2;
  w2.varint(300);
  EXPECT_EQ(w2.size(), 2u);
}

TEST(Codec, StringsAndRaw) {
  ByteWriter w;
  w.str("hello matrix");
  w.str("");
  w.raw(std::vector<std::uint8_t>{1, 2, 3});
  ByteReader r(w.bytes());
  EXPECT_EQ(r.str(), "hello matrix");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.raw(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(r.ok());
}

TEST(Codec, IdsRoundTrip) {
  ByteWriter w;
  w.id(ServerId(12));
  w.id(ClientId(0));
  ByteReader r(w.bytes());
  EXPECT_EQ(r.id<ServerId>(), ServerId(12));
  EXPECT_EQ(r.id<ClientId>(), ClientId(0));
}

TEST(Codec, TruncatedReadFailsSafely) {
  ByteWriter w;
  w.u64(7);
  auto bytes = w.take();
  bytes.resize(3);  // chop mid-integer
  ByteReader r(bytes);
  (void)r.u64();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u32(), 0u);  // subsequent reads are inert
}

TEST(Codec, MalformedStringLengthFailsSafely) {
  ByteWriter w;
  w.varint(1000);  // declares 1000 bytes, provides none
  ByteReader r(w.bytes());
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(Codec, OverlongVarintFails) {
  std::vector<std::uint8_t> bytes(11, 0x80);  // never terminates
  ByteReader r(bytes);
  (void)r.varint();
  EXPECT_FALSE(r.ok());
}

TEST(Codec, NonCanonicalEncodingsFail) {
  // 0 spelled in two bytes, and a tenth byte with bits past the 64th.
  const std::vector<std::uint8_t> padded{0x80, 0x00};
  const std::vector<std::uint8_t> wide{0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                       0xFF, 0xFF, 0xFF, 0xFF, 0x02};
  for (const auto* bytes : {&padded, &wide}) {
    ByteReader r(*bytes);
    (void)r.varint();
    EXPECT_FALSE(r.ok());
  }
  const std::vector<std::uint8_t> flag{2};
  ByteReader r(flag);
  (void)r.flag();
  EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------------------
// Logger
// ---------------------------------------------------------------------------

TEST(Logger, RespectsLevel) {
  std::ostringstream sink;
  Logger::instance().set_sink(&sink);
  Logger::instance().set_level(LogLevel::kWarn);
  MATRIX_INFO("test", "hidden");
  MATRIX_WARN("test", "visible " << 42);
  Logger::instance().set_sink(&std::cerr);
  Logger::instance().set_level(LogLevel::kOff);
  EXPECT_EQ(sink.str().find("hidden"), std::string::npos);
  EXPECT_NE(sink.str().find("visible 42"), std::string::npos);
}

}  // namespace
}  // namespace matrix
