#include "netbase/bytes.h"

#include <gtest/gtest.h>

#include "netbase/crc32.h"
#include "netbase/rng.h"
#include "netbase/time.h"

namespace iri {
namespace {

TEST(ByteWriter, BigEndianLayout) {
  ByteWriter w;
  w.U8(0x01);
  w.U16(0x0203);
  w.U32(0x04050607);
  w.U64(0x08090A0B0C0D0E0FULL);
  const auto& buf = w.data();
  ASSERT_EQ(buf.size(), 15u);
  const std::uint8_t expected[] = {1, 2, 3, 4, 5, 6, 7, 8,
                                   9, 10, 11, 12, 13, 14, 15};
  for (std::size_t i = 0; i < sizeof(expected); ++i) {
    EXPECT_EQ(buf[i], expected[i]) << "offset " << i;
  }
}

TEST(ByteWriter, PatchU16) {
  ByteWriter w;
  w.U16(0);
  w.U32(0xAABBCCDD);
  w.PatchU16(0, 0x1234);
  EXPECT_EQ(w.data()[0], 0x12);
  EXPECT_EQ(w.data()[1], 0x34);
  EXPECT_EQ(w.data()[2], 0xAA);  // rest untouched
}

TEST(ByteReader, RoundTripAllWidths) {
  ByteWriter w;
  w.U8(0xAB);
  w.U16(0xCDEF);
  w.U32(0x01234567);
  w.U64(0x89ABCDEF01234567ULL);
  ByteReader r(w.data());
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U16(), 0xCDEF);
  EXPECT_EQ(r.U32(), 0x01234567u);
  EXPECT_EQ(r.U64(), 0x89ABCDEF01234567ULL);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteReader, StickyErrorOnUnderflow) {
  const std::uint8_t data[] = {1, 2};
  ByteReader r(data);
  EXPECT_EQ(r.U32(), 0u);  // underflow
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U8(), 0u);  // stays poisoned even though a byte exists
  EXPECT_FALSE(r.ok());
}

TEST(ByteReader, BytesSpanAndSkip) {
  const std::uint8_t data[] = {1, 2, 3, 4, 5};
  ByteReader r(data);
  auto first = r.Bytes(2);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[1], 2);
  r.Skip(2);
  EXPECT_EQ(r.U8(), 5);
  EXPECT_TRUE(r.ok());
}

TEST(ByteReader, MarkBadPoisons) {
  const std::uint8_t data[] = {1};
  ByteReader r(data);
  r.MarkBad();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U8(), 0);
}

TEST(Crc32, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (standard check value).
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(data), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) {
  EXPECT_EQ(Crc32({}), 0u);
}

TEST(Crc32, StreamingMatchesOneShot) {
  std::vector<std::uint8_t> data(1000);
  Rng rng(7);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.Below(256));
  const std::uint32_t oneshot = Crc32(data);
  std::uint32_t streamed = 0;
  streamed = Crc32Update(streamed, std::span(data).subspan(0, 137));
  streamed = Crc32Update(streamed, std::span(data).subspan(137, 500));
  streamed = Crc32Update(streamed, std::span(data).subspan(637));
  EXPECT_EQ(streamed, oneshot);
}

std::vector<std::uint8_t> RandomBytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> data(n);
  Rng rng(seed);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.Below(256));
  return data;
}

TEST(Crc32Combine, EverySplitPointMatchesOneShot) {
  const std::vector<std::uint8_t> data = RandomBytes(1024, 11);
  const std::span<const std::uint8_t> all(data);
  const std::uint32_t oneshot = Crc32(all);
  for (std::size_t cut = 0; cut <= all.size(); ++cut) {
    const auto a = all.first(cut);
    const auto b = all.subspan(cut);
    ASSERT_EQ(Crc32Combine(Crc32(a), Crc32(b), b.size()), oneshot)
        << "split at " << cut;
  }
}

TEST(Crc32Combine, EmptySecondPartReturnsFirstCrc) {
  const std::vector<std::uint8_t> data = RandomBytes(1024, 11);
  const std::uint32_t crc = Crc32(data);
  EXPECT_EQ(Crc32Combine(crc, Crc32({}), 0), crc);
  EXPECT_EQ(Crc32Combine(0x12345678u, 0, 0), 0x12345678u);
}

TEST(Crc32Combine, FoldsUnequalSegmentsLeftToRight) {
  const std::vector<std::uint8_t> data = RandomBytes(1024, 11);
  const std::span<const std::uint8_t> all(data);
  std::uint32_t folded = 0;  // Crc32 of the empty prefix
  std::size_t pos = 0;
  for (std::size_t len : {1u, 300u, 0u, 77u, 646u}) {
    const auto segment = all.subspan(pos, len);
    folded = Crc32Combine(folded, Crc32(segment), segment.size());
    pos += len;
  }
  ASSERT_EQ(pos, all.size());
  EXPECT_EQ(folded, Crc32(all));
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> data(64, 0x5A);
  const std::uint32_t before = Crc32(data);
  data[17] ^= 0x40;
  EXPECT_NE(Crc32(data), before);
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, ForkIndependence) {
  Rng parent(1);
  Rng child1 = parent.Fork(1);
  Rng child2 = parent.Fork(2);
  EXPECT_NE(child1.Next(), child2.Next());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(6);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.Range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng rng(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.2);
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  Rng rng(13);
  double sum = 0, sum2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal(2.0, 3.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(var, 9.0, 0.3);
}

TEST(Time, DurationArithmetic) {
  EXPECT_EQ(Duration::Seconds(1).nanos(), 1'000'000'000);
  EXPECT_EQ(Duration::Minutes(2), Duration::Seconds(120));
  EXPECT_EQ(Duration::Hours(1) + Duration::Minutes(30),
            Duration::Minutes(90));
  EXPECT_EQ((Duration::Seconds(10) * 0.5), Duration::Seconds(5));
  EXPECT_DOUBLE_EQ(Duration::Hours(2) / Duration::Hours(1), 2.0);
}

TEST(Time, TimePointArithmetic) {
  const TimePoint t = TimePoint::Origin() + Duration::Days(1);
  EXPECT_EQ((t - TimePoint::Origin()), Duration::Days(1));
  EXPECT_LT(TimePoint::Origin(), t);
  EXPECT_LT(t, TimePoint::Max());
}

TEST(Time, FormatScenarioTime) {
  const TimePoint t = TimePoint::Origin() + Duration::Days(3) +
                      Duration::Hours(14) + Duration::Minutes(5) +
                      Duration::Seconds(9) + Duration::Millis(250);
  EXPECT_EQ(FormatScenarioTime(t), "d3 14:05:09.250");
}

}  // namespace
}  // namespace iri
