#include "obs/timeseries.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "netbase/crc32.h"

namespace iri::obs {
namespace {

TimePoint T(double seconds) {
  return TimePoint::Origin() + Duration::Seconds(seconds);
}

TEST(WindowedCounter, WindowResetsAndTotalAccumulates) {
  WindowedCounter c;
  c.Add(3);
  c.Add(2);
  EXPECT_EQ(c.window(), 5u);
  EXPECT_EQ(c.total(), 5u);
  c.CloseWindow();
  EXPECT_EQ(c.window(), 0u);
  EXPECT_EQ(c.total(), 5u);
  c.Add(7);
  EXPECT_EQ(c.window(), 7u);
  EXPECT_EQ(c.total(), 12u);
}

TEST(WindowedCounter, EwmaSeedsOnFirstWindowThenBlends) {
  WindowedCounter c;
  c.Add(10);
  c.CloseWindow();
  EXPECT_DOUBLE_EQ(c.ewma(), 10.0);  // first window seeds directly
  c.Add(20);
  c.CloseWindow();
  EXPECT_DOUBLE_EQ(c.ewma(), 13.0);  // 0.3*20 + 0.7*10
  c.CloseWindow();                   // empty window decays toward zero
  EXPECT_DOUBLE_EQ(c.ewma(), 9.1);   // 0.7*13
}

TEST(WindowedHistogram, BucketsByInclusiveUpperEdgeWithOverflow) {
  constexpr std::array<std::int64_t, 3> edges = {1, 4, 16};
  WindowedHistogram h(edges, /*window_ticks=*/4);
  h.Observe(0);
  h.Observe(1);   // both land in bucket 0 (<= 1)
  h.Observe(4);   // bucket 1 (<= 4)
  h.Observe(17);  // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 22);
  ASSERT_EQ(h.buckets().size(), 4u);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 0u);
  EXPECT_EQ(h.buckets()[3], 1u);
}

TEST(WindowedHistogram, SlidesOutWindowsBeyondTheRetention) {
  constexpr std::array<std::int64_t, 1> edges = {10};
  WindowedHistogram h(edges, /*window_ticks=*/2);
  h.Observe(1);  // window 1
  h.CloseWindow();
  h.Observe(2);  // window 2
  h.CloseWindow();
  h.Observe(3);  // window 3 (still open)
  // Retention is 2 closed windows + the open one: everything still counts.
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 6);
  h.CloseWindow();
  // Window 1 has now slid out of the ring.
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.sum(), 5);
  h.CloseWindow();
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 3);
  h.CloseWindow();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0);
}

TEST(SeriesFlusher, EmitsExactJsonlBytesInNameOrder) {
  SeriesFlusher flusher;
  std::string text;
  int sink_calls = 0;
  flusher.SetSink([&](std::string_view flush) {
    text += flush;
    ++sink_calls;
  });
  // Registered out of name order on purpose: flush order must sort.
  WindowedCounter& wwdup = flusher.GetCounter("monitor.wwdup");
  constexpr std::array<std::int64_t, 2> edges = {2, 8};
  WindowedHistogram& per_msg =
      flusher.GetWindowedHistogram("monitor.events_per_msg", edges, 2);
  WindowedCounter& updates = flusher.GetCounter("monitor.updates");

  updates.Add(4);
  wwdup.Add(1);
  per_msg.Observe(2);
  per_msg.Observe(9);
  flusher.Flush(T(10));
  updates.Add(2);
  flusher.Flush(T(20));

  EXPECT_EQ(flusher.records(), 6u);
  EXPECT_EQ(flusher.flushes(), 2u);
  EXPECT_EQ(sink_calls, 2) << "one sink call per flush";
  EXPECT_EQ(
      text,
      "{\"t_ns\":10000000000,\"series\":\"monitor.events_per_msg\","
      "\"count\":2,\"sum\":11,\"buckets\":[1,0,1]}\n"
      "{\"t_ns\":10000000000,\"series\":\"monitor.updates\",\"window\":4,"
      "\"total\":4,\"ewma\":4.000000}\n"
      "{\"t_ns\":10000000000,\"series\":\"monitor.wwdup\",\"window\":1,"
      "\"total\":1,\"ewma\":1.000000}\n"
      "{\"t_ns\":20000000000,\"series\":\"monitor.events_per_msg\","
      "\"count\":2,\"sum\":11,\"buckets\":[1,0,1]}\n"
      "{\"t_ns\":20000000000,\"series\":\"monitor.updates\",\"window\":2,"
      "\"total\":6,\"ewma\":3.400000}\n"
      "{\"t_ns\":20000000000,\"series\":\"monitor.wwdup\",\"window\":0,"
      "\"total\":1,\"ewma\":0.700000}\n");
  // The running checksum covers exactly the text the sink received.
  EXPECT_EQ(flusher.bytes(), text.size());
  EXPECT_EQ(flusher.crc32(),
            Crc32({reinterpret_cast<const std::uint8_t*>(text.data()),
                   text.size()}));
}

TEST(SeriesFlusher, GetReturnsTheSameInstrumentForTheSameName) {
  SeriesFlusher flusher;
  WindowedCounter& a = flusher.GetCounter("x");
  WindowedCounter& b = flusher.GetCounter("x");
  EXPECT_EQ(&a, &b);
}

TEST(SeriesFlusher, ChecksumsWithoutASink) {
  SeriesFlusher with_sink;
  SeriesFlusher without_sink;
  std::string text;
  with_sink.SetSink([&text](std::string_view flush) { text += flush; });
  for (SeriesFlusher* f : {&with_sink, &without_sink}) {
    f->GetCounter("x").Add(1);
    f->Flush(T(1));
    f->Flush(T(2));
  }
  EXPECT_FALSE(text.empty());
  EXPECT_EQ(without_sink.records(), with_sink.records());
  EXPECT_EQ(without_sink.bytes(), text.size());
  EXPECT_EQ(without_sink.crc32(), with_sink.crc32());
}

}  // namespace
}  // namespace iri::obs
