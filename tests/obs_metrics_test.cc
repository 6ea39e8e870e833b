#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <array>
#include <string>

namespace iri::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Registry reg;
  Counter& c = reg.GetCounter("updates");
  EXPECT_EQ(c.value(), 0u);
  c.Add(3);
  c.Add(4);
  EXPECT_EQ(c.value(), 7u);
}

TEST(Registry, SameNameReturnsSameInstrument) {
  Registry reg;
  Counter& a = reg.GetCounter("x");
  a.Add(5);
  EXPECT_EQ(&a, &reg.GetCounter("x"));
  EXPECT_EQ(reg.GetCounter("x").value(), 5u);
}

TEST(Gauge, SetAddRaiseTo) {
  Registry reg;
  Gauge& g = reg.GetGauge("depth");
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.value(), 7);
  g.RaiseTo(5);  // lower: no-op
  EXPECT_EQ(g.value(), 7);
  g.RaiseTo(42);
  EXPECT_EQ(g.value(), 42);
}

TEST(Histogram, BucketsObservationsAgainstEdges) {
  Registry reg;
  const std::array<std::int64_t, 3> edges{10, 100, 1000};
  Histogram& h = reg.GetHistogram("lat", edges);
  h.Observe(5);     // le10
  h.Observe(10);    // le10 (lower_bound: 10 <= 10)
  h.Observe(11);    // le100
  h.Observe(1001);  // inf
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 5 + 10 + 11 + 1001);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 0u);
  EXPECT_EQ(h.buckets()[3], 1u);  // overflow
}

TEST(Registry, SnapshotTextIsNameOrderedAndStable) {
  Registry reg;
  // Registered deliberately out of name order.
  reg.GetCounter("zebra").Add(1);
  reg.GetGauge("apple").Set(-4);
  const std::array<std::int64_t, 2> edges{1, 2};
  reg.GetHistogram("mid", edges).Observe(2);
  const std::string snap = reg.SnapshotText();
  EXPECT_EQ(snap,
            "gauge apple -4\n"
            "hist mid count=1 sum=2 le1=0 le2=1 inf=0\n"
            "counter zebra 1\n");
  // Byte-identical on repeat — the golden digests depend on this.
  EXPECT_EQ(snap, reg.SnapshotText());
}

TEST(Registry, WallClockInstrumentsExcludedByDefault) {
  Registry reg;
  reg.GetCounter("det").Add(1);
  reg.GetCounter("wall", Stability::kWallClock).Add(99);
  const std::string snap = reg.SnapshotText();
  EXPECT_NE(snap.find("counter det 1"), std::string::npos);
  EXPECT_EQ(snap.find("wall"), std::string::npos);
  const std::string with_wall = reg.SnapshotText(/*include_wall_clock=*/true);
  EXPECT_NE(with_wall.find("counter wall 99"), std::string::npos);
}

TEST(Registry, SnapshotSuppressesNeverFiredProfileSites) {
  Registry reg;
  // A registered-but-never-fired site: all three instruments exist with
  // zero calls. Pure registration noise — the snapshot must drop the whole
  // triple, not advertise a site that contributed nothing.
  reg.GetCounter("profile.idle.calls");
  reg.GetCounter("profile.idle.items");
  reg.GetCounter("profile.idle.wall_ns");
  // A live site next to it must survive untouched.
  reg.GetCounter("profile.busy.calls").Add(3);
  reg.GetCounter("profile.busy.items").Add(12);
  // Zero-valued non-profile counters and a zero `.calls` without the
  // profile. prefix must NOT be suppressed.
  reg.GetCounter("monitor.messages");
  reg.GetCounter("rpc.calls");
  const std::string snap = reg.SnapshotText();
  EXPECT_EQ(snap.find("profile.idle"), std::string::npos)
      << "zero-call profile site leaked into the snapshot:\n"
      << snap;
  EXPECT_NE(snap.find("counter profile.busy.calls 3"), std::string::npos);
  EXPECT_NE(snap.find("counter profile.busy.items 12"), std::string::npos);
  EXPECT_NE(snap.find("counter monitor.messages 0"), std::string::npos);
  EXPECT_NE(snap.find("counter rpc.calls 0"), std::string::npos);
}

TEST(Registry, PrefixFilterSelectsSubtree) {
  Registry reg;
  reg.GetCounter("monitor.messages").Add(2);
  reg.GetCounter("monitor.events").Add(5);
  reg.GetCounter("mrt.records").Add(7);
  const std::string snap = reg.SnapshotText(false, "monitor.");
  EXPECT_EQ(snap,
            "counter monitor.events 5\n"
            "counter monitor.messages 2\n");
}

TEST(Registry, MergeSumsCountersGaugesAndHistograms) {
  Registry a;
  Registry b;
  a.GetCounter("c").Add(3);
  b.GetCounter("c").Add(4);
  b.GetCounter("only_b").Add(1);
  a.GetGauge("g").Set(10);
  b.GetGauge("g").Set(5);
  const std::array<std::int64_t, 2> edges{10, 20};
  a.GetHistogram("h", edges).Observe(5);
  b.GetHistogram("h", edges).Observe(15);

  a.Merge(b);
  EXPECT_EQ(a.GetCounter("c").value(), 7u);
  EXPECT_EQ(a.GetCounter("only_b").value(), 1u);
  // Default-policy (kSum) gauges add under merge.
  EXPECT_EQ(a.GetGauge("g").value(), 15);
  Histogram& h = a.GetHistogram("h", edges);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
}

TEST(Registry, MaxPolicyGaugesMergeByMaximum) {
  // Peak/score gauges (sched.peak_pending, health.*) register with
  // GaugeMerge::kMax: the merged value is the worst partition, never a sum
  // of per-partition peaks (DESIGN.md §9).
  Registry a;
  Registry b;
  a.GetGauge("peak", Stability::kDeterministic, GaugeMerge::kMax).RaiseTo(10);
  b.GetGauge("peak", Stability::kDeterministic, GaugeMerge::kMax).RaiseTo(7);
  b.GetGauge("only_b", Stability::kDeterministic, GaugeMerge::kMax)
      .RaiseTo(4);
  a.Merge(b);
  EXPECT_EQ(a.GetGauge("peak").value(), 10);
  // Creation through Merge carries the source's policy.
  Registry c;
  c.GetGauge("only_b", Stability::kDeterministic, GaugeMerge::kMax)
      .RaiseTo(2);
  a.Merge(c);
  EXPECT_EQ(a.GetGauge("only_b").value(), 4);
}

TEST(Registry, MergeIsOrderInsensitiveOnDisjointSources) {
  // The runner merges per-exchange registries in fixed exchange order; the
  // result must not depend on which partition registered a name first.
  Registry x;
  Registry y;
  x.GetCounter("a").Add(1);
  x.GetCounter("b").Add(2);
  y.GetCounter("b").Add(10);
  y.GetCounter("c").Add(3);

  Registry xy;
  xy.Merge(x);
  xy.Merge(y);
  Registry yx;
  yx.Merge(y);
  yx.Merge(x);
  EXPECT_EQ(xy.SnapshotText(), yx.SnapshotText());
}

}  // namespace
}  // namespace iri::obs
