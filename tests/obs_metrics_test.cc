#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>

#include "obs/profile.h"

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

TEST(Registry, SnapshotTextIsNameOrderedAndStable) {
  Registry reg;
  // Registered deliberately out of name order.
  reg.GetCounter("zebra").Add(1);
  reg.GetGauge("apple").Set(-4);
  reg.GetCounter("mid").Add(2);
  const std::string snap = reg.SnapshotText();
  EXPECT_EQ(snap,
            "gauge apple -4\n"
            "counter mid 2\n"
            "counter zebra 1\n");
  // Byte-identical on repeat — the golden digests depend on this.
  EXPECT_EQ(snap, reg.SnapshotText());
}

TEST(Registry, WallClockInstrumentsNeverInSnapshots) {
  Registry reg;
  reg.GetCounter("det").Add(1);
  reg.GetCounter("wall", Stability::kWallClock).Add(99);
  EXPECT_EQ(reg.SnapshotText(), "counter det 1\n");
}

// Profiling is opt-in and invisible to snapshots: without it a site
// resolves nothing and registers nothing; with it the site's three counters
// are kWallClock, so the snapshot — and any digest built from it — is the
// same either way.
TEST(ProfileSite, ResolvesOnlyUnderProfilingAndStaysOutOfSnapshots) {
  Registry plain;
  const ProfileSite unresolved = MakeProfileSite(plain, "rib.announce");
  EXPECT_EQ(unresolved.calls, nullptr);
  EXPECT_EQ(unresolved.wall_ns, nullptr);
  { ScopedTimer timer(&unresolved, 5); }
  EXPECT_EQ(plain.size(), 0u);

  Registry profiled;
  profiled.SetWallClockProfiling(true);
  const ProfileSite site = MakeProfileSite(profiled, "rib.announce");
  ASSERT_NE(site.calls, nullptr);
  {
    ScopedTimer timer(&site, 2);
    timer.AddItems(3);
  }
  EXPECT_EQ(profiled.GetCounter("profile.rib.announce.calls").value(), 1u);
  EXPECT_EQ(profiled.GetCounter("profile.rib.announce.items").value(), 5u);
  EXPECT_EQ(profiled.size(), 3u);
  EXPECT_EQ(profiled.SnapshotText(), plain.SnapshotText());
}

TEST(Registry, PrefixFilterSelectsSubtree) {
  Registry reg;
  reg.GetCounter("monitor.messages").Add(2);
  reg.GetCounter("monitor.events").Add(5);
  reg.GetCounter("mrt.records").Add(7);
  const std::string snap = reg.SnapshotText("monitor.");
  EXPECT_EQ(snap,
            "counter monitor.events 5\n"
            "counter monitor.messages 2\n");
}

TEST(Registry, MergeSumsCountersAndGauges) {
  Registry a;
  Registry b;
  a.GetCounter("c").Add(3);
  b.GetCounter("c").Add(4);
  b.GetCounter("only_b").Add(1);
  a.GetGauge("g").Set(10);
  b.GetGauge("g").Set(5);

  a.Merge(b);
  EXPECT_EQ(a.GetCounter("c").value(), 7u);
  EXPECT_EQ(a.GetCounter("only_b").value(), 1u);
  // Default-policy (kSum) gauges add under merge.
  EXPECT_EQ(a.GetGauge("g").value(), 15);
}

TEST(Registry, MaxPolicyGaugesMergeByMaximum) {
  // Peak/score gauges (health.*) register with
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
