#include "igp/igp.h"

#include <gtest/gtest.h>

#include "igp/redistribution.h"
#include "sim/link.h"

namespace iri::igp {
namespace {

Prefix P(const std::string& s) { return *Prefix::Parse(s); }

// A small AS backbone:
//
//   border --1-- core --1-- east  (prefix E)
//     \                      /
//      \---5--- west --1----/     (prefix W on west)
//
struct Backbone {
  explicit Backbone(sim::Scheduler& sched, Duration spf = Duration::Seconds(30))
      : igp(sched, IgpConfig{spf}) {
    border = igp.AddNode("border");
    core = igp.AddNode("core");
    east = igp.AddNode("east");
    west = igp.AddNode("west");
    border_core = igp.AddLink(border, core, 1);
    core_east = igp.AddLink(core, east, 1);
    border_west = igp.AddLink(border, west, 5);
    west_east = igp.AddLink(west, east, 1);
    igp.SetBorderNode(border);
    igp.AttachPrefix(east, P("204.10.1.0/24"));
    igp.AttachPrefix(west, P("204.10.2.0/24"));
  }

  IgpProcess igp;
  NodeId border, core, east, west;
  std::size_t border_core, core_east, border_west, west_east;
};

TEST(Igp, InitialSpfAnnouncesReachablePrefixes) {
  sim::Scheduler sched;
  Backbone bb(sched);
  std::vector<IgpRoute> seen;
  bb.igp.SetRedistribution([&seen](const IgpRoute& r) { seen.push_back(r); });
  bb.igp.Start();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_TRUE(seen[0].reachable);
  EXPECT_EQ(seen[0].metric, 2u);  // border-core-east
  EXPECT_TRUE(seen[1].reachable);
  EXPECT_EQ(seen[1].metric, 3u);  // border-core-east-west
}

TEST(Igp, QuiescentSpfRedistributesNothing) {
  sim::Scheduler sched;
  Backbone bb(sched);
  bb.igp.Start();
  EXPECT_EQ(bb.igp.RunSpf(), 0u);  // no topology change: no churn
}

TEST(Igp, LinkFailureReroutesWithNewMetric) {
  sim::Scheduler sched;
  Backbone bb(sched);
  bb.igp.Start();
  std::vector<IgpRoute> seen;
  bb.igp.SetRedistribution([&seen](const IgpRoute& r) { seen.push_back(r); });

  bb.igp.SetLinkUp(bb.core_east, false);
  // East reroutes via west (5+1=6); west's own metric improves to 5 (it was
  // previously reached through east). Both change: two redistributions, in
  // attachment order (east first).
  EXPECT_EQ(bb.igp.RunSpf(), 2u);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].metric, 6u);
  EXPECT_EQ(seen[1].metric, 5u);
}

TEST(Igp, PartitionMakesPrefixUnreachable) {
  sim::Scheduler sched;
  Backbone bb(sched);
  bb.igp.Start();
  bb.igp.SetLinkUp(bb.core_east, false);
  bb.igp.SetLinkUp(bb.west_east, false);
  bb.igp.RunSpf();
  EXPECT_EQ(bb.igp.MetricOf(P("204.10.1.0/24")), IgpConfig::kUnreachable);
  EXPECT_EQ(bb.igp.MetricOf(P("204.10.2.0/24")), 5u);

  // Repair: reachability returns at the next SPF.
  bb.igp.SetLinkUp(bb.core_east, true);
  bb.igp.RunSpf();
  EXPECT_EQ(bb.igp.MetricOf(P("204.10.1.0/24")), 2u);
}

TEST(Igp, CostChangeOnlyChangesMetric) {
  sim::Scheduler sched;
  Backbone bb(sched);
  bb.igp.Start();
  std::vector<IgpRoute> seen;
  bb.igp.SetRedistribution([&seen](const IgpRoute& r) { seen.push_back(r); });
  bb.igp.SetLinkCost(bb.border_core, 10);
  bb.igp.RunSpf();
  // Both prefixes now prefer the west path.
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_TRUE(seen[0].reachable);
  EXPECT_EQ(seen[0].metric, 6u);   // east via west
  EXPECT_EQ(seen[1].metric, 5u);   // west direct
}

TEST(Igp, TopologyChangesQuantizedToSpfTicks) {
  // A link that flaps BETWEEN ticks is only visible AT ticks: the
  // 30-second quantization the paper's periodicity analysis found.
  sim::Scheduler sched;
  Backbone bb(sched);
  int redistributions = 0;
  bb.igp.SetRedistribution([&redistributions](const IgpRoute&) {
    ++redistributions;
  });
  bb.igp.Start();
  const int after_start = redistributions;

  // Fail at t=+5s: nothing happens until the next 30 s boundary.
  sched.RunUntil(TimePoint::Origin() + Duration::Seconds(35));
  bb.igp.SetLinkUp(bb.core_east, false);
  bb.igp.SetLinkUp(bb.west_east, false);
  sched.RunUntil(TimePoint::Origin() + Duration::Seconds(59));
  EXPECT_EQ(redistributions, after_start);  // still quiet
  sched.RunUntil(TimePoint::Origin() + Duration::Seconds(61));
  EXPECT_GT(redistributions, after_start);  // the SPF tick saw it
}

TEST(Igp, SpfRunsAtFixedPhase) {
  sim::Scheduler sched;
  Backbone bb(sched);
  bb.igp.Start();
  const auto runs0 = bb.igp.spf_runs();
  sched.RunUntil(TimePoint::Origin() + Duration::Minutes(5));
  // 10 ticks in 5 minutes at a 30 s interval.
  EXPECT_EQ(bb.igp.spf_runs() - runs0, 10u);
}

TEST(Redistribution, AnnouncesAndWithdrawsThroughRouter) {
  sim::Scheduler sched;
  Backbone bb(sched);

  sim::RouterConfig cfg;
  cfg.name = "border";
  cfg.asn = 701;
  cfg.router_id = IPv4Address(10, 0, 0, 1);
  cfg.interface_addr = IPv4Address(10, 1, 0, 1);
  sim::Router border(sched, cfg, 1);

  BgpRedistributor::Options options;
  options.metric_to_med = true;
  BgpRedistributor redist(bb.igp, border, options);
  bb.igp.Start();

  EXPECT_EQ(redist.announcements(), 2u);
  EXPECT_TRUE(border.HasLocalRoute(P("204.10.1.0/24")));
  const auto* best = border.rib().Best(P("204.10.1.0/24"));
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(border.rib().AttributesOf(*best).med, 2u);  // IGP metric copied into MED
  EXPECT_EQ(border.rib().AttributesOf(*best).origin, bgp::Origin::kIncomplete);

  // Partition: the withdrawal propagates into BGP.
  bb.igp.SetLinkUp(bb.core_east, false);
  bb.igp.SetLinkUp(bb.west_east, false);
  bb.igp.RunSpf();
  EXPECT_EQ(redist.withdrawals(), 1u);
  EXPECT_FALSE(border.HasLocalRoute(P("204.10.1.0/24")));
}

TEST(Redistribution, MetricOscillationBecomesMedChurn) {
  // The lossy conversion: an internal cost oscillation reaches BGP as
  // same-tuple MED changes — the paper's tuple-identical policy
  // fluctuation (classified AADup at the collector).
  sim::Scheduler sched;
  Backbone bb(sched);
  sim::RouterConfig cfg;
  cfg.name = "border";
  cfg.asn = 701;
  cfg.router_id = IPv4Address(10, 0, 0, 1);
  cfg.interface_addr = IPv4Address(10, 1, 0, 1);
  sim::Router border(sched, cfg, 1);
  BgpRedistributor redist(bb.igp, border, {});
  bb.igp.Start();

  for (int i = 0; i < 4; ++i) {
    bb.igp.SetLinkCost(bb.border_core, i % 2 ? 1 : 10);
    bb.igp.RunSpf();
  }
  // Four oscillations x two prefixes, all announcements (reachable
  // throughout), no withdrawals.
  EXPECT_EQ(redist.announcements(), 2u + 8u);
  EXPECT_EQ(redist.withdrawals(), 0u);
}

}  // namespace
}  // namespace iri::igp
