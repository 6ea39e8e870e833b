// Edge-path coverage for the Router: loop rejection, decode failures,
// dampening verdict paths, crash-time API behaviour.
#include <gtest/gtest.h>

#include "sim/link.h"
#include "sim/router.h"
#include "sim/scheduler.h"

namespace iri::sim {
namespace {

Prefix P(const std::string& s) { return *Prefix::Parse(s); }

RouterConfig Basic(const char* name, bgp::Asn asn, std::uint8_t id) {
  RouterConfig cfg;
  cfg.name = name;
  cfg.asn = asn;
  cfg.router_id = IPv4Address(10, 0, 0, id);
  cfg.interface_addr = IPv4Address(10, 1, 0, id);
  cfg.packer.interval = Duration::Seconds(1);
  cfg.packer.discipline = bgp::TimerDiscipline::kUnjittered;
  return cfg;
}

// A and B on one link, B applying `b_import` to A's routes; the session is
// up on return.
struct Pair {
  Pair(RouterConfig a_cfg, RouterConfig b_cfg,
       bgp::Policy b_import = bgp::Policy::AcceptAll())
      : a(sched, std::move(a_cfg), 1),
        b(sched, std::move(b_cfg), 2),
        link(sched, Duration::Millis(1)) {
    a.AttachLink(link, true, b.config().asn);
    b.AttachLink(link, false, a.config().asn, std::move(b_import));
    sched.At(TimePoint::Origin(), [this] { link.Restore(); });
    sched.RunUntil(TimePoint::Origin() + Duration::Seconds(3));
  }
  void Settle(double seconds = 5) {
    sched.RunUntil(sched.Now() + Duration::Seconds(seconds));
  }

  Scheduler sched;
  Router a, b;
  Link link;
};

TEST(RouterEdge, ReceiverRejectsPathContainingOwnAsn) {
  Pair net(Basic("A", 100, 1), Basic("B", 200, 2));
  // The sender-side check would normally stop this; inject the looping
  // UPDATE directly at B's transport, as a buggy peer would emit it.
  bgp::UpdateMessage update;
  update.attributes.as_path = bgp::AsPath::Sequence({100, 64512, 200});
  update.attributes.next_hop = IPv4Address(10, 1, 0, 1);
  update.nlri = {P("192.42.113.0/24")};
  net.b.OnWireData(0, bgp::Encode(bgp::Message{update}));
  net.Settle();
  EXPECT_EQ(net.b.rib().Best(P("192.42.113.0/24")), nullptr);
  EXPECT_GE(net.b.stats().loops_rejected, 1u);
}

TEST(RouterEdge, GarbageBytesAreCountedNotFatal) {
  Pair net(Basic("A", 100, 1), Basic("B", 200, 2));
  // Inject garbage directly at B's transport.
  net.b.OnWireData(0, {0xDE, 0xAD, 0xBE, 0xEF});
  EXPECT_EQ(net.b.stats().decode_failures, 1u);
  // The session survives (garbage is dropped before the FSM).
  EXPECT_EQ(net.b.PeerSessionState(0), bgp::SessionState::kEstablished);
  net.a.Originate({P("10.0.0.0/8"), {}});
  net.Settle();
  EXPECT_NE(net.b.rib().Best(P("10.0.0.0/8")), nullptr);
}

TEST(RouterEdge, ImportPolicyDenialRemovesStaleRoute) {
  // B denies routes tagged kBlocked on import. A's re-announcement of an
  // accepted prefix, now tagged, is an announcement, not a withdrawal, so
  // only B's denial can remove the route B already holds.
  constexpr bgp::Community kBlocked = (65000u << 16) | 66;
  bgp::Policy import = bgp::Policy::AcceptAll();
  bgp::PolicyRule deny_blocked;
  deny_blocked.match.has_community = kBlocked;
  deny_blocked.action.deny = true;
  import.Add(deny_blocked);
  Pair net(Basic("A", 100, 1), Basic("B", 200, 2), std::move(import));

  net.a.Originate({P("10.0.0.0/24"), {}});
  net.Settle();
  ASSERT_NE(net.b.rib().Best(P("10.0.0.0/24")), nullptr);
  bgp::PathAttributes tagged;
  tagged.communities = {kBlocked};
  net.a.Originate({P("10.0.0.0/24"), tagged});  // denied on import at B
  net.Settle();
  EXPECT_EQ(net.b.rib().Best(P("10.0.0.0/24")), nullptr);
}

TEST(RouterEdge, ImportPolicySharesOneSetAcrossAnUpdatesPrefixes) {
  // A rewriting import policy runs once per UPDATE: every NLRI prefix of a
  // multi-prefix UPDATE is installed under the one rewritten set.
  bgp::Policy import = bgp::Policy::AcceptAll();
  bgp::PolicyRule prefer_a;
  prefer_a.match.neighbor_as = 100;
  prefer_a.action.set_local_pref = 200;
  import.Add(prefer_a);
  Pair net(Basic("A", 100, 1), Basic("B", 200, 2), std::move(import));

  bgp::UpdateMessage update;
  update.attributes.as_path = bgp::AsPath::Sequence({100, 9});
  update.attributes.next_hop = IPv4Address(10, 1, 0, 1);
  update.nlri = {P("10.0.0.0/24"), P("10.0.1.0/24"), P("10.0.2.0/24")};
  const std::size_t sets_before = net.b.rib().attrs().size();
  net.b.OnWireData(0, bgp::Encode(bgp::Message{update}));
  net.Settle();

  EXPECT_EQ(net.b.rib().attrs().size(), sets_before + 1);
  const bgp::Candidate* first = net.b.rib().Best(update.nlri[0]);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(net.b.rib().attrs().Get(first->attr_id).local_pref, 200u);
  for (const Prefix& prefix : update.nlri) {
    const bgp::Candidate* best = net.b.rib().Best(prefix);
    ASSERT_NE(best, nullptr) << prefix.ToString();
    EXPECT_EQ(best->attr_id, first->attr_id) << prefix.ToString();
  }
}

TEST(RouterEdge, CrashedRouterIgnoresOriginationApis) {
  Scheduler sched;
  RouterConfig cfg = Basic("frail", 100, 1);
  cfg.crash_backlog = Duration::Millis(1);
  cfg.cost_per_prefix = Duration::Millis(10);
  cfg.reboot_time = Duration::Hours(1);
  Router frail(sched, cfg, 1);
  Router feeder(sched, Basic("feeder", 200, 2), 2);
  Link link(sched, Duration::Millis(1));
  feeder.AttachLink(link, true, 100);
  frail.AttachLink(link, false, 200);
  sched.At(TimePoint::Origin(), [&link] { link.Restore(); });
  sched.RunUntil(TimePoint::Origin() + Duration::Seconds(3));

  for (std::uint32_t i = 0; i < 50; ++i) {
    feeder.Originate({Prefix(IPv4Address((10u << 24) | (i << 8)), 24), {}});
  }
  sched.RunUntil(sched.Now() + Duration::Seconds(10));
  ASSERT_TRUE(frail.crashed());
  // APIs on a crashed box are inert.
  frail.Originate({P("204.0.0.0/24"), {}});
  frail.WithdrawLocal(P("204.0.0.0/24"));
  frail.InternalReset();
  EXPECT_FALSE(frail.HasLocalRoute(P("204.0.0.0/24")));
}

TEST(RouterEdge, DampenedRouteReadvertisedAtReuseTime) {
  // The scheduled re-advertisement after suppression release (the paper's
  // delayed "legitimate announcement") must fire automatically.
  Scheduler sched;
  RouterConfig cfg = Basic("border", 100, 1);
  cfg.enable_dampening = true;
  Router border(sched, cfg, 1);
  Router peer(sched, Basic("peer", 200, 2), 2);
  Link link(sched, Duration::Millis(1));
  border.AttachLink(link, true, 200);
  peer.AttachLink(link, false, 100);
  sched.At(TimePoint::Origin(), [&link] { link.Restore(); });
  sched.RunUntil(TimePoint::Origin() + Duration::Seconds(3));

  const Prefix p = P("204.10.0.0/24");
  // Flap until suppressed.
  for (int i = 0; i < 5; ++i) {
    border.Originate({p, {}});
    sched.RunUntil(sched.Now() + Duration::Seconds(30));
    border.WithdrawLocal(p);
    sched.RunUntil(sched.Now() + Duration::Seconds(30));
  }
  border.Originate({p, {}});  // final, legitimate announcement — suppressed
  sched.RunUntil(sched.Now() + Duration::Minutes(2));
  ASSERT_GT(border.stats().damped_updates, 0u);
  EXPECT_EQ(peer.rib().Best(p), nullptr) << "should still be held down";

  // ...but after the reuse time it must reach the peer without any further
  // operator action.
  sched.RunUntil(sched.Now() + Duration::Hours(1));
  EXPECT_NE(peer.rib().Best(p), nullptr);
}

}  // namespace
}  // namespace iri::sim
