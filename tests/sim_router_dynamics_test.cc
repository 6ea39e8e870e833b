// Dynamic pathologies at the router level: keepalive starvation, the
// priority-queuing fix, and persistent policy oscillation (the bad gadget).
#include <gtest/gtest.h>

#include "bgp/policy.h"
#include "sim/link.h"
#include "sim/router.h"
#include "sim/scheduler.h"

namespace iri::sim {
namespace {

bgp::Route Route24(std::uint32_t index,
                   std::vector<bgp::Community> communities = {}) {
  bgp::Route r;
  r.prefix = Prefix(IPv4Address((10u << 24) | (index << 8)), 24);
  r.attributes.communities = std::move(communities);
  std::sort(r.attributes.communities.begin(), r.attributes.communities.end());
  return r;
}

RouterConfig Basic(const char* name, bgp::Asn asn, std::uint8_t id) {
  RouterConfig cfg;
  cfg.name = name;
  cfg.asn = asn;
  cfg.router_id = IPv4Address(10, 0, 0, id);
  cfg.interface_addr = IPv4Address(10, 1, 0, id);
  cfg.packer.interval = Duration::Seconds(2);
  cfg.packer.discipline = bgp::TimerDiscipline::kUnjittered;
  return cfg;
}

TEST(RouterDynamics, KeepaliveStarvationDropsSession) {
  Scheduler sched;
  // Victim: slow CPU, short hold time, no priority queuing.
  RouterConfig victim_cfg = Basic("victim", 100, 1);
  victim_cfg.cost_per_prefix = Duration::Millis(40);
  victim_cfg.hold_time_s = 9;
  Router victim(sched, victim_cfg, 1);

  RouterConfig feeder_cfg = Basic("feeder", 200, 2);
  feeder_cfg.hold_time_s = 9;
  Router feeder(sched, feeder_cfg, 2);

  Link link(sched, Duration::Millis(1));
  feeder.AttachLink(link, true, 100);
  victim.AttachLink(link, false, 200);
  sched.At(TimePoint::Origin(), [&link] { link.Restore(); });
  sched.RunUntil(TimePoint::Origin() + Duration::Seconds(5));
  ASSERT_EQ(victim.PeerSessionState(0), bgp::SessionState::kEstablished);

  // 600 prefixes at 40 ms each: 24 s of backlog >> the 9 s hold time. The
  // victim's keepalives queue behind the updates; the feeder's hold timer
  // fires.
  sched.At(TimePoint::Origin() + Duration::Seconds(6), [&feeder] {
    for (std::uint32_t i = 0; i < 600; ++i) feeder.Originate(Route24(i));
  });
  sched.RunUntil(TimePoint::Origin() + Duration::Minutes(2));
  EXPECT_GE(feeder.stats().session_downs, 1u);
}

TEST(RouterDynamics, PriorityQueuingKeepsSessionUpUnderLoad) {
  Scheduler sched;
  RouterConfig victim_cfg = Basic("victim", 100, 1);
  victim_cfg.cost_per_prefix = Duration::Millis(40);
  victim_cfg.hold_time_s = 9;
  victim_cfg.bgp_priority_queuing = true;  // the vendor fix
  Router victim(sched, victim_cfg, 1);

  RouterConfig feeder_cfg = Basic("feeder", 200, 2);
  feeder_cfg.hold_time_s = 9;
  Router feeder(sched, feeder_cfg, 2);

  Link link(sched, Duration::Millis(1));
  feeder.AttachLink(link, true, 100);
  victim.AttachLink(link, false, 200);
  sched.At(TimePoint::Origin(), [&link] { link.Restore(); });
  sched.At(TimePoint::Origin() + Duration::Seconds(6), [&feeder] {
    for (std::uint32_t i = 0; i < 600; ++i) feeder.Originate(Route24(i));
  });
  sched.RunUntil(TimePoint::Origin() + Duration::Minutes(2));
  EXPECT_EQ(feeder.stats().session_downs, 0u);
  EXPECT_EQ(victim.PeerSessionState(0), bgp::SessionState::kEstablished);
}

TEST(RouterDynamics, BadGadgetOscillatesForever) {
  // Varadhan et al.: three ASes each preferring the route heard through
  // their clockwise neighbour never converge.
  Scheduler sched;
  constexpr bgp::Asn kA = 100, kB = 200, kC = 300, kD = 400;
  auto prefer = [](bgp::Asn neighbor) {
    bgp::Policy p = bgp::Policy::AcceptAll();
    bgp::PolicyRule rule;
    rule.match.neighbor_as = neighbor;
    rule.action.set_local_pref = 200;
    p.Add(rule);
    return p;
  };

  Router a(sched, Basic("A", kA, 1), 1);
  Router b(sched, Basic("B", kB, 2), 2);
  Router c(sched, Basic("C", kC, 3), 3);
  Router d(sched, Basic("D", kD, 4), 4);

  std::vector<std::unique_ptr<Link>> links;
  auto connect = [&links, &sched](Router& x, Router& y, bgp::Policy xi,
                                  bgp::Policy yi) {
    links.push_back(std::make_unique<Link>(sched, Duration::Millis(1)));
    x.AttachLink(*links.back(), true, y.config().asn, std::move(xi));
    y.AttachLink(*links.back(), false, x.config().asn, std::move(yi));
  };
  // Ring preferences: A prefers via B, B via C, C via A. The first policy
  // argument is x's import policy for routes from y.
  connect(a, b, prefer(kB), bgp::Policy::AcceptAll());
  connect(b, c, prefer(kC), bgp::Policy::AcceptAll());
  connect(c, a, prefer(kA), bgp::Policy::AcceptAll());
  connect(d, a, bgp::Policy::AcceptAll(), bgp::Policy::AcceptAll());
  connect(d, b, bgp::Policy::AcceptAll(), bgp::Policy::AcceptAll());
  connect(d, c, bgp::Policy::AcceptAll(), bgp::Policy::AcceptAll());

  sched.At(TimePoint::Origin(), [&links] {
    for (auto& l : links) l->Restore();
  });
  sched.At(TimePoint::Origin() + Duration::Seconds(1), [&d] {
    d.Originate(Route24(0));
  });

  sched.RunUntil(TimePoint::Origin() + Duration::Minutes(5));
  const auto mid = a.stats().updates_rx + b.stats().updates_rx +
                   c.stats().updates_rx;
  sched.RunUntil(TimePoint::Origin() + Duration::Minutes(10));
  const auto late = a.stats().updates_rx + b.stats().updates_rx +
                    c.stats().updates_rx;
  // Still churning in the second window: persistent oscillation.
  EXPECT_GT(late - mid, 20u);
}

TEST(RouterDynamics, ShortestPathRingConverges) {
  // The control: same topology, no policies — provably safe, must quiesce.
  Scheduler sched;
  Router a(sched, Basic("A", 100, 1), 1);
  Router b(sched, Basic("B", 200, 2), 2);
  Router c(sched, Basic("C", 300, 3), 3);
  Router d(sched, Basic("D", 400, 4), 4);
  std::vector<std::unique_ptr<Link>> links;
  auto connect = [&links, &sched](Router& x, Router& y) {
    links.push_back(std::make_unique<Link>(sched, Duration::Millis(1)));
    x.AttachLink(*links.back(), true, y.config().asn);
    y.AttachLink(*links.back(), false, x.config().asn);
  };
  connect(a, b);
  connect(b, c);
  connect(c, a);
  connect(d, a);
  connect(d, b);
  connect(d, c);
  sched.At(TimePoint::Origin(), [&links] {
    for (auto& l : links) l->Restore();
  });
  sched.At(TimePoint::Origin() + Duration::Seconds(1), [&d] {
    d.Originate(Route24(0));
  });
  sched.RunUntil(TimePoint::Origin() + Duration::Minutes(5));
  const auto mid = a.stats().updates_rx + b.stats().updates_rx +
                   c.stats().updates_rx;
  sched.RunUntil(TimePoint::Origin() + Duration::Minutes(10));
  const auto late = a.stats().updates_rx + b.stats().updates_rx +
                    c.stats().updates_rx;
  EXPECT_EQ(late, mid);  // quiescent
  // All three transit ASes prefer the direct route via D.
  for (Router* r : {&a, &b, &c}) {
    const auto* best = r->rib().Best(Route24(0).prefix);
    ASSERT_NE(best, nullptr);
    EXPECT_EQ(r->rib().AttributesOf(*best).as_path.ToString(), "400");
  }
}

TEST(RouterDynamics, BacklogDrainsOverTime) {
  Scheduler sched;
  RouterConfig cfg = Basic("r", 100, 1);
  cfg.cost_per_prefix = Duration::Millis(50);
  Router victim(sched, cfg, 1);
  Router feeder(sched, Basic("feeder", 200, 2), 2);
  Link link(sched, Duration::Millis(1));
  feeder.AttachLink(link, true, 100);
  victim.AttachLink(link, false, 200);
  sched.At(TimePoint::Origin(), [&link] { link.Restore(); });
  sched.At(TimePoint::Origin() + Duration::Seconds(5), [&feeder] {
    for (std::uint32_t i = 0; i < 200; ++i) feeder.Originate(Route24(i));
  });
  sched.RunUntil(TimePoint::Origin() + Duration::Seconds(10));
  EXPECT_GT(victim.Backlog(), Duration());
  sched.RunUntil(TimePoint::Origin() + Duration::Minutes(2));
  EXPECT_EQ(victim.Backlog(), Duration());
}

}  // namespace
}  // namespace iri::sim
