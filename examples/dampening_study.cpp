// Route flap dampening study (paper §3, ref [24]): how the RFC 2439
// penalty machine responds to a flapping customer route, and the
// false-suppression cost — "'legitimate' announcements about a new network
// may be delayed due to earlier dampened instability."
//
// Part 1 drives the Dampener directly and prints the penalty timeline.
// Part 2 runs two border routers and measures the reachability gap a
// downstream peer experiences after the flapping stops.
#include <cstdio>

#include "bgp/dampening.h"
#include "sim/link.h"
#include "sim/router.h"
#include "sim/scheduler.h"

using namespace iri;

namespace {

void PenaltyTimeline() {
  std::printf("=== part 1: penalty timeline for a flapping route ===\n");
  bgp::Dampener dampener;
  const bgp::PrefixPeer route{*Prefix::Parse("192.42.113.0/24"), 1};

  std::printf("%8s %10s %12s %s\n", "t(min)", "event", "penalty", "state");
  auto report = [&](double t_min, const char* event) {
    const TimePoint now = TimePoint::Origin() + Duration::Minutes(t_min);
    std::printf("%8.1f %10s %12.0f %s\n", t_min, event,
                dampener.Penalty(route, now),
                dampener.IsSuppressed(route, now) ? "SUPPRESSED" : "usable");
  };

  // Four flap cycles, two minutes apart.
  for (int i = 0; i < 4; ++i) {
    const double t = i * 2.0;
    dampener.OnWithdraw(route, TimePoint::Origin() + Duration::Minutes(t));
    report(t, "withdraw");
    dampener.OnAnnounce(route, TimePoint::Origin() + Duration::Minutes(t + 1),
                        false);
    report(t + 1, "announce");
  }
  // Query the release time now, before the decay probes advance the state.
  const TimePoint after = TimePoint::Origin() + Duration::Minutes(7);
  const TimePoint reuse = dampener.ReuseTime(route, after);

  // Decay-only aftermath.
  for (double t = 10; t <= 70; t += 10) report(t, "(decay)");
  std::printf("\nroute became stable at t=7.0 min; dampening releases it at "
              "t=%.1f min -> %.1f minutes of artificial unreachability\n\n",
              reuse.SinceOrigin().ToSeconds() / 60.0,
              (reuse - after).ToSeconds() / 60.0);
}

void EndToEndCost() {
  std::printf("=== part 2: end-to-end cost at a downstream router ===\n");
  sim::Scheduler sched;

  sim::RouterConfig edge_cfg;  // the dampening border router
  edge_cfg.name = "border";
  edge_cfg.asn = 701;
  edge_cfg.router_id = IPv4Address(10, 0, 0, 1);
  edge_cfg.interface_addr = IPv4Address(10, 1, 0, 1);
  edge_cfg.enable_dampening = true;
  edge_cfg.packer.interval = Duration::Seconds(5);
  sim::Router border(sched, edge_cfg, 1);

  sim::RouterConfig peer_cfg;
  peer_cfg.name = "downstream";
  peer_cfg.asn = 1239;
  peer_cfg.router_id = IPv4Address(10, 0, 0, 2);
  peer_cfg.interface_addr = IPv4Address(10, 1, 0, 2);
  peer_cfg.packer.interval = Duration::Seconds(5);
  sim::Router downstream(sched, peer_cfg, 2);

  sim::Link link(sched, Duration::Millis(2));
  border.AttachLink(link, true, peer_cfg.asn);
  downstream.AttachLink(link, false, edge_cfg.asn);
  sched.At(TimePoint::Origin(), [&link] { link.Restore(); });

  const Prefix customer = *Prefix::Parse("204.16.7.0/24");
  bgp::Route route;
  route.prefix = customer;

  // Flap the customer for five cycles, alternating the downstream AS path
  // (attribute changes accrue penalty too), then leave it stably up. The
  // tasks read `route` by reference: a Route does not fit a scheduler slot,
  // and it outlives the run below.
  for (int i = 0; i < 5; ++i) {
    sched.At(TimePoint::Origin() + Duration::Minutes(2.0 * i), [&border, &route] {
      border.Originate(route);
    });
    sched.At(TimePoint::Origin() + Duration::Minutes(2.0 * i + 1),
             [&border, customer] { border.WithdrawLocal(customer); });
  }
  const TimePoint final_up = TimePoint::Origin() + Duration::Minutes(10);
  sched.At(final_up, [&border, &route] { border.Originate(route); });

  // Sample downstream reachability every 30 simulated seconds.
  TimePoint reachable_at = TimePoint::Max();
  for (double t = 10; t <= 120; t += 0.5) {
    sched.At(TimePoint::Origin() + Duration::Minutes(t),
             [&downstream, &reachable_at, customer, &sched] {
               if (reachable_at == TimePoint::Max() &&
                   downstream.rib().Best(customer) != nullptr) {
                 reachable_at = sched.Now();
               }
             });
  }
  sched.RunUntil(TimePoint::Origin() + Duration::Hours(2.5));

  std::printf("customer line finally stabilized at t=10 min\n");
  if (reachable_at == TimePoint::Max()) {
    std::printf("downstream NEVER regained the route within 2.5 h\n");
  } else {
    std::printf("downstream regained the route at t=%.1f min -> %.1f min "
                "of post-stability unreachability caused by dampening\n",
                reachable_at.SinceOrigin().ToSeconds() / 60.0,
                (reachable_at - final_up).ToSeconds() / 60.0);
  }
  std::printf("damped updates at the border: %llu\n",
              static_cast<unsigned long long>(border.stats().damped_updates));
}

}  // namespace

int main() {
  PenaltyTimeline();
  EndToEndCost();
  return 0;
}
