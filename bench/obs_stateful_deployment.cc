// §4.2's decisive natural experiment, reproduced: "On the same day ...
// ISP-Y advertised 2 million withdrawals through their stateless BGP
// routers at AADS, the service provider advertised only 1905 withdrawals
// through their routers with the updated, stateful software at Mae-East."
//
// One provider, one set of internal events, two exchange points: the border
// router at exchange A runs the stateless implementation, the router at
// exchange B runs the stateful fix. Both see the identical internal churn.
#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/monitor.h"
#include "core/report.h"
#include "core/stats.h"
#include "netbase/rng.h"
#include "sim/link.h"
#include "sim/router.h"
#include "sim/scheduler.h"

using namespace iri;

namespace {

constexpr bgp::Community kOwnTag = (65000u << 16) | 2u;
constexpr bgp::Community kAggTag = (65000u << 16) | 1u;

sim::Router* MakeRouteServer(sim::Scheduler& sched, const char* name,
                             std::uint8_t id,
                             std::vector<std::unique_ptr<sim::Router>>& own) {
  sim::RouterConfig cfg;
  cfg.name = name;
  cfg.asn = 7;
  cfg.router_id = IPv4Address(198, 32, id, 1);
  cfg.interface_addr = IPv4Address(198, 32, id, 2);
  cfg.transparent = true;
  cfg.no_reexport = true;
  own.push_back(std::make_unique<sim::Router>(sched, cfg, id));
  return own.back().get();
}

sim::Router* MakeBorderRouter(sim::Scheduler& sched, const char* name,
                              bool stateless, std::uint8_t id,
                              std::vector<std::unique_ptr<sim::Router>>& own) {
  sim::RouterConfig cfg;
  cfg.name = name;
  cfg.asn = 4200;
  cfg.router_id = IPv4Address(10, 0, 0, id);
  cfg.interface_addr = IPv4Address(10, 1, 0, id);
  cfg.stateless_bgp = stateless;
  cfg.packer.interval = Duration::Seconds(30);
  cfg.packer.discipline = bgp::TimerDiscipline::kUnjittered;
  own.push_back(std::make_unique<sim::Router>(sched, cfg, id));
  return own.back().get();
}

}  // namespace

int main(int argc, char** argv) {
  // One ISP's two border routers at two exchanges: --providers does not
  // apply.
  auto flags = bench::Flags::Parse(argc, argv, /*days=*/1.0,
                                   /*scale_denominator=*/16,
                                   /*providers=*/std::nullopt);
  bench::PrintHeader(
      "§4.2: the stateful software fix, measured at two exchanges at once",
      flags);

  sim::Scheduler sched;
  Rng rng(flags.seed);
  std::vector<std::unique_ptr<sim::Router>> routers;
  std::vector<std::unique_ptr<sim::Link>> links;

  // Two exchange points with their Routing Arbiter collectors.
  sim::Router* aads = MakeRouteServer(sched, "rs-AADS", 1, routers);
  sim::Router* mae_east = MakeRouteServer(sched, "rs-MaeEast", 2, routers);
  core::ExchangeMonitor aads_monitor, mae_monitor;
  aads_monitor.Attach(*aads);
  mae_monitor.Attach(*mae_east);

  // ISP-Y's two border routers: old software at AADS, the fix at Mae-East.
  sim::Router* at_aads =
      MakeBorderRouter(sched, "ispY-AADS", /*stateless=*/true, 10, routers);
  sim::Router* at_mae =
      MakeBorderRouter(sched, "ispY-MaeEast", /*stateless=*/false, 11, routers);

  bgp::Policy exp = bgp::Policy::DenyAll();
  {
    bgp::PolicyRule deny_agg;
    deny_agg.match.has_community = kAggTag;
    deny_agg.action.deny = true;
    exp.Add(std::move(deny_agg));
    bgp::PolicyRule allow_own;
    allow_own.match.has_community = kOwnTag;
    exp.Add(std::move(allow_own));
  }
  auto connect = [&](sim::Router* border, sim::Router* rs) {
    links.push_back(std::make_unique<sim::Link>(sched, Duration::Millis(2)));
    border->AttachLink(*links.back(), true, 7, bgp::Policy::AcceptAll(), exp);
    rs->AttachLink(*links.back(), false, 4200);
  };
  connect(at_aads, aads);
  connect(at_mae, mae_east);
  sched.At(TimePoint::Origin(), [&links] {
    for (auto& l : links) l->Restore();
  });

  // ISP-Y's world: a handful of exported customer routes, a large
  // aggregated (unexported) customer base, and a big transit table learned
  // over a flaky private adjacency. Identical on both routers.
  const int num_exported = 16;
  const int num_aggregated =
      static_cast<int>(900 * 16 / flags.scale_denominator);
  const int num_transit =
      static_cast<int>(14000 / flags.scale_denominator * 16 / 16);
  std::vector<Prefix> transit_table;
  sched.At(TimePoint::Origin() + Duration::Seconds(2), [&] {
    auto originate_everywhere = [&](const bgp::Route& r) {
      at_aads->Originate(r);
      at_mae->Originate(r);
    };
    for (int i = 0; i < num_exported; ++i) {
      bgp::Route r;
      r.prefix = Prefix(IPv4Address(204, 30, static_cast<std::uint8_t>(i), 0), 24);
      r.attributes.communities = {kOwnTag};
      originate_everywhere(r);
    }
    for (int i = 0; i < num_aggregated; ++i) {
      bgp::Route r;
      r.prefix = Prefix(IPv4Address((205u << 24) |
                                    (static_cast<std::uint32_t>(i) << 8)),
                        24);
      r.attributes.communities = {kAggTag, kOwnTag};
      std::sort(r.attributes.communities.begin(),
                r.attributes.communities.end());
      originate_everywhere(r);
    }
  });
  for (int i = 0; i < num_transit; ++i) {
    transit_table.push_back(Prefix(
        IPv4Address((206u << 24) | (static_cast<std::uint32_t>(i) << 8)), 24));
  }

  // The incident: the private transit adjacency flaps all day; every flap
  // sprays the transit table and marks the local table dirty, on BOTH
  // routers (it is the same AS-internal event).
  const int flaps_per_day = 170;
  for (int k = 0; k < static_cast<int>(flaps_per_day * flags.days); ++k) {
    const Duration at =
        Duration::Days(flags.days) * rng.Uniform() + Duration::Minutes(5);
    sched.At(TimePoint::Origin() + at, [&, k] {
      at_aads->SprayWithdrawals(transit_table);
      at_mae->SprayWithdrawals(transit_table);
      at_aads->InternalReset();
      at_mae->InternalReset();
    });
  }

  // Meanwhile, genuine customer flaps continue on the exported routes —
  // the ~1,905 *legitimate* withdrawals the stateful router still sent.
  const int real_flaps =
      static_cast<int>(1905 / flags.scale_denominator * flags.days);
  for (int k = 0; k < real_flaps; ++k) {
    const Duration at =
        Duration::Days(flags.days) * rng.Uniform() + Duration::Minutes(5);
    const auto idx = static_cast<std::uint8_t>(rng.Below(num_exported));
    sched.At(TimePoint::Origin() + at, [&, idx] {
      const Prefix p(IPv4Address(204, 30, idx, 0), 24);
      at_aads->WithdrawLocal(p);
      at_mae->WithdrawLocal(p);
      sched.After(Duration::Seconds(90 + 60 * rng.Uniform()), [&, p] {
        bgp::Route r;
        r.prefix = p;
        r.attributes.communities = {kOwnTag};
        at_aads->Originate(r);
        at_mae->Originate(r);
      });
    });
  }

  sched.RunUntil(TimePoint::Origin() + Duration::Days(flags.days) +
                 Duration::Minutes(2));

  auto report = [](const char* name, const core::ExchangeMonitor& monitor) {
    const auto& t = monitor.classifier().totals();
    std::uint64_t withdrawals =
        t[static_cast<std::size_t>(core::Category::kWWDup)] +
        t[static_cast<std::size_t>(core::Category::kWithdraw)];
    std::uint64_t announcements = monitor.events_seen() - withdrawals;
    std::printf("%-22s %10llu withdrawals  %8llu announcements\n", name,
                static_cast<unsigned long long>(withdrawals),
                static_cast<unsigned long long>(announcements));
    return withdrawals;
  };
  const std::uint64_t w_aads = report("AADS (stateless)", aads_monitor);
  const std::uint64_t w_mae = report("Mae-East (stateful)", mae_monitor);

  std::printf("\nextrapolated to paper scale: %.2fM vs %.0f withdrawals "
              "(paper: ~2M at AADS vs 1,905 at Mae-East)\n",
              bench::FullScale(static_cast<double>(w_aads), flags) / 1e6,
              bench::FullScale(static_cast<double>(w_mae), flags));
  std::printf("reduction factor: %.0fx\n",
              w_mae ? static_cast<double>(w_aads) / static_cast<double>(w_mae)
                    : static_cast<double>(w_aads));
  return 0;
}
