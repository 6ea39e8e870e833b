// §3 ablation: route servers vs full-mesh bilateral peering.
//
// "Each router at an exchange point normally must exchange routing
// information with every other peer router. This requires O(N^2) bilateral
// peering sessions ... [route servers reduce] the number of peering
// sessions to O(N)." This bench builds both exchange fabrics with the same
// providers and routes, runs the same flap workload, and compares session
// counts and message totals.
#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/report.h"
#include "sim/link.h"
#include "sim/router.h"
#include "sim/scheduler.h"

using namespace iri;

namespace {

// Exchange peering policy: providers announce only their own customer
// routes to peers (no transit through the exchange), exactly as at the real
// NAPs. Routes are tagged at origination.
constexpr bgp::Community kOwnTag = (65010u << 16) | 1u;

bgp::Policy OwnRoutesOnly() {
  bgp::Policy policy = bgp::Policy::DenyAll();
  bgp::PolicyRule allow;
  allow.name = "allow-own";
  allow.match.has_community = kOwnTag;
  // Strip the tag on export so the receiver cannot re-export the route:
  // peering at the exchange is non-transit.
  allow.action.strip_communities = true;
  policy.Add(allow);
  return policy;
}

struct FabricResult {
  std::size_t sessions = 0;
  std::uint64_t messages = 0;
  std::uint64_t updates = 0;
  std::size_t converged_prefixes = 0;
};

sim::RouterConfig ProviderConfig(int i) {
  sim::RouterConfig cfg;
  cfg.name = "ISP-" + std::to_string(i);
  cfg.asn = static_cast<bgp::Asn>(100 + i);
  cfg.router_id = IPv4Address(10, 0, 0, static_cast<std::uint8_t>(i + 1));
  cfg.interface_addr = IPv4Address(10, 1, 0, static_cast<std::uint8_t>(i + 1));
  cfg.packer.interval = Duration::Seconds(15);
  return cfg;
}

void OriginateSlices(std::vector<std::unique_ptr<sim::Router>>& providers,
                     int prefixes_per_provider) {
  for (std::size_t i = 0; i < providers.size(); ++i) {
    for (int k = 0; k < prefixes_per_provider; ++k) {
      bgp::Route r;
      r.prefix = Prefix(
          IPv4Address((20u << 24) | (static_cast<std::uint32_t>(i) << 16) |
                      (static_cast<std::uint32_t>(k) << 8)),
          24);
      r.attributes.communities.push_back(kOwnTag);
      providers[i]->Originate(r);
    }
  }
}

void FlapWorkload(sim::Scheduler& sched,
                  std::vector<std::unique_ptr<sim::Router>>& providers,
                  int prefixes_per_provider) {
  // Every provider flaps one prefix per minute for half an hour.
  for (int minute = 0; minute < 30; ++minute) {
    sched.At(TimePoint::Origin() + Duration::Minutes(5 + minute),
             [&providers, minute, prefixes_per_provider] {
               for (std::size_t i = 0; i < providers.size(); ++i) {
                 const Prefix p(
                     IPv4Address((20u << 24) |
                                 (static_cast<std::uint32_t>(i) << 16) |
                                 (static_cast<std::uint32_t>(
                                      minute % prefixes_per_provider)
                                  << 8)),
                     24);
                 if (minute % 2 == 0) {
                   providers[i]->WithdrawLocal(p);
                 } else {
                   bgp::Route r;
                   r.prefix = p;
                   r.attributes.communities.push_back(kOwnTag);
                   providers[i]->Originate(r);
                 }
               }
             });
  }
}

FabricResult RunFullMesh(int n, int prefixes_per_provider) {
  sim::Scheduler sched;
  std::vector<std::unique_ptr<sim::Router>> providers;
  std::vector<std::unique_ptr<sim::Link>> links;
  for (int i = 0; i < n; ++i) {
    providers.push_back(
        std::make_unique<sim::Router>(sched, ProviderConfig(i), 100 + i));
  }
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      links.push_back(std::make_unique<sim::Link>(sched, Duration::Millis(1)));
      providers[static_cast<std::size_t>(i)]->AttachLink(
          *links.back(), true, static_cast<bgp::Asn>(100 + j),
          bgp::Policy::AcceptAll(), OwnRoutesOnly());
      providers[static_cast<std::size_t>(j)]->AttachLink(
          *links.back(), false, static_cast<bgp::Asn>(100 + i),
          bgp::Policy::AcceptAll(), OwnRoutesOnly());
    }
  }
  sched.At(TimePoint::Origin(), [&links] {
    for (auto& l : links) l->Restore();
  });
  sched.At(TimePoint::Origin() + Duration::Seconds(1),
           [&providers, prefixes_per_provider] {
             OriginateSlices(providers, prefixes_per_provider);
           });
  FlapWorkload(sched, providers, prefixes_per_provider);
  sched.RunUntil(TimePoint::Origin() + Duration::Minutes(45));

  FabricResult result;
  result.sessions = links.size();
  for (auto& p : providers) {
    result.messages += p->stats().messages_rx;
    result.updates += p->stats().updates_rx;
  }
  result.converged_prefixes = providers[0]->rib().NumPrefixes();
  return result;
}

FabricResult RunRouteServer(int n, int prefixes_per_provider) {
  sim::Scheduler sched;
  sim::RouterConfig rs_cfg;
  rs_cfg.name = "route-server";
  rs_cfg.asn = 7;
  rs_cfg.router_id = IPv4Address(10, 0, 0, 250);
  rs_cfg.interface_addr = IPv4Address(10, 1, 0, 250);
  rs_cfg.transparent = true;  // full fan-out, Routing Arbiter semantics
  rs_cfg.packer.interval = Duration::Seconds(15);
  sim::Router rs(sched, rs_cfg, 7);

  std::vector<std::unique_ptr<sim::Router>> providers;
  std::vector<std::unique_ptr<sim::Link>> links;
  for (int i = 0; i < n; ++i) {
    providers.push_back(
        std::make_unique<sim::Router>(sched, ProviderConfig(i), 100 + i));
    links.push_back(std::make_unique<sim::Link>(sched, Duration::Millis(1)));
    providers.back()->AttachLink(*links.back(), true, rs_cfg.asn,
                                 bgp::Policy::AcceptAll(), OwnRoutesOnly());
    rs.AttachLink(*links.back(), false, static_cast<bgp::Asn>(100 + i));
  }
  sched.At(TimePoint::Origin(), [&links] {
    for (auto& l : links) l->Restore();
  });
  sched.At(TimePoint::Origin() + Duration::Seconds(1),
           [&providers, prefixes_per_provider] {
             OriginateSlices(providers, prefixes_per_provider);
           });
  FlapWorkload(sched, providers, prefixes_per_provider);
  sched.RunUntil(TimePoint::Origin() + Duration::Minutes(45));

  FabricResult result;
  result.sessions = links.size();
  result.messages = rs.stats().messages_rx;
  result.updates = rs.stats().updates_rx;
  for (auto& p : providers) {
    result.messages += p->stats().messages_rx;
    result.updates += p->stats().updates_rx;
  }
  result.converged_prefixes = providers[0]->rib().NumPrefixes();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed 40 prefixes per provider, run to convergence: --providers and
  // --seed apply.
  auto flags = iri::bench::Flags::Parse(argc, argv, /*days=*/std::nullopt,
                                        /*scale_denominator=*/std::nullopt,
                                        /*providers=*/12);
  iri::bench::PrintHeader(
      "Ablation: full-mesh bilateral peering vs a route server", flags);
  const int n = flags.providers;
  const int prefixes_per_provider = 40;

  std::vector<std::vector<std::string>> rows;
  const FabricResult mesh = RunFullMesh(n, prefixes_per_provider);
  const FabricResult hub = RunRouteServer(n, prefixes_per_provider);
  rows.push_back({"peering sessions", std::to_string(mesh.sessions),
                  std::to_string(hub.sessions)});
  rows.push_back({"messages received (all routers)",
                  std::to_string(mesh.messages), std::to_string(hub.messages)});
  rows.push_back({"UPDATE messages received", std::to_string(mesh.updates),
                  std::to_string(hub.updates)});
  rows.push_back({"prefixes at provider 0 (converged)",
                  std::to_string(mesh.converged_prefixes),
                  std::to_string(hub.converged_prefixes)});
  std::printf("%s\n", iri::core::FormatTable(
                          {"metric", "full-mesh", "route-server"}, rows)
                          .c_str());
  std::printf("paper: N(N-1)/2 = %d bilateral sessions vs N = %d through the "
              "route server. Both fabrics converge to the same table; "
              "\"route servers do not help limit the flood of instability "
              "information\" — every flap still reaches every peer (the "
              "server merely batches prefixes into fewer messages) — but "
              "the per-router session/state burden collapses.\n",
              n * (n - 1) / 2, n);
  return 0;
}
