// Synthetic Internet universe generator.
//
// Recreates (at configurable scale) the 1996 routing world the paper
// measured: a default-free table of ~42,000 prefixes originated by ~1,300
// ASes, with 6-8 large ISPs holding most of the table, a poorly-aggregated
// pre-CIDR "swamp", provider CIDR blocks aggregating most customer space,
// and a growing multi-homed customer population (>25% of prefixes, linear
// growth — Figure 10).
//
// Provider behavioural archetypes carry the paper's implementation findings:
// a fixed fraction run "stateless BGP" border routers and a configurable one
// unjittered 30-second flush timers; per-provider churn multipliers are drawn
// independently of provider size, so instability does NOT correlate with
// routing-table share (Figure 6's central negative result).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bgp/types.h"
#include "netbase/ipv4.h"
#include "netbase/time.h"

namespace iri::topology {

// Most providers one exchange can hold: provider i's router id and
// interface address end in octet 10 + i.
inline constexpr int kMaxProviders = 246;

// Multi-homing: fraction of *visible* prefixes multihomed at scenario
// start and end (linear ramp between; "more than 25 percent of prefixes
// are currently multi-homed" with "a relatively steep linear rate of
// growth").
inline constexpr double kMultihomedFractionStart = 0.18;
inline constexpr double kMultihomedFractionEnd = 0.28;

// Fraction of providers running stateless BGP.
inline constexpr double kStatelessFraction = 0.5;

// AS-number allocation: most 1996 customers used provider-assigned space
// with no AS of their own (the paper's table had only ~1,300 ASes for
// 42,000 prefixes). Multihomed sites need global visibility but often
// still announced through both providers without a registered ASN.
inline constexpr double kMultihomedOwnAsnProb = 0.12;

struct TopologyConfig {
  // Fraction of the paper's universe (42,000 prefixes / 1,300 ASes) to
  // generate. 1.0 is paper scale; benches default far lower and report it.
  double scale = 1.0 / 32;

  // Providers peering at the exchange (Mae-East hosted ~60; the route
  // servers peered with >90% of them; we default lower for tractability).
  // 1..kMaxProviders.
  int num_providers = 16;

  // Paper full-scale reference numbers, scaled by `scale`.
  int full_scale_prefixes = 42000;

  // Fraction of customer prefixes hidden inside provider aggregates
  // (never announced individually; visible only through the stateless
  // withdrawal pathology).
  double aggregated_fraction = 0.55;

  // Behavioural archetype: providers with a fixed-phase 30 s timer.
  double unjittered_fraction = 0.85;

  std::uint64_t seed = 1996;
};

// One customer prefix in the universe.
struct CustomerPrefix {
  Prefix prefix;
  bgp::Asn customer_asn = 0;  // 0: provider-internal (no AS of its own)
  int primary_provider = 0;   // index into Universe::providers
  int backup_provider = -1;   // >= 0 when (eventually) multihomed
  bool aggregated = false;    // hidden inside the provider's CIDR block
  bool has_alternate_path = false;  // reachable via an indirect transit path
                                    // (substrate for AADiff oscillations)
  // A "sick" route: chronically bad line/CSU, flaps all day (the paper's
  // Provider-E pattern: 8 prefixes, ~1350 updates in a day). Instability is
  // heavily concentrated on these (Figure 7's long tails).
  bool flappy = false;
  // When the backup provider starts announcing it (multihoming ramp);
  // TimePoint::Max() when never multihomed.
  TimePoint multihomed_since = TimePoint::Max();
};

struct ProviderSpec {
  std::string name;
  bgp::Asn asn = 0;
  IPv4Address router_id;
  IPv4Address interface_addr;
  double table_weight = 0;  // share of the default-free table

  bool stateless_bgp = false;
  bool unjittered_timer = true;

  // Per-provider churn multipliers, drawn independently of size — this is
  // what decorrelates Figure 6.
  double customer_flap_multiplier = 1.0;
  double internal_reset_multiplier = 1.0;

  std::vector<Prefix> aggregate_blocks;   // stable supernets it announces
  std::vector<int> customers;             // indices into Universe::customers
  // ASN used for indirect-transit alternate paths through this provider.
  bgp::Asn transit_asn = 0;
};

struct Universe {
  TopologyConfig config;
  std::vector<ProviderSpec> providers;
  std::vector<CustomerPrefix> customers;

  int TotalPrefixes() const { return static_cast<int>(customers.size()); }
  int VisiblePrefixes() const;     // not aggregated (globally announced)
  int MultihomedAt(TimePoint t) const;
};

// Generates a universe. `scenario_length` bounds the multihoming ramp.
Universe GenerateUniverse(const TopologyConfig& config,
                          Duration scenario_length);

}  // namespace iri::topology
