#include "topology/universe.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "core/invariants.h"
#include "netbase/rng.h"

namespace iri::topology {
namespace {

// Zipf exponent for provider table shares (6-8 ISPs dominate).
constexpr double kProviderZipfExponent = 1.1;

// Fraction of visible prefixes that are chronically flappy.
constexpr double kFlappyFraction = 0.12;

// Single-homed customers with an AS of their own (older allocations).
constexpr double kSinglehomedOwnAsnProb = 0.01;

// Provider address space: /16 blocks carved out of 204.0.0.0/6-ish space
// (post-CIDR allocations); the pre-CIDR swamp lives in 192.0.0.0/8 and
// 193.0.0.0/8 as scattered /24s, mirroring the historical allocation mess.
Prefix ProviderBlock(int provider, int block) {
  // 204.0.0.0 + provider stride; each provider owns up to 64 /16 blocks
  // (enough for the largest ISP at paper scale: ~10k customer /24s).
  const std::uint32_t base = (204u << 24);
  const std::uint32_t addr =
      base + (static_cast<std::uint32_t>(provider) << 22) +
      (static_cast<std::uint32_t>(block & 63) << 16);
  return Prefix(IPv4Address(addr), 16);
}

Prefix SwampPrefix(Rng& rng) {
  const std::uint32_t base = (192u << 24) + (rng.Below(2) ? (1u << 24) : 0);
  const std::uint32_t addr =
      base + static_cast<std::uint32_t>(rng.Below(1u << 16)) * 256u;
  return Prefix(IPv4Address(addr), 24);
}

}  // namespace

int Universe::VisiblePrefixes() const {
  int n = 0;
  for (const auto& c : customers) {
    if (!c.aggregated) ++n;
  }
  return n;
}

int Universe::MultihomedAt(TimePoint t) const {
  int n = 0;
  for (const auto& c : customers) {
    if (c.multihomed_since <= t) ++n;
  }
  return n;
}

Universe GenerateUniverse(const TopologyConfig& config,
                          Duration scenario_length) {
  IRI_ASSERT(config.num_providers >= 1 &&
                 config.num_providers <= kMaxProviders,
             "num_providers must be in 1..kMaxProviders");
  Universe u;
  u.config = config;
  Rng rng(config.seed);

  const int num_prefixes = std::max(
      config.num_providers,
      static_cast<int>(config.full_scale_prefixes * config.scale));

  // --- providers ---
  double weight_sum = 0;
  for (int i = 0; i < config.num_providers; ++i) {
    ProviderSpec p;
    p.name = "ISP-" + std::string(1, static_cast<char>('A' + i % 26)) +
             (i >= 26 ? std::to_string(i / 26) : "");
    p.asn = static_cast<bgp::Asn>(100 + i);
    p.transit_asn = static_cast<bgp::Asn>(600 + i);
    p.router_id = IPv4Address(198, 32, 0, static_cast<std::uint8_t>(10 + i));
    p.interface_addr =
        IPv4Address(198, 32, 1, static_cast<std::uint8_t>(10 + i));
    p.table_weight =
        1.0 / std::pow(static_cast<double>(i + 1), kProviderZipfExponent);
    weight_sum += p.table_weight;
    p.stateless_bgp = rng.Uniform() < kStatelessFraction;
    p.unjittered_timer = rng.Uniform() < config.unjittered_fraction;
    // Churn character is drawn independently of size: log-normal-ish spread.
    p.customer_flap_multiplier = std::exp(rng.Normal(0.0, 0.7));
    p.internal_reset_multiplier = std::exp(rng.Normal(0.0, 0.9));
    u.providers.push_back(std::move(p));
  }
  for (auto& p : u.providers) p.table_weight /= weight_sum;

  // --- prefix allocation ---
  // Assign each prefix to a provider by table weight; decide aggregation,
  // swamp membership, alternate paths, and the multihoming schedule.
  std::vector<int> blocks_used(u.providers.size(), 0);
  std::vector<int> carved_in_block(u.providers.size(), 0);
  std::unordered_set<Prefix> swamp_used;
  bgp::Asn next_customer_asn = 1000;

  // Cumulative weights for provider sampling.
  std::vector<double> cumulative;
  double acc = 0;
  for (const auto& p : u.providers) {
    acc += p.table_weight;
    cumulative.push_back(acc);
  }

  for (int i = 0; i < num_prefixes; ++i) {
    CustomerPrefix c;
    const double r = rng.Uniform();
    c.primary_provider = static_cast<int>(
        std::lower_bound(cumulative.begin(), cumulative.end(), r) -
        cumulative.begin());
    if (c.primary_provider >= static_cast<int>(u.providers.size())) {
      c.primary_provider = static_cast<int>(u.providers.size()) - 1;
    }
    ProviderSpec& prov = u.providers[static_cast<std::size_t>(c.primary_provider)];

    c.aggregated = rng.Uniform() < config.aggregated_fraction;

    // Multihoming: only visible (non-aggregated) prefixes can be multihomed
    // (they need global visibility — the paper's aggregation-erosion story).
    if (!c.aggregated && rng.Uniform() < kMultihomedFractionEnd) {
      // Pick a distinct backup provider, weighted uniformly.
      c.backup_provider = static_cast<int>(rng.Below(u.providers.size()));
      if (c.backup_provider == c.primary_provider) {
        c.backup_provider =
            (c.backup_provider + 1) % static_cast<int>(u.providers.size());
      }
      // A share start/end is multihomed from the start; the rest come
      // online uniformly through the scenario (linear growth, Figure 10).
      if (rng.Uniform() < kMultihomedFractionStart / kMultihomedFractionEnd) {
        c.multihomed_since = TimePoint::Origin();
      } else {
        c.multihomed_since =
            TimePoint::Origin() + scenario_length * rng.Uniform();
      }
      if (rng.Uniform() < kMultihomedOwnAsnProb) {
        c.customer_asn = next_customer_asn++;
      }
    } else if (!c.aggregated &&
               rng.Uniform() < kSinglehomedOwnAsnProb) {
      // Single-homed with its own AS (older allocations).
      c.customer_asn = next_customer_asn++;
    }

    // Some visible prefixes have an indirect transit path inside the
    // provider (AADiff oscillation substrate).
    c.has_alternate_path = !c.aggregated && rng.Uniform() < 0.55;
    c.flappy = !c.aggregated && rng.Uniform() < kFlappyFraction;

    // Address: swamp /24 for ~30% of visible prefixes (pre-CIDR space),
    // provider-block carve-outs otherwise.
    const bool swamp = !c.aggregated && rng.Uniform() < 0.3;
    if (swamp) {
      // Reject duplicates: two customers must not share an address block.
      do {
        c.prefix = SwampPrefix(rng);
      } while (!swamp_used.insert(c.prefix).second);
    } else {
      auto& used = blocks_used[static_cast<std::size_t>(c.primary_provider)];
      auto& carved = carved_in_block[static_cast<std::size_t>(c.primary_provider)];
      if (carved == 0) {
        // Open a new /16 aggregate block for this provider.
        prov.aggregate_blocks.push_back(
            ProviderBlock(c.primary_provider, used));
        ++used;
      }
      const Prefix block = prov.aggregate_blocks.back();
      c.prefix = Prefix(
          IPv4Address(block.bits() +
                      (static_cast<std::uint32_t>(carved) << 8)),
          24);
      carved = (carved + 1) % 256;
    }

    prov.customers.push_back(i);
    u.customers.push_back(std::move(c));
  }

  return u;
}

}  // namespace iri::topology
