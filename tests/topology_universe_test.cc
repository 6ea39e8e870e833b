#include "topology/universe.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <unordered_set>

namespace iri::topology {
namespace {

TopologyConfig SmallConfig() {
  TopologyConfig cfg;
  cfg.scale = 1.0 / 16;  // ~2600 prefixes
  cfg.num_providers = 16;
  cfg.seed = 5;
  return cfg;
}

TEST(Universe, GeneratesRequestedScale) {
  const auto u = GenerateUniverse(SmallConfig(), Duration::Days(60));
  EXPECT_NEAR(u.TotalPrefixes(), 42000 / 16, 42000 / 16 * 0.02);
  EXPECT_EQ(u.providers.size(), 16u);
}

TEST(Universe, ProviderWeightsAreZipfNormalized) {
  const auto u = GenerateUniverse(SmallConfig(), Duration::Days(60));
  double sum = 0;
  for (const auto& p : u.providers) sum += p.table_weight;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Dominance: the top provider clearly outweighs the smallest.
  EXPECT_GT(u.providers.front().table_weight,
            5 * u.providers.back().table_weight);
  // 6-8 ISPs should hold most of the table.
  double top8 = 0;
  for (int i = 0; i < 8; ++i) top8 += u.providers[i].table_weight;
  EXPECT_GT(top8, 0.7);
}

TEST(Universe, PrefixAssignmentFollowsWeights) {
  const auto u = GenerateUniverse(SmallConfig(), Duration::Days(60));
  // The largest provider must own several times the customers of the
  // smallest.
  EXPECT_GT(u.providers.front().customers.size(),
            3 * std::max<std::size_t>(1, u.providers.back().customers.size()));
}

TEST(Universe, PrefixesAreUniqueAndCanonical) {
  const auto u = GenerateUniverse(SmallConfig(), Duration::Days(60));
  std::unordered_set<Prefix> seen;
  for (const auto& c : u.customers) {
    EXPECT_TRUE(seen.insert(c.prefix).second)
        << "duplicate " << c.prefix.ToString();
    EXPECT_EQ(c.prefix.length(), 24);  // customer prefixes are /24s
  }
}

TEST(Universe, AggregatedFractionRespected) {
  const auto u = GenerateUniverse(SmallConfig(), Duration::Days(60));
  const double frac =
      1.0 - static_cast<double>(u.VisiblePrefixes()) /
                static_cast<double>(u.TotalPrefixes());
  EXPECT_NEAR(frac, u.config.aggregated_fraction, 0.04);
}

TEST(Universe, CustomerPrefixesInsideProviderBlocksUnlessSwamp) {
  const auto u = GenerateUniverse(SmallConfig(), Duration::Days(60));
  int in_block = 0, swamp = 0;
  for (const auto& c : u.customers) {
    const auto& prov =
        u.providers[static_cast<std::size_t>(c.primary_provider)];
    bool covered = false;
    for (const Prefix& block : prov.aggregate_blocks) {
      if (block.Covers(c.prefix)) {
        covered = true;
        break;
      }
    }
    if (covered) {
      ++in_block;
    } else {
      ++swamp;
      // Swamp prefixes live in the pre-CIDR 192-193/8 space.
      EXPECT_TRUE((c.prefix.bits() >> 24) == 192 ||
                  (c.prefix.bits() >> 24) == 193)
          << c.prefix.ToString();
    }
  }
  EXPECT_GT(in_block, swamp);  // most space is provider-allocated
  EXPECT_GT(swamp, 0);         // but the swamp exists
}

TEST(Universe, AggregatedPrefixesAreNeverMultihomed) {
  const auto u = GenerateUniverse(SmallConfig(), Duration::Days(60));
  for (const auto& c : u.customers) {
    if (c.aggregated) {
      EXPECT_EQ(c.backup_provider, -1);
      EXPECT_EQ(c.multihomed_since, TimePoint::Max());
    }
  }
}

TEST(Universe, MultihomingRampMatchesConfiguredFractions) {
  const Duration length = Duration::Days(100);
  const auto u = GenerateUniverse(SmallConfig(), length);
  const int visible = u.VisiblePrefixes();
  const double at_start =
      static_cast<double>(u.MultihomedAt(TimePoint::Origin())) / visible;
  const double at_end =
      static_cast<double>(u.MultihomedAt(TimePoint::Origin() + length)) /
      visible;
  EXPECT_NEAR(at_start, kMultihomedFractionStart, 0.05);
  EXPECT_NEAR(at_end, kMultihomedFractionEnd, 0.05);
  EXPECT_GT(at_end, at_start);
}

TEST(Universe, MultihomingGrowthIsRoughlyLinear) {
  const Duration length = Duration::Days(100);
  const auto u = GenerateUniverse(SmallConfig(), length);
  const int m0 = u.MultihomedAt(TimePoint::Origin());
  const int m50 = u.MultihomedAt(TimePoint::Origin() + Duration::Days(50));
  const int m100 = u.MultihomedAt(TimePoint::Origin() + Duration::Days(100));
  // Midpoint should fall near the average of the endpoints.
  EXPECT_NEAR(m50, (m0 + m100) / 2.0, 0.15 * m100);
}

TEST(Universe, BackupProviderAlwaysDiffersFromPrimary) {
  const auto u = GenerateUniverse(SmallConfig(), Duration::Days(60));
  int with_asn = 0, multihomed = 0;
  for (const auto& c : u.customers) {
    if (c.backup_provider >= 0) {
      EXPECT_NE(c.backup_provider, c.primary_provider);
      ++multihomed;
      with_asn += c.customer_asn != 0 ? 1 : 0;
    }
  }
  // Only a fraction of multihomed sites registered their own AS in 1996;
  // the rest announce provider-origin routes through both providers.
  ASSERT_GT(multihomed, 0);
  EXPECT_NEAR(static_cast<double>(with_asn) / multihomed,
              kMultihomedOwnAsnProb, 0.15);
}

TEST(Universe, BehaviouralFractionsRoughlyRespected) {
  TopologyConfig cfg = SmallConfig();
  cfg.num_providers = 40;  // more samples for the fractions
  const auto u = GenerateUniverse(cfg, Duration::Days(60));
  int stateless = 0, unjittered = 0;
  for (const auto& p : u.providers) {
    stateless += p.stateless_bgp ? 1 : 0;
    unjittered += p.unjittered_timer ? 1 : 0;
  }
  EXPECT_NEAR(stateless / 40.0, kStatelessFraction, 0.25);
  EXPECT_NEAR(unjittered / 40.0, cfg.unjittered_fraction, 0.2);
}

TEST(Universe, ChurnMultipliersUncorrelatedWithSize) {
  // Figure 6's negative result requires churn character independent of
  // table share: check rank correlation is weak.
  TopologyConfig cfg = SmallConfig();
  cfg.num_providers = 30;
  const auto u = GenerateUniverse(cfg, Duration::Days(60));
  // Spearman-ish: correlation of weight rank vs multiplier rank.
  std::vector<double> weights, multipliers;
  for (const auto& p : u.providers) {
    weights.push_back(p.table_weight);
    multipliers.push_back(p.customer_flap_multiplier);
  }
  double mw = 0, mm = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    mw += weights[i];
    mm += multipliers[i];
  }
  mw /= weights.size();
  mm /= multipliers.size();
  double cov = 0, vw = 0, vm = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    cov += (weights[i] - mw) * (multipliers[i] - mm);
    vw += (weights[i] - mw) * (weights[i] - mw);
    vm += (multipliers[i] - mm) * (multipliers[i] - mm);
  }
  const double corr = cov / std::sqrt(vw * vm);
  EXPECT_LT(std::abs(corr), 0.5);
}

TEST(Universe, DeterministicForSameSeed) {
  const auto a = GenerateUniverse(SmallConfig(), Duration::Days(60));
  const auto b = GenerateUniverse(SmallConfig(), Duration::Days(60));
  ASSERT_EQ(a.customers.size(), b.customers.size());
  for (std::size_t i = 0; i < a.customers.size(); ++i) {
    EXPECT_EQ(a.customers[i].prefix, b.customers[i].prefix);
    EXPECT_EQ(a.customers[i].primary_provider,
              b.customers[i].primary_provider);
  }
}

TEST(Universe, DifferentSeedsDiffer) {
  auto cfg = SmallConfig();
  const auto a = GenerateUniverse(cfg, Duration::Days(60));
  cfg.seed = 6;
  const auto b = GenerateUniverse(cfg, Duration::Days(60));
  bool any_diff = false;
  for (std::size_t i = 0; i < std::min(a.customers.size(), b.customers.size());
       ++i) {
    if (!(a.customers[i].prefix == b.customers[i].prefix)) {
      any_diff = true;
      break;
    }
  }
  EXPECT_TRUE(any_diff);
}

// Provider i's router id ends in octet 10 + i, so the provider count must
// stay in 1..kMaxProviders; zero would index an empty provider list.
TEST(UniverseDeathTest, ProviderCountOutOfRangeIsAnInvariantFailure) {
  TopologyConfig cfg = SmallConfig();
  cfg.num_providers = 0;
  EXPECT_DEATH(GenerateUniverse(cfg, Duration::Days(1)), "num_providers");
  cfg.num_providers = kMaxProviders + 1;
  EXPECT_DEATH(GenerateUniverse(cfg, Duration::Days(1)), "num_providers");
}

TEST(Universe, MaxProvidersKeepsAddressesDistinct) {
  TopologyConfig cfg = SmallConfig();
  cfg.num_providers = kMaxProviders;
  const auto u = GenerateUniverse(cfg, Duration::Days(1));
  std::set<std::uint32_t> router_ids;
  for (const auto& p : u.providers) router_ids.insert(p.router_id.bits());
  EXPECT_EQ(router_ids.size(), static_cast<std::size_t>(kMaxProviders));
}

}  // namespace
}  // namespace iri::topology
