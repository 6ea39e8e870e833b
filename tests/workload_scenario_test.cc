// Mechanism-level tests for the scenario driver: each instability source
// the paper names must leave its fingerprint in the monitored stream.
#include "workload/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/stats.h"
#include "netbase/rng.h"
#include "workload/guide_table.h"

namespace iri::workload {
namespace {

ScenarioConfig BaseConfig() {
  ScenarioConfig cfg;
  cfg.topology.scale = 1.0 / 128;
  cfg.topology.num_providers = 8;
  cfg.topology.seed = 3;
  cfg.seed = 4;
  cfg.duration = Duration::Hours(26);
  return cfg;
}

// Collects everything and exposes helpers.
struct Collector {
  core::CategoryCounts counts;
  core::TimeBinner instability{Duration::Minutes(10)};
  core::DailyCategoryTally daily;

  void Attach(ExchangeScenario& scenario) {
    scenario.monitor().AddSink([this](const core::ClassifiedEvent& ev) {
      counts.Add(ev);
      daily.Add(ev);
      if (core::IsInstability(ev.category)) instability.Add(ev.event.time);
    });
  }
};

TEST(Scenario, BootstrapPopulatesVisibleTablePlusAggregates) {
  auto cfg = BaseConfig();
  cfg.duration = Duration::Minutes(10);
  ExchangeScenario scenario(cfg);
  scenario.Run();
  std::size_t blocks = 0;
  for (const auto& p : scenario.universe().providers) {
    blocks += p.aggregate_blocks.size();
  }
  const auto& rib = scenario.route_server().rib();
  // Visible customers (plus multihomed duplicates as extra paths) and the
  // aggregate blocks; aggregated components must NOT be in the table.
  EXPECT_GE(rib.NumPrefixes(),
            static_cast<std::size_t>(scenario.universe().VisiblePrefixes()));
  EXPECT_LE(rib.NumPrefixes(),
            static_cast<std::size_t>(scenario.universe().VisiblePrefixes()) +
                blocks);
}

TEST(Scenario, AggregatedComponentsNeverAnnounced) {
  auto cfg = BaseConfig();
  ExchangeScenario scenario(cfg);
  std::size_t aggregated_announcements = 0;
  std::unordered_set<Prefix> aggregated_prefixes;
  for (const auto& c : scenario.universe().customers) {
    if (c.aggregated) aggregated_prefixes.insert(c.prefix);
  }
  scenario.monitor().AddSink([&](const core::ClassifiedEvent& ev) {
    if (!ev.event.is_withdraw &&
        aggregated_prefixes.contains(ev.event.prefix)) {
      ++aggregated_announcements;
    }
  });
  scenario.Run();
  EXPECT_EQ(aggregated_announcements, 0u)
      << "export policy must hide aggregated components";
}

TEST(Scenario, WWDupTargetsAreWithdrawOnly) {
  // The signature WWDup shape: withdrawals arrive for prefixes the peer
  // never announced. Verify some aggregated prefix withdrawals reached the
  // monitor (stateless leak) while announcements did not.
  auto cfg = BaseConfig();
  ExchangeScenario scenario(cfg);
  std::unordered_set<Prefix> aggregated;
  for (const auto& c : scenario.universe().customers) {
    if (c.aggregated) aggregated.insert(c.prefix);
  }
  std::size_t aggregated_withdrawals = 0;
  scenario.monitor().AddSink([&](const core::ClassifiedEvent& ev) {
    if (ev.event.is_withdraw && aggregated.contains(ev.event.prefix)) {
      ++aggregated_withdrawals;
      EXPECT_EQ(ev.category, core::Category::kWWDup);
    }
  });
  scenario.Run();
  EXPECT_GT(aggregated_withdrawals, 0u);
}

TEST(Scenario, DiurnalCycleInInstability) {
  auto cfg = BaseConfig();
  cfg.duration = Duration::Days(8);  // a full week + bootstrap day
  ExchangeScenario scenario(cfg);
  Collector collector;
  collector.Attach(scenario);
  scenario.Run();

  // Compare weekday night (00-06) against weekday afternoon (12-24).
  const auto& bins = collector.instability.bins();
  double night = 0, day = 0;
  for (int d = 2; d < 7; ++d) {  // Mon..Fri of week 0
    for (int b = 0; b < 36; ++b) {
      night += static_cast<double>(bins[static_cast<std::size_t>(d * 144 + b)]);
    }
    for (int b = 72; b < 144; ++b) {
      day += static_cast<double>(bins[static_cast<std::size_t>(d * 144 + b)]);
    }
  }
  // Normalize per bin: afternoon band should be several times denser.
  EXPECT_GT(day / 72.0, 1.8 * (night / 36.0));
}

TEST(Scenario, WeekendQuieterThanWeekdays) {
  auto cfg = BaseConfig();
  cfg.duration = Duration::Days(9);
  cfg.saturday_spike_prob = 0.0;  // isolate the weekly cycle
  ExchangeScenario scenario(cfg);
  Collector collector;
  collector.Attach(scenario);
  scenario.Run();

  const auto& days = collector.daily.days();
  ASSERT_GE(days.size(), 9u);
  const double weekend =
      static_cast<double>(days[7].Instability() + days[8].Instability()) / 2;
  double weekday = 0;
  for (int d = 2; d <= 6; ++d) {
    weekday += static_cast<double>(days[static_cast<std::size_t>(d)].Instability());
  }
  weekday /= 5;
  EXPECT_LT(weekend, 0.85 * weekday);
}

TEST(Scenario, UpgradeIncidentRaisesInstabilityAndMultihoming) {
  auto cfg = BaseConfig();
  cfg.duration = Duration::Days(12);
  cfg.upgrade_enabled = true;
  cfg.upgrade_start_day = 5;
  cfg.upgrade_end_day = 7;
  ExchangeScenario scenario(cfg);
  Collector collector;
  collector.Attach(scenario);

  std::vector<std::size_t> multihomed_per_day;
  scenario.ScheduleDaily([&scenario, &multihomed_per_day](int) {
    std::size_t n = 0;
    scenario.route_server().rib().VisitPathCounts(
        [&n](const Prefix&, std::size_t paths) {
          if (paths > 1) ++n;
        });
    multihomed_per_day.push_back(n);
  });
  scenario.Run();

  const auto& days = collector.daily.days();
  ASSERT_GE(days.size(), 10u);
  const double incident =
      static_cast<double>(days[5].Instability() + days[6].Instability()) / 2;
  const double before =
      static_cast<double>(days[3].Instability() + days[4].Instability()) / 2;
  EXPECT_GT(incident, 1.5 * before);

  // Multihoming census spikes during the window and relaxes after.
  ASSERT_GE(multihomed_per_day.size(), 10u);
  EXPECT_GT(multihomed_per_day[6], multihomed_per_day[3]);
  EXPECT_LT(multihomed_per_day[9], multihomed_per_day[6]);
}

TEST(Scenario, PathologicalIncidentDwarfsBaseline) {
  auto with_patho = BaseConfig();
  with_patho.duration = Duration::Hours(30);
  with_patho.patho_enabled = true;
  ExchangeScenario scenario(with_patho);
  Collector collector;
  collector.Attach(scenario);
  scenario.Run();

  auto without = BaseConfig();
  without.duration = Duration::Hours(30);
  ExchangeScenario baseline_scenario(without);
  Collector baseline;
  baseline.Attach(baseline_scenario);
  baseline_scenario.Run();

  EXPECT_GT(collector.counts.Of(core::Category::kWWDup),
            3 * baseline.counts.Of(core::Category::kWWDup));
}

TEST(Scenario, MultihomingRampVisibleInRib) {
  auto cfg = BaseConfig();
  cfg.duration = Duration::Days(20);
  // Quiet the event machinery: only the ramp matters here.
  cfg.customer_flap_rate = 0;
  cfg.csu_episode_rate = 0;
  cfg.oscillation_episode_rate = 0;
  cfg.path_change_rate = 0;
  cfg.policy_fluctuation_rate = 0;
  cfg.internal_reset_episode_rate = 0;
  cfg.failover_rate = 0;
  cfg.maintenance_reset_prob = 0;
  ExchangeScenario scenario(cfg);

  std::vector<std::size_t> census;
  scenario.ScheduleDaily([&scenario, &census](int) {
    std::size_t n = 0;
    scenario.route_server().rib().VisitPathCounts(
        [&n](const Prefix&, std::size_t paths) {
          if (paths > 1) ++n;
        });
    census.push_back(n);
  });
  scenario.Run();
  ASSERT_GE(census.size(), 19u);
  EXPECT_GT(census.back(), census.front());
  // Expected multihomed counts track the universe schedule.
  const int expected_end = scenario.universe().MultihomedAt(
      TimePoint::Origin() + Duration::Days(19));
  EXPECT_NEAR(static_cast<double>(census.back()), expected_end,
              0.1 * expected_end + 3);
}

TEST(Scenario, TableSharesSumToOne) {
  auto cfg = BaseConfig();
  cfg.duration = Duration::Minutes(30);
  ExchangeScenario scenario(cfg);
  scenario.Run();
  double sum = 0;
  for (int p = 0; p < cfg.topology.num_providers; ++p) {
    sum += scenario.TableShare(p);
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Scenario, ExplicitUniverseInjection) {
  auto cfg = BaseConfig();
  cfg.duration = Duration::Minutes(10);
  auto universe =
      topology::GenerateUniverse(cfg.topology, cfg.duration);
  const auto providers = universe.providers.size();
  ExchangeScenario scenario(cfg, std::move(universe));
  scenario.Run();
  EXPECT_EQ(scenario.route_server().num_peers(), providers);
}

// A scenario is one exchange point: K exchanges are K partitions of
// MultiExchangeRunner, never one scenario quietly building one exchange.
TEST(ScenarioDeathTest, MoreThanOneExchangeIsRefused) {
  auto cfg = BaseConfig();
  cfg.duration = Duration::Minutes(10);
  cfg.num_exchanges = 2;
  EXPECT_DEATH(ExchangeScenario{cfg}, "num_exchanges == 1");
}

// --- GuideTable: SampleCustomer's lookup is exactly std::lower_bound ------

// Cumulative weights shaped like the universe's: runs of customers share
// their provider's log-normal flap multiplier, and a few zero weights make
// equal neighbours (lower_bound must return the first of them).
std::vector<double> CustomerLikeCumulative(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> multipliers(16);
  for (double& m : multipliers) m = std::exp(rng.Normal(0.0, 0.7));
  std::vector<double> cumulative;
  double acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!rng.Bernoulli(0.01)) {
      acc += multipliers[rng.Below(multipliers.size())];
    }
    cumulative.push_back(acc);
  }
  return cumulative;
}

std::size_t Reference(const std::vector<double>& cumulative, double r) {
  return static_cast<std::size_t>(
      std::lower_bound(cumulative.begin(), cumulative.end(), r) -
      cumulative.begin());
}

// Every guide boundary and every stored weight, each with its two
// neighbouring doubles.
void ExpectExactAtEveryBoundary(const std::vector<double>& cumulative) {
  const GuideTable table(cumulative);
  std::vector<double> probes = {0.0, -1.0, table.total(),
                                std::nextafter(table.total(), 1e300),
                                std::numeric_limits<double>::infinity()};
  for (std::size_t g = 0; g <= table.guide_size(); ++g) {
    probes.push_back(table.Bound(g));
  }
  probes.insert(probes.end(), cumulative.begin(), cumulative.end());
  for (const double base : std::vector<double>(probes)) {
    probes.push_back(std::nextafter(base, -1e300));
    probes.push_back(std::nextafter(base, 1e300));
  }
  for (const double r : probes) {
    ASSERT_EQ(table.LowerBound(r), Reference(cumulative, r)) << "r=" << r;
  }
}

TEST(GuideTable, MatchesLowerBoundOnAMillionSeededDraws) {
  const std::vector<double> cumulative = CustomerLikeCumulative(42000, 1996);
  const GuideTable table(cumulative);
  EXPECT_EQ(table.guide_size(), 42000u / 16);
  Rng rng(2718);
  for (int i = 0; i < 1'000'000; ++i) {
    // SampleCustomer's draw, then a range reaching past both ends.
    const double r = rng.Uniform() * table.total();
    ASSERT_EQ(table.LowerBound(r), Reference(cumulative, r)) << "r=" << r;
    const double wide = (rng.Uniform() * 1.2 - 0.1) * table.total();
    ASSERT_EQ(table.LowerBound(wide), Reference(cumulative, wide))
        << "r=" << wide;
  }
}

// Weights placed on every guide bound and one ulp either side of it, so a
// lookup whose bucket arithmetic rounds the wrong way must still search
// the right range.
std::vector<double> BoundaryHuggingCumulative(std::size_t n, double total) {
  const std::size_t guides = std::max<std::size_t>(1, n / 16);
  const double width = total / static_cast<double>(guides);
  std::vector<double> cumulative;
  for (std::size_t g = 1; g < guides; ++g) {
    const double bound = static_cast<double>(g) * width;
    cumulative.push_back(std::nextafter(bound, 0.0));
    cumulative.push_back(bound);
    cumulative.push_back(std::nextafter(bound, total));
  }
  Rng rng(n);
  while (cumulative.size() + 1 < n) {
    cumulative.push_back(rng.Uniform() * total);
  }
  std::sort(cumulative.begin(), cumulative.end());
  cumulative.push_back(total);
  return cumulative;
}

TEST(GuideTable, MatchesLowerBoundAtEveryGuideBoundary) {
  ExpectExactAtEveryBoundary(CustomerLikeCumulative(42000, 7));
  for (const double total : {1.0, 3.0, 42000.0 * 1.37, 1e-3, 7e9}) {
    SCOPED_TRACE(total);
    const std::vector<double> hugging =
        BoundaryHuggingCumulative(42000, total);
    // The table's bounds are the ones the weights were placed on.
    const GuideTable table(hugging);
    for (std::size_t g = 1; g < table.guide_size(); ++g) {
      ASSERT_TRUE(std::binary_search(hugging.begin(), hugging.end(),
                                     table.Bound(g)));
    }
    ExpectExactAtEveryBoundary(hugging);
  }
  // Sizes around one guide entry, no weights, and all-zero weights.
  for (const std::size_t n : {0u, 1u, 15u, 16u, 17u, 32u, 33u, 1000u}) {
    SCOPED_TRACE(n);
    ExpectExactAtEveryBoundary(CustomerLikeCumulative(n, n));
  }
  ExpectExactAtEveryBoundary(std::vector<double>(40, 0.0));
}

}  // namespace
}  // namespace iri::workload
