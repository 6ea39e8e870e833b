// Mechanism-level tests for the scenario driver: each instability source
// the paper names must leave its fingerprint in the monitored stream.
#include "workload/scenario.h"

#include <gtest/gtest.h>

#include "core/stats.h"

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

}  // namespace
}  // namespace iri::workload
