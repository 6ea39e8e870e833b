#include "workload/scenario.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/invariants.h"
#include "netbase/rng.h"

namespace iri::workload {
namespace {

constexpr Duration kDay = Duration::Days(1);

// --- legitimate instability ---
constexpr Duration kMeanRepairTime = Duration::Seconds(75);
constexpr Duration kMeanFailoverRepair = Duration::Minutes(8);

// --- oscillation episodes ---
// Episode *targets* are drawn provider-first (uniformly across ASes, not
// across prefixes), which decorrelates update share from routing-table
// share — Figure 6's central negative result. The flappy subset gets
// most episodes and much longer ones (Figure 7's heavy tails; the
// paper's Provider-E pattern of a few prefixes updating all day).
constexpr double kEpisodeFlappyBias = 0.6;
constexpr Duration kMeanEpisodeLength = Duration::Minutes(4);
constexpr Duration kMaxEpisodeLength = Duration::Hours(4);
constexpr double kFlappyEpisodeMultiplier = 8.0;  // length multiplier
// Chance that a CSU line recovery comes back via the indirect transit
// path (turns a WADup into a WADiff at the collector).
constexpr double kCsuPathToggleProb = 0.6;

// --- pathological mechanisms ---
constexpr double kInternalResetBeatsMean = 5.0;  // resets per episode
// Fraction of the provider's own routes behind the flapping internal
// adjacency (each beat re-dirties a fresh sample).
constexpr double kInternalResetDirtyFraction = 0.3;

// --- maintenance windows (Figure 3's ~10:00 ridge) ---
constexpr double kMaintenanceHour = 10.0;
constexpr double kMaintenanceWindowH = 0.5;
constexpr double kMaintenanceBoost = 5.0;  // flap-rate boost in window

// --- Saturday spikes ---
constexpr double kSaturdaySpikeBoost = 6.0;
constexpr Duration kSaturdaySpikeLength = Duration::Hours(1.5);

// --- the upgrade incident (Figure 3 / Figure 10) ---
constexpr double kUpgradeFlapMultiplier = 10.0;
constexpr int kUpgradeProvider = 0;  // index; 0 is the largest ISP

// --- the pathological small-ISP incident (Table 1's ISP-I) ---
// Fraction of the universe in its table. At 1.0 every customer is in it,
// but the per-customer draw stays: the RNG stream depends on it.
constexpr double kPathoTableFraction = 1.0;

// --- routers and links ---
// The paper's 30 s flush timer (unjittered at most providers).
constexpr Duration kFlushInterval = Duration::Seconds(30);
constexpr Duration kLinkLatency = Duration::Millis(2);

// --- streaming telemetry (obs/timeseries.h, obs/health.h) ---
// Period of the sim-time flush event that drains the series instruments
// into JSONL records and feeds the health detectors. Must divide the timer
// periods HealthConfig watches for the periodicity score to see them (10 s
// against 30 s/60 s by default).
constexpr Duration kSeriesFlushInterval = Duration::Seconds(10);

int DayIndex(TimePoint t) {
  return static_cast<int>(t.nanos() / kDay.nanos());
}

}  // namespace

ExchangeScenario::ExchangeScenario(ScenarioConfig config)
    : ExchangeScenario(
          config, topology::GenerateUniverse(config.topology, config.duration)) {}

ExchangeScenario::ExchangeScenario(ScenarioConfig config,
                                   topology::Universe universe)
    : config_(std::move(config)),
      universe_(std::move(universe)),
      usage_(UsageConfig{}),
      health_(obs::HealthConfig{}, kSeriesFlushInterval, &trace_, &metrics_),
      rng_(config_.seed) {
  IRI_ASSERT(config_.num_exchanges == 1,
             "ExchangeScenario is one exchange point; run K exchanges "
             "through MultiExchangeRunner");
  Build();
  Bootstrap();
  ScheduleProcesses();
}

void ExchangeScenario::Build() {
  metrics_.SetWallClockProfiling(config_.profile_wall_clock);
  sched_.AttachMetrics(&metrics_);
  prov_.SetTracer(&trace_);

  // --- the route server (the Routing Arbiter's AS) and its monitor ---
  sim::RouterConfig rs_cfg;
  rs_cfg.name = "route-server-0";
  rs_cfg.asn = 7;
  rs_cfg.router_id = IPv4Address(198, 32, 0, 1);
  rs_cfg.interface_addr = IPv4Address(198, 32, 0, 2);
  rs_cfg.transparent = true;
  rs_cfg.no_reexport = true;  // monitor statistics never need the fan-out
  rs_cfg.hold_time_s = 180;
  rs_cfg.packer.interval = Duration::Seconds(10);
  rs_cfg.packer.discipline = bgp::TimerDiscipline::kJittered;
  route_server_ = std::make_unique<sim::Router>(sched_, rs_cfg, rng_.Next());
  route_server_->AttachObservability(&metrics_, &trace_);
  route_server_->SetProvenance(&prov_);
  monitor_ = std::make_unique<core::ExchangeMonitor>();
  monitor_->Attach(*route_server_);
  monitor_->AttachMetrics(&metrics_);

  // --- streaming telemetry: series instruments + health detectors ---
  // The monitor feeds the named instruments, and the flush tick samples the
  // same windows for the health feed — so the caches below and the
  // monitor's caches alias by name.
  series_updates_ = &series_.GetCounter("monitor.updates");
  series_wwdup_ = &series_.GetCounter("monitor.wwdup");
  series_aadup_ = &series_.GetCounter("monitor.aadup");
  monitor_->AttachTimeSeries(&series_, &health_);

  // --- the pathological provider: the smallest table weight (providers
  // are in Zipf order, so the last one) ---
  if (config_.patho_enabled) {
    // The incident requires the stateless implementation (the spray is a
    // no-op through a stateful border router).
    universe_.providers.back().stateless_bgp = true;
  }

  // --- provider border routers + their exchange links ---
  for (const auto& spec : universe_.providers) {
    sim::RouterConfig cfg;
    cfg.name = spec.name;
    cfg.asn = spec.asn;
    cfg.router_id = spec.router_id;
    cfg.interface_addr = spec.interface_addr;
    cfg.stateless_bgp = spec.stateless_bgp && !config_.force_all_stateful;
    cfg.hold_time_s = 90;
    cfg.packer.interval = kFlushInterval;
    cfg.packer.discipline =
        (spec.unjittered_timer && !config_.force_all_jittered)
            ? bgp::TimerDiscipline::kUnjittered
            : bgp::TimerDiscipline::kJittered;
    cfg.enable_dampening = config_.providers_dampen;
    auto router = std::make_unique<sim::Router>(sched_, cfg, rng_.Next());

    // Export policy toward the exchange: own routes only, and never the
    // aggregated customer components. Stateless withdrawal sprays bypass
    // this policy — that asymmetry is the WWDup pathology.
    bgp::Policy exp = bgp::Policy::DenyAll();
    {
      bgp::PolicyRule deny_aggregated;
      deny_aggregated.name = "deny-aggregated-components";
      deny_aggregated.match.has_community = kAggregatedTag;
      deny_aggregated.action.deny = true;
      exp.Add(std::move(deny_aggregated));
      bgp::PolicyRule allow_own;
      allow_own.name = "allow-own-routes";
      allow_own.match.has_community = kOwnRouteTag;
      exp.Add(std::move(allow_own));
    }

    auto link = std::make_unique<sim::Link>(sched_, kLinkLatency);
    router->AttachObservability(&metrics_, &trace_);
    router->SetProvenance(&prov_);
    link->AttachObservability(&metrics_, &trace_, cfg.name);
    link->SetProvenance(&prov_);
    router->AttachLink(*link, /*side_a=*/true, 7, bgp::Policy::AcceptAll(),
                       std::move(exp));
    route_server_->AttachLink(*link, /*side_a=*/false, spec.asn);

    borders_.push_back(std::move(router));
    links_.push_back(std::move(link));
  }

  // The cached attribute ids sit in what was padding: one state per
  // customer, 42 k at paper scale.
  static_assert(sizeof(CustomerState) <= 40);
  customer_state_.assign(universe_.customers.size(), CustomerState{});

  // Weighted customer sampling table (per-provider flap multipliers).
  std::vector<double> cumulative;
  cumulative.reserve(universe_.customers.size());
  double acc = 0;
  for (const auto& c : universe_.customers) {
    acc += universe_.providers[static_cast<std::size_t>(c.primary_provider)]
               .customer_flap_multiplier;
    cumulative.push_back(acc);
  }
  customer_weights_ = GuideTable(std::move(cumulative));

  for (const auto& c : universe_.customers) {
    if (!c.aggregated) {
      foreign_prefixes_.emplace_back(c.prefix, c.primary_provider);
    }
  }
  // Each stateless provider's internal resets disturb a *fixed* subset of
  // the exchange-learned table (the portion of its internal RIB behind the
  // flaky adjacency). A stable leak set keeps the WWDup spray targets
  // persistent across resets, as observed — the same prefixes withdrawn
  // over and over.
  foreign_leak_sets_.resize(universe_.providers.size());
  for (std::size_t p = 0; p < universe_.providers.size(); ++p) {
    if (!universe_.providers[p].stateless_bgp) continue;
    for (const auto& [prefix, owner] : foreign_prefixes_) {
      if (owner == static_cast<int>(p)) continue;
      if (rng_.Uniform() < config_.internal_reset_foreign_fraction) {
        foreign_leak_sets_[p].push_back(prefix);
      }
    }
  }

  // The pathological ISP's learned table: a sample of the visible universe.
  if (config_.patho_enabled) {
    for (std::size_t i = 0; i < universe_.customers.size(); ++i) {
      if (universe_.customers[i].aggregated) continue;
      if (rng_.Uniform() < kPathoTableFraction) {
        patho_table_.push_back(static_cast<int>(i));
      }
    }
  }
}

void ExchangeScenario::OriginateAt(int provider, const bgp::Route& route) {
  borders_[static_cast<std::size_t>(provider)]->Originate(route);
}

void ExchangeScenario::OriginateCustomer(int customer, bool alternate_path) {
  auto& st = customer_state_[static_cast<std::size_t>(customer)];
  const auto& c = universe_.customers[static_cast<std::size_t>(customer)];
  sim::Router& border = *borders_[static_cast<std::size_t>(c.primary_provider)];
  // A crashed border drops the origination before interning, so the cache
  // fills at the same call that would have minted the id.
  if (border.crashed()) return;
  bgp::AttrSetId& id = alternate_path ? st.alternate_attrs : st.direct_attrs;
  if (id == bgp::kInvalidAttrSetId) {
    id = border.InternLocal(
        CustomerRoute(customer, /*via_primary=*/true, alternate_path)
            .attributes);
  }
  border.Originate(c.prefix, id);
}

void ExchangeScenario::WithdrawAt(int provider, const Prefix& prefix) {
  borders_[static_cast<std::size_t>(provider)]->WithdrawLocal(prefix);
}

int ExchangeScenario::SampleCustomer() {
  const double r = rng_.Uniform() * customer_weights_.total();
  return static_cast<int>(customer_weights_.LowerBound(r));
}

bgp::Route ExchangeScenario::CustomerRoute(int customer, bool via_primary,
                                           bool alternate_path) const {
  const auto& c = universe_.customers[static_cast<std::size_t>(customer)];
  const auto& prov =
      universe_.providers[static_cast<std::size_t>(
          via_primary ? c.primary_provider : c.backup_provider)];
  bgp::Route r;
  r.prefix = c.prefix;
  r.attributes.origin = bgp::Origin::kIgp;
  std::vector<bgp::Asn> path;
  if (alternate_path) path.push_back(prov.transit_asn);
  if (c.customer_asn != 0) path.push_back(c.customer_asn);
  r.attributes.as_path = bgp::AsPath::Sequence(std::move(path));
  r.attributes.communities.push_back(kOwnRouteTag);
  if (c.aggregated) r.attributes.communities.push_back(kAggregatedTag);
  std::sort(r.attributes.communities.begin(), r.attributes.communities.end());
  const auto& st = customer_state_[static_cast<std::size_t>(customer)];
  if (st.policy_serial > 0) r.attributes.med = static_cast<std::uint32_t>(
      st.policy_serial % 8);
  return r;
}

void ExchangeScenario::Bootstrap() {
  // Bring every exchange link up at t=0; BGP sessions establish within the
  // first few RTTs.
  sched_.At(TimePoint::Origin(), [this] {
    obs::CauseScope scope(&prov_, obs::CauseKind::kBootstrap, sched_.Now());
    for (auto& link : links_) link->Restore();
  });

  // Originate the world at t=2s: provider aggregates, visible customers,
  // aggregated components, and already-multihomed backups.
  sched_.At(TimePoint::Origin() + Duration::Seconds(2), [this] {
    obs::CauseScope scope(&prov_, obs::CauseKind::kBootstrap, sched_.Now());
    for (std::size_t i = 0; i < universe_.providers.size(); ++i) {
      const auto& spec = universe_.providers[i];
      for (const Prefix& block : spec.aggregate_blocks) {
        bgp::Route r;
        r.prefix = block;
        r.attributes.origin = bgp::Origin::kIgp;
        r.attributes.atomic_aggregate = true;
        r.attributes.aggregator = bgp::Aggregator{spec.asn, spec.router_id};
        r.attributes.communities.push_back(kOwnRouteTag);
        OriginateAt(static_cast<int>(i), r);
      }
    }
    for (std::size_t ci = 0; ci < universe_.customers.size(); ++ci) {
      const auto& c = universe_.customers[ci];
      OriginateCustomer(static_cast<int>(ci), /*alternate_path=*/false);
      if (c.backup_provider >= 0 &&
          c.multihomed_since <= sched_.Now()) {
        ActivateBackup(static_cast<int>(ci));
      }
    }
  });

  // Multihoming growth schedule (Figure 10's linear ramp).
  for (std::size_t ci = 0; ci < universe_.customers.size(); ++ci) {
    const auto& c = universe_.customers[ci];
    if (c.backup_provider >= 0 && c.multihomed_since > TimePoint::Origin() &&
        c.multihomed_since < TimePoint::Max()) {
      sched_.At(c.multihomed_since, [this, ci] {
        obs::CauseScope scope(&prov_, obs::CauseKind::kMultihoming,
                              sched_.Now());
        ActivateBackup(static_cast<int>(ci));
      });
    }
  }
}

void ExchangeScenario::ActivateBackup(int customer) {
  auto& st = customer_state_[static_cast<std::size_t>(customer)];
  if (st.backup_active) return;
  const auto& c = universe_.customers[static_cast<std::size_t>(customer)];
  if (c.backup_provider < 0) return;
  st.backup_active = true;
  OriginateAt(c.backup_provider,
              CustomerRoute(customer, /*via_primary=*/false, false));
}

// ----------------------------------------------------------- scheduling

void ExchangeScenario::SchedulePoisson(double events_per_day,
                                       double max_level,
                                       std::function<void()> fire) {
  if (events_per_day <= 0 || max_level <= 0) return;
  const double mean_gap_s = 86400.0 / (events_per_day * max_level);
  const Duration wait = Duration::Seconds(rng_.Exponential(mean_gap_s));
  sched_.After(wait, [this, events_per_day, max_level,
                      fire = std::move(fire)]() mutable {
    fire();
    SchedulePoisson(events_per_day, max_level, std::move(fire));
  });
}

double ExchangeScenario::FlapBoost(TimePoint t, int provider) const {
  double boost = 1.0;
  const double hour = UsageModel::HourOfDay(t);
  if (hour >= kMaintenanceHour &&
      hour < kMaintenanceHour + kMaintenanceWindowH) {
    boost *= kMaintenanceBoost;
  }
  if (t < saturday_boost_end_) boost *= saturday_boost_;
  if (config_.upgrade_enabled && provider == kUpgradeProvider) {
    const int day = DayIndex(t);
    if (day >= config_.upgrade_start_day && day <= config_.upgrade_end_day) {
      boost *= kUpgradeFlapMultiplier;
    }
  }
  return boost;
}

void ExchangeScenario::ScheduleProcesses() {
  const double env_usage = usage_.MaxLevel(config_.duration);
  const double max_boost =
      std::max({kMaintenanceBoost, kSaturdaySpikeBoost,
                config_.upgrade_enabled ? kUpgradeFlapMultiplier : 1.0});
  const double env_flap = env_usage * max_boost;

  const int n_customers = universe_.TotalPrefixes();
  const std::size_t n_providers = universe_.providers.size();
  int n_visible = 0, n_alternate = 0, n_multihomed = 0;
  std::vector<int> multihomed;
  // Per-provider target lists: episode/path-change events pick a provider
  // first (uniformly), THEN one of its customers — so an AS's share of the
  // update stream is independent of its share of the routing table
  // (Figure 6).
  std::vector<std::vector<int>> visible_by(n_providers);
  std::vector<std::vector<int>> flappy_by(n_providers);
  std::vector<std::vector<int>> alternates_by(n_providers);
  for (std::size_t i = 0; i < universe_.customers.size(); ++i) {
    const auto& c = universe_.customers[i];
    const auto p = static_cast<std::size_t>(c.primary_provider);
    if (!c.aggregated) {
      ++n_visible;
      visible_by[p].push_back(static_cast<int>(i));
      if (c.flappy) flappy_by[p].push_back(static_cast<int>(i));
    }
    if (c.has_alternate_path) {
      ++n_alternate;
      alternates_by[p].push_back(static_cast<int>(i));
    }
    if (c.backup_provider >= 0) {
      ++n_multihomed;
      multihomed.push_back(static_cast<int>(i));
    }
  }
  // Provider-first sampling with a flappy bias inside the provider.
  auto pick_provider_first =
      [this, n_providers](const std::vector<std::vector<int>>& primary,
                          const std::vector<std::vector<int>>& preferred,
                          double preferred_bias) -> int {
    // A few probes so empty providers don't starve the process.
    for (int probe = 0; probe < 8; ++probe) {
      const auto p = static_cast<std::size_t>(rng_.Below(n_providers));
      if (!preferred.empty() && !preferred[p].empty() &&
          rng_.Uniform() < preferred_bias) {
        return preferred[p][rng_.Below(preferred[p].size())];
      }
      if (!primary[p].empty()) {
        return primary[p][rng_.Below(primary[p].size())];
      }
    }
    return -1;
  };

  // Customer line flaps (weighted by provider churn character).
  SchedulePoisson(
      config_.customer_flap_rate * n_customers, env_flap, [this, env_flap] {
        const int ci = SampleCustomer();
        const auto& c = universe_.customers[static_cast<std::size_t>(ci)];
        const double level = usage_.Level(sched_.Now()) *
                             FlapBoost(sched_.Now(), c.primary_provider);
        if (rng_.Uniform() * env_flap > level) return;
        CustomerFlap(ci, /*failover=*/false);
      });

  // Longer multihomed failovers.
  SchedulePoisson(
      config_.failover_rate * std::max(1, n_multihomed), env_flap,
      [this, multihomed, env_flap] {
        if (multihomed.empty()) return;
        const int ci = multihomed[rng_.Below(multihomed.size())];
        const auto& c = universe_.customers[static_cast<std::size_t>(ci)];
        const double level = usage_.Level(sched_.Now()) *
                             FlapBoost(sched_.Now(), c.primary_provider);
        if (rng_.Uniform() * env_flap > level) return;
        CustomerFlap(ci, /*failover=*/true);
      });

  // Acceptance test shared by the per-customer processes: thin by the usage
  // level times the sampled customer's provider boost (maintenance windows,
  // Saturday spikes, the upgrade incident).
  auto accept_boosted = [this, env_flap](int customer) {
    const int prov =
        universe_.customers[static_cast<std::size_t>(customer)]
            .primary_provider;
    const double level =
        usage_.Level(sched_.Now()) * FlapBoost(sched_.Now(), prov);
    return rng_.Uniform() * env_flap <= level;
  };

  // CSU oscillation episodes on visible customer lines.
  SchedulePoisson(
      config_.csu_episode_rate * std::max(1, n_visible), env_flap,
      [this, visible_by, flappy_by, pick_provider_first, accept_boosted] {
        const int ci = pick_provider_first(visible_by, flappy_by,
                                           kEpisodeFlappyBias);
        if (ci >= 0 && accept_boosted(ci)) StartCsuEpisode(ci);
      });

  // Route-selection oscillation episodes (IGP/BGP interaction).
  SchedulePoisson(
      config_.oscillation_episode_rate * std::max(1, n_alternate), env_flap,
      [this, alternates_by, flappy_by, pick_provider_first, accept_boosted] {
        const int ci = pick_provider_first(alternates_by, flappy_by,
                                           kEpisodeFlappyBias);
        if (ci >= 0 && accept_boosted(ci)) StartOscillationEpisode(ci);
      });

  // Background path-change settle bursts (convergence transients).
  SchedulePoisson(
      config_.path_change_rate * std::max(1, n_alternate), env_flap,
      [this, alternates_by, pick_provider_first, accept_boosted] {
        const int ci = pick_provider_first(alternates_by, {}, 0.0);
        if (ci >= 0 && accept_boosted(ci)) {
          PathChangeBurst(ci, 1 + static_cast<int>(rng_.Below(4)),
                          obs::CauseTag{});
        }
      });

  // Policy fluctuation (MED churn on visible routes).
  SchedulePoisson(
      config_.policy_fluctuation_rate * std::max(1, n_visible), env_usage,
      [this, visible_by, pick_provider_first, env_usage] {
        if (rng_.Uniform() * env_usage > usage_.Level(sched_.Now())) return;
        const int ci = pick_provider_first(visible_by, {}, 0.0);
        if (ci >= 0) PolicyFluctuate(ci);
      });

  // IGP/iBGP internal-reset episodes at stateless providers.
  for (std::size_t i = 0; i < universe_.providers.size(); ++i) {
    const auto& spec = universe_.providers[i];
    if (!spec.stateless_bgp || config_.force_all_stateful) continue;
    SchedulePoisson(
        config_.internal_reset_episode_rate * spec.internal_reset_multiplier,
        env_usage, [this, i, env_usage] {
          if (rng_.Uniform() * env_usage > usage_.Level(sched_.Now())) return;
          StartInternalResetEpisode(static_cast<int>(i));
        });
  }

  // The pathological small-ISP incident: private upstream flaps.
  if (config_.patho_enabled && !patho_table_.empty()) {
    SchedulePoisson(config_.patho_spray_rate, env_usage, [this, env_usage] {
      if (rng_.Uniform() * env_usage > usage_.Level(sched_.Now())) return;
      PathoSpray();
    });
  }

  // The upgrade incident window.
  if (config_.upgrade_enabled &&
      kDay * config_.upgrade_start_day < config_.duration) {
    sched_.At(TimePoint::Origin() + kDay * config_.upgrade_start_day +
                  Duration::Hours(9),
              [this] { StartUpgradeIncident(); });
    sched_.At(TimePoint::Origin() + kDay * (config_.upgrade_end_day + 1),
              [this] { EndUpgradeIncident(); });
  }

  // The telemetry flush tick chain. Each tick reschedules the next from
  // inside its own handler, so the end-of-run finalize (same timestamp as
  // the last flush) runs after it rather than racing it on scheduler seq.
  sched_.At(TimePoint::Origin() + kSeriesFlushInterval,
            [this] { SeriesTick(); });

  ScheduleMidnight(0);
  // Day 0's maintenance/Saturday decisions.
  MaintenanceWindow(0);
  SaturdaySpike(0);
}

void ExchangeScenario::SeriesTick() {
  const TimePoint now = sched_.Now();
  // Feed the detectors the windows being closed by this flush (window()
  // still holds the last interval's counts until Flush resets it).
  health_.ObserveTick(
      now, static_cast<std::uint64_t>(series_updates_->window()),
      static_cast<std::uint64_t>(series_wwdup_->window()),
      static_cast<std::uint64_t>(series_aadup_->window()));
  series_.Flush(now);
  const TimePoint next = now + kSeriesFlushInterval;
  if (next <= TimePoint::Origin() + config_.duration) {
    sched_.At(next, [this] { SeriesTick(); });
  } else {
    health_.Finalize(now);
  }
}

void ExchangeScenario::StartUpgradeIncident() {
  const int upg = kUpgradeProvider;
  // One cause covers the whole multi-day incident: the emergency-transit
  // announcements, every session bounce, and the end-of-window withdrawals
  // all trace back to this allocation.
  upgrade_cause_ = prov_.Allocate(obs::CauseKind::kUpgrade, sched_.Now());
  obs::CauseScope scope(&prov_, upgrade_cause_);
  // Customers of the upgrading ISP buy emergency transit: each visible
  // customer is temporarily announced by a second provider as well. The
  // route server sees the prefix with two paths — Figure 10's spike.
  for (std::size_t ci = 0; ci < universe_.customers.size(); ++ci) {
    auto& c = universe_.customers[ci];
    if (c.primary_provider != upg || c.aggregated) continue;
    auto& st = customer_state_[ci];
    if (st.backup_active) continue;  // already multihomed
    if (c.backup_provider < 0) {
      c.backup_provider =
          (upg + 1 + static_cast<int>(rng_.Below(
                         universe_.providers.size() - 1))) %
          static_cast<int>(universe_.providers.size());
      if (c.backup_provider == upg) {
        c.backup_provider = (upg + 1) %
                            static_cast<int>(universe_.providers.size());
      }
    }
    ActivateBackup(static_cast<int>(ci));
    upgrade_temporaries_.push_back(static_cast<int>(ci));
  }
  // The upgrading ISP also bounces its exchange session several times over
  // the incident (Figure 3's dark vertical band gets its AADup bulk here).
  for (int k = 0; k < (config_.upgrade_end_day - config_.upgrade_start_day);
       ++k) {
    sched_.After(kDay * (k + 0.3), [this, upg] {
      obs::CauseScope bounce(&prov_, upgrade_cause_);
      links_[static_cast<std::size_t>(upg)]->Fail();
      sched_.After(Duration::Minutes(2 + 6 * rng_.Uniform()), [this, upg] {
        obs::CauseScope inner(&prov_, upgrade_cause_);
        links_[static_cast<std::size_t>(upg)]->Restore();
      });
    });
  }
}

void ExchangeScenario::EndUpgradeIncident() {
  obs::CauseScope scope(&prov_, upgrade_cause_);
  for (int ci : upgrade_temporaries_) {
    const auto& c = universe_.customers[static_cast<std::size_t>(ci)];
    auto& st = customer_state_[static_cast<std::size_t>(ci)];
    // Emergency transit is cancelled unless the customer's planned
    // multihoming date has since arrived.
    if (c.multihomed_since <= sched_.Now()) continue;
    st.backup_active = false;
    WithdrawAt(c.backup_provider, c.prefix);
  }
  upgrade_temporaries_.clear();
}

void ExchangeScenario::ScheduleMidnight(int day) {
  const TimePoint end_of_day =
      TimePoint::Origin() + kDay * (day + 1) - Duration::Millis(1);
  if (end_of_day > TimePoint::Origin() + config_.duration) return;
  sched_.At(end_of_day, [this, day] {
    for (auto& hook : daily_hooks_) hook(day);
    MaintenanceWindow(day + 1);
    SaturdaySpike(day + 1);
    ScheduleMidnight(day + 1);
  });
}

void ExchangeScenario::ScheduleDaily(std::function<void(int day)> fn) {
  daily_hooks_.push_back(std::move(fn));
}

double ExchangeScenario::TableShare(int provider) const {
  const auto& rib = route_server_->rib();
  const std::size_t total = rib.NumRoutes();
  if (total == 0) return 0;
  return static_cast<double>(
             rib.PeerRouteCount(static_cast<bgp::PeerId>(provider))) /
         static_cast<double>(total);
}

// ------------------------------------------------------------- handlers

void ExchangeScenario::CustomerFlap(int customer, bool failover) {
  auto& st = customer_state_[static_cast<std::size_t>(customer)];
  if (!st.line_up || st.in_episode) return;
  const auto& c = universe_.customers[static_cast<std::size_t>(customer)];
  st.line_up = false;
  // One cause per flap: the withdrawal and the (possibly path-toggled)
  // repair announcement share it, so WADup/WADiff pairs attribute together.
  const obs::CauseTag cause = prov_.Allocate(
      failover ? obs::CauseKind::kFailover : obs::CauseKind::kCustomerFlap,
      sched_.Now());
  {
    obs::CauseScope scope(&prov_, cause);
    WithdrawAt(c.primary_provider, c.prefix);
  }
  const Duration mean =
      failover ? kMeanFailoverRepair : kMeanRepairTime;
  Duration repair = Duration::Seconds(
      std::max(5.0, rng_.Exponential(mean.ToSeconds())));
  sched_.After(repair, [this, customer, cause] {
    auto& state = customer_state_[static_cast<std::size_t>(customer)];
    if (state.in_episode || state.line_up) return;
    state.line_up = true;
    const auto& cust = universe_.customers[static_cast<std::size_t>(customer)];
    // Repairs frequently converge onto a different internal path first
    // (WADiff rather than WADup at the collector).
    if (cust.has_alternate_path &&
        rng_.Uniform() < kCsuPathToggleProb) {
      state.on_alternate = !state.on_alternate;
    }
    obs::CauseScope scope(&prov_, cause);
    OriginateCustomer(customer, state.on_alternate);
  });
}

void ExchangeScenario::PathChangeBurst(int customer, int flips_left,
                                       obs::CauseTag cause) {
  auto& st = customer_state_[static_cast<std::size_t>(customer)];
  if (!st.line_up || st.in_episode) return;
  // Allocate lazily so a burst suppressed by the guards above never mints a
  // cause; every re-flip of the settle transient reuses the first one.
  if (cause.IsNull()) {
    cause = prov_.Allocate(obs::CauseKind::kPathChange, sched_.Now());
  }
  st.on_alternate = !st.on_alternate;
  {
    obs::CauseScope scope(&prov_, cause);
    OriginateCustomer(customer, st.on_alternate);
  }
  if (flips_left > 1) {
    // The settle transient re-flips on the next flush tick or two.
    const double multiple = rng_.Bernoulli(0.7) ? 1.0 : 2.0;
    sched_.After(kFlushInterval * multiple,
                 [this, customer, flips_left, cause] {
                   PathChangeBurst(customer, flips_left - 1, cause);
                 });
  }
}

void ExchangeScenario::StartCsuEpisode(int customer) {
  auto& st = customer_state_[static_cast<std::size_t>(customer)];
  if (st.in_episode || !st.line_up) return;
  st.in_episode = true;
  st.episode_cause =
      prov_.Allocate(obs::CauseKind::kCsuEpisode, sched_.Now());
  if (rng_.Bernoulli(0.5)) {
    // Fast beat: both carrier loss and recovery inside one flush window.
    st.episode_down_frac = 0.6 + 0.2 * rng_.Uniform();
    st.episode_up_frac = 0.2 + 0.2 * rng_.Uniform();
  } else {
    // Slow beat: roughly one window down, one window up.
    st.episode_down_frac = 0.9 + 0.2 * rng_.Uniform();
    st.episode_up_frac = 0.9 + 0.2 * rng_.Uniform();
  }
  const auto& cust = universe_.customers[static_cast<std::size_t>(customer)];
  const double mean_s = kMeanEpisodeLength.ToSeconds() *
                        (cust.flappy ? kFlappyEpisodeMultiplier : 1.0);
  const double len_s = std::min(kMaxEpisodeLength.ToSeconds(),
                                std::max(45.0, rng_.Exponential(mean_s)));
  CsuBeat(customer, sched_.Now() + Duration::Seconds(len_s), /*down=*/true);
}

void ExchangeScenario::CsuBeat(int customer, TimePoint episode_end,
                               bool down) {
  auto& st = customer_state_[static_cast<std::size_t>(customer)];
  const auto& c = universe_.customers[static_cast<std::size_t>(customer)];
  // Every beat of the episode — carrier losses, recoveries, and the final
  // restore — shares the cause minted at episode start.
  obs::CauseScope scope(&prov_, st.episode_cause);
  if (sched_.Now() >= episode_end) {
    // Episode over: restore the line.
    if (!st.line_up) {
      OriginateCustomer(customer, st.on_alternate);
      st.line_up = true;
    }
    st.in_episode = false;
    return;
  }
  if (down) {
    if (st.line_up) {
      WithdrawAt(c.primary_provider, c.prefix);
      st.line_up = false;
    }
    // Carrier loss duration follows the episode's beat profile (slight
    // per-beat wobble models the clock drift).
    const Duration off = kFlushInterval * st.episode_down_frac *
                         (0.95 + 0.1 * rng_.Uniform());
    sched_.After(off, [this, customer, episode_end] {
      CsuBeat(customer, episode_end, /*down=*/false);
    });
  } else {
    if (!st.line_up) {
      // Recovery sometimes converges onto the indirect transit path: the
      // re-announcement differs from the withdrawn route (WADiff, not
      // WADup, at the collector).
      if (c.has_alternate_path &&
          rng_.Uniform() < kCsuPathToggleProb) {
        st.on_alternate = !st.on_alternate;
      }
      OriginateCustomer(customer, st.on_alternate);
      st.line_up = true;
    }
    // Carrier holds per the beat profile before the next drop; the full
    // beat period is ~1-2 flush intervals, putting successive visible
    // re-announcements 30-60 s apart (Figure 8's dominant bins).
    const Duration on = kFlushInterval * st.episode_up_frac *
                        (0.95 + 0.1 * rng_.Uniform());
    sched_.After(on, [this, customer, episode_end] {
      CsuBeat(customer, episode_end, /*down=*/true);
    });
  }
}

void ExchangeScenario::StartOscillationEpisode(int customer) {
  auto& st = customer_state_[static_cast<std::size_t>(customer)];
  if (st.in_episode || !st.line_up) return;
  st.in_episode = true;
  st.episode_cause =
      prov_.Allocate(obs::CauseKind::kOscillation, sched_.Now());
  const auto& cust = universe_.customers[static_cast<std::size_t>(customer)];
  const double mean_s = kMeanEpisodeLength.ToSeconds() *
                        (cust.flappy ? kFlappyEpisodeMultiplier : 1.0);
  const double len_s = std::min(kMaxEpisodeLength.ToSeconds(),
                                std::max(60.0, rng_.Exponential(mean_s)));
  OscillationBeat(customer, sched_.Now() + Duration::Seconds(len_s));
}

void ExchangeScenario::OscillationBeat(int customer, TimePoint episode_end) {
  auto& st = customer_state_[static_cast<std::size_t>(customer)];
  obs::CauseScope scope(&prov_, st.episode_cause);
  if (sched_.Now() >= episode_end || !st.line_up) {
    // Settle back on the direct path.
    if (st.on_alternate && st.line_up) {
      st.on_alternate = false;
      OriginateCustomer(customer, /*alternate_path=*/false);
    }
    st.in_episode = false;
    return;
  }
  st.on_alternate = !st.on_alternate;
  OriginateCustomer(customer, st.on_alternate);
  // IGP timers run on multiples of ~30 s, unjittered: alternate paths come
  // back every one or two flush intervals (30 s and 60 s gaps in Fig. 8).
  const double multiple = rng_.Bernoulli(0.7) ? 1.0 : 2.0;
  sched_.After(kFlushInterval * multiple,
               [this, customer, episode_end] {
                 OscillationBeat(customer, episode_end);
               });
}

void ExchangeScenario::PolicyFluctuate(int customer) {
  auto& st = customer_state_[static_cast<std::size_t>(customer)];
  if (!st.line_up || st.in_episode) return;
  ++st.policy_serial;
  // The MED moved: both cached attribute sets are stale.
  st.direct_attrs = st.alternate_attrs = bgp::kInvalidAttrSetId;
  obs::CauseScope scope(&prov_, obs::CauseKind::kPolicyFluctuation,
                        sched_.Now());
  OriginateCustomer(customer, st.on_alternate);
}

void ExchangeScenario::StartInternalResetEpisode(int provider) {
  const int beats =
      1 + static_cast<int>(rng_.Exponential(kInternalResetBeatsMean));
  InternalResetBeat(
      provider, beats,
      prov_.Allocate(obs::CauseKind::kInternalReset, sched_.Now()));
}

void ExchangeScenario::InternalResetBeat(int provider, int beats_left,
                                         obs::CauseTag cause) {
  if (beats_left <= 0) return;
  obs::CauseScope scope(&prov_, cause);
  sim::Router& border = *borders_[static_cast<std::size_t>(provider)];
  border.InternalReset(kInternalResetDirtyFraction);
  // The reset also tears through routes learned *from* the exchange: the
  // stateless router withdraws them toward everyone, including providers
  // that are their only origin (pure WWDup at the collector). The leak set
  // is fixed per provider; each beat disturbs most of it.
  const auto& leak = foreign_leak_sets_[static_cast<std::size_t>(provider)];
  if (!leak.empty()) {
    std::vector<Prefix> sample;
    sample.reserve(leak.size());
    const double fraction = 0.6 + 0.4 * rng_.Uniform();
    for (const Prefix& prefix : leak) {
      if (rng_.Uniform() < fraction) sample.push_back(prefix);
    }
    border.SprayWithdrawals(sample);
  }
  sched_.After(kFlushInterval, [this, provider, beats_left, cause] {
    InternalResetBeat(provider, beats_left - 1, cause);
  });
}

void ExchangeScenario::MaintenanceWindow(int day) {
  // Providers occasionally bounce their exchange sessions inside the
  // morning maintenance window (Figure 3's 10:00 ridge).
  const TimePoint base = TimePoint::Origin() + kDay * day +
                         Duration::Hours(kMaintenanceHour);
  if (base > TimePoint::Origin() + config_.duration) return;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (rng_.Uniform() >= config_.maintenance_reset_prob) continue;
    const Duration offset =
        Duration::Hours(kMaintenanceWindowH) * rng_.Uniform();
    sched_.At(base + offset, [this, i] {
      // Minted at fire time (not scheduling time) so the injection
      // timestamp matches the fault, and captured so the restore half of
      // the bounce shares it.
      const obs::CauseTag cause =
          prov_.Allocate(obs::CauseKind::kMaintenance, sched_.Now());
      {
        obs::CauseScope scope(&prov_, cause);
        links_[i]->Fail();
      }
      const Duration outage = Duration::Seconds(60 + 120 * rng_.Uniform());
      sched_.After(outage, [this, i, cause] {
        obs::CauseScope scope(&prov_, cause);
        links_[i]->Restore();
      });
    });
  }
}

void ExchangeScenario::SaturdaySpike(int day) {
  if (UsageModel::DayOfWeek(TimePoint::Origin() + kDay * day +
                            Duration::Hours(1)) != 0) {
    return;  // day 0 of the week is Saturday by construction
  }
  if (rng_.Uniform() >= config_.saturday_spike_prob) return;
  const TimePoint start = TimePoint::Origin() + kDay * day +
                          Duration::Hours(8 + 12 * rng_.Uniform());
  sched_.At(start, [this] {
    saturday_boost_ = kSaturdaySpikeBoost;
    saturday_boost_end_ = sched_.Now() + kSaturdaySpikeLength;
  });
}

void ExchangeScenario::PathoSpray() {
  // A fraction of the learned table is lost and re-learned; withdrawals for
  // all of it spray out through the stateless border router.
  const double fraction = 0.3 + 0.7 * rng_.Uniform();
  std::vector<Prefix> prefixes;
  prefixes.reserve(static_cast<std::size_t>(
      static_cast<double>(patho_table_.size()) * fraction) + 1);
  for (int ci : patho_table_) {
    if (rng_.Uniform() < fraction) {
      prefixes.push_back(
          universe_.customers[static_cast<std::size_t>(ci)].prefix);
    }
  }
  obs::CauseScope scope(&prov_, obs::CauseKind::kPathoSpray, sched_.Now());
  borders_.back()->SprayWithdrawals(prefixes);
}

std::uint64_t ExchangeSubSeed(std::uint64_t scenario_seed, int exchange) {
  SplitMix64 stream(scenario_seed);
  std::uint64_t sub_seed = stream.Next();
  for (int i = 0; i < exchange; ++i) sub_seed = stream.Next();
  return sub_seed;
}

ScenarioConfig PartitionConfig(const ScenarioConfig& config, int exchange) {
  ScenarioConfig part = config;
  part.num_exchanges = 1;
  part.seed = ExchangeSubSeed(config.seed, exchange);
  return part;
}

}  // namespace iri::workload
