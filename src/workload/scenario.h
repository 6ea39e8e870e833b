// The nine-month measurement campaign in a box.
//
// ExchangeScenario assembles one public exchange point — a Routing
// Arbiter-style route server, one border router and link per provider —
// seeds it with a generated universe, attaches a measurement monitor to the
// route server, and drives every instability mechanism the paper
// identifies:
//
//   * customer leased-line flaps (Poisson, modulated by the usage curve)
//   * CSU clock-drift oscillation episodes (≈30 s withdraw/announce beats)
//   * internal route-selection oscillations (AADiff trains on alternates)
//   * policy fluctuations (MED/community churn; tuple-identical AADup)
//   * IGP/iBGP internal-reset episodes at stateless providers (WWDup+AADup)
//   * daily ~10:00 maintenance windows (session resets → re-dump bursts)
//   * Saturday instability spikes
//   * a "major ISP infrastructure upgrade" incident (Figure 3's dark band,
//     Figure 10's spike)
//   * a pathological small-ISP incident (Table 1's ISP-I: millions of
//     withdrawals through a stateless border router)
//   * the multihoming growth schedule (Figure 10)
//
// All rates are per-day at usage level 1.0 and are sampled by Poisson
// thinning against the usage envelope, so the realized event stream carries
// the daily/weekly/seasonal structure the paper's spectral analysis finds.
//
// The paper's five collectors were independent taps; a multi-exchange
// campaign is K of these scenarios, one per exchange point, run by
// workload/multi_exchange_runner.h.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/monitor.h"
#include "netbase/rng.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/link.h"
#include "sim/router.h"
#include "sim/scheduler.h"
#include "topology/universe.h"
#include "workload/usage.h"

namespace iri::workload {

// Community tags used by provider export policies.
inline constexpr bgp::Community kAggregatedTag = (65000u << 16) | 1u;
inline constexpr bgp::Community kOwnRouteTag = (65000u << 16) | 2u;

struct ScenarioConfig {
  topology::TopologyConfig topology;
  Duration duration = Duration::Days(7);
  std::uint64_t seed = 42;
  UsageConfig usage;

  // Exchange points. The paper instrumented five (Mae-East, AADS, Sprint,
  // PacBell, Mae-West). This is the partition count MultiExchangeRunner
  // splits the campaign into; one ExchangeScenario is one exchange and
  // requires 1 here (PartitionConfig sets it).
  int num_exchanges = 1;

  // --- legitimate instability (per-day rates at usage level 1.0) ---
  double customer_flap_rate = 0.15;   // per customer prefix
  Duration mean_repair_time = Duration::Seconds(75);
  double failover_rate = 0.04;        // extra flaps for multihomed customers
  Duration mean_failover_repair = Duration::Minutes(8);

  // Background path changes: a route converges onto its alternate path with
  // a short settle burst of 1-5 AADiffs spaced at the flush interval (BGP
  // convergence transients). This is the bulk of Figure 7's small-count
  // Prefix+AS pairs AND of Figure 8's 30 s AADiff gaps.
  double path_change_rate = 0.35;  // per alternate-path customer

  // --- oscillation episodes ---
  // Episode *targets* are drawn provider-first (uniformly across ASes, not
  // across prefixes), which decorrelates update share from routing-table
  // share — Figure 6's central negative result. The flappy subset gets
  // most episodes and much longer ones (Figure 7's heavy tails; the
  // paper's Provider-E pattern of a few prefixes updating all day).
  double csu_episode_rate = 0.18;           // per visible customer
  double oscillation_episode_rate = 0.05;   // per alternate-path customer
  double episode_flappy_bias = 0.6;
  Duration mean_episode_length = Duration::Minutes(4);
  Duration max_episode_length = Duration::Hours(4);
  double flappy_episode_multiplier = 8.0;  // length multiplier for flappy
  // Chance that a CSU line recovery comes back via the indirect transit
  // path (turns a WADup into a WADiff at the collector).
  double csu_path_toggle_prob = 0.6;

  // --- policy fluctuation ---
  double policy_fluctuation_rate = 0.1;  // per visible customer

  // --- pathological mechanisms ---
  double internal_reset_episode_rate = 4.0;  // per stateless provider
  double internal_reset_beats_mean = 5.0;    // resets per episode
  // Fraction of the provider's own routes behind the flapping internal
  // adjacency (each beat re-dirties a fresh sample).
  double internal_reset_dirty_fraction = 0.3;
  // Each reset also sprays withdrawals for this fraction of *foreign*
  // (exchange-learned) prefixes — the paper's ISP-Y, withdrawing routes
  // "announced only by ISP-X" that it never announced itself.
  double internal_reset_foreign_fraction = 0.05;

  // --- maintenance windows ---
  double maintenance_hour = 10.0;
  double maintenance_window_h = 0.5;
  double maintenance_boost = 5.0;            // flap-rate boost in window
  double maintenance_reset_prob = 0.2;       // per provider per day

  // --- Saturday spikes ---
  double saturday_spike_prob = 0.5;
  double saturday_spike_boost = 6.0;
  Duration saturday_spike_length = Duration::Hours(1.5);

  // --- the upgrade incident (Figure 3 / Figure 10) ---
  bool upgrade_enabled = false;
  int upgrade_start_day = 55;
  int upgrade_end_day = 62;
  double upgrade_flap_multiplier = 10.0;
  int upgrade_provider = 0;  // index; 0 is the largest ISP

  // --- the pathological small-ISP incident (Table 1's ISP-I) ---
  bool patho_enabled = false;
  int patho_provider = -1;  // -1: pick the smallest provider
  double patho_spray_rate = 80.0;  // upstream flaps per day during incident
  double patho_table_fraction = 1.0;  // fraction of universe in its table

  // --- router & exchange knobs (ablation switches) ---
  Duration flush_interval = Duration::Seconds(30);
  bool force_all_jittered = false;   // ablation: jitter every flush timer
  bool force_all_stateful = false;   // ablation: the vendor software fix
  bool providers_dampen = false;     // RFC 2439 at provider borders
  bgp::DampeningParams dampening;
  Duration link_latency = Duration::Millis(2);

  // Opt-in profiling (obs/profile.h): resolves the profile.* sites and
  // sched.tasks, all kWallClock instruments that no snapshot includes, so
  // the run's digest is the same with it on or off.
  bool profile_wall_clock = false;

  // --- streaming telemetry (obs/timeseries.h, obs/health.h) ---
  // Period of the sim-time flush event that drains the series instruments
  // into JSONL records and feeds the health detectors. Zero (or negative)
  // disables the whole telemetry path: no flush events, no per-event series
  // cost beyond a null check. Must divide the timer periods HealthConfig
  // watches for the periodicity score to see them (10 s against 30 s/60 s by
  // default).
  Duration series_flush_interval = Duration::Seconds(10);
  // Detector thresholds (Goertzel periodicity, WWDup/AADup storm,
  // flap-burst sessionizer).
  obs::HealthConfig health;
};

class ExchangeScenario {
 public:
  explicit ExchangeScenario(ScenarioConfig config);
  ExchangeScenario(ScenarioConfig config, topology::Universe universe);

  // Runs bootstrap (links up, sessions established, initial table dumped)
  // plus the whole configured duration.
  void Run() { RunUntil(TimePoint::Origin() + config_.duration); }
  void RunUntil(TimePoint t) { sched_.RunUntil(t); }

  // Registers `fn(day)` to run just before each midnight rollover.
  void ScheduleDaily(std::function<void(int day)> fn);

  sim::Scheduler& scheduler() { return sched_; }
  core::ExchangeMonitor& monitor() { return *monitor_; }
  sim::Router& route_server() { return *route_server_; }
  sim::Router& provider_router(int i) {
    return *borders_[static_cast<std::size_t>(i)];
  }
  const topology::Universe& universe() const { return universe_; }
  const UsageModel& usage() const { return usage_; }
  const ScenarioConfig& config() const { return config_; }

  // This scenario's observability state: every component (scheduler,
  // routers, links, monitor) feeds these. Single-partition, like the
  // scenario itself — the multi-exchange runner merges them across
  // partitions in fixed exchange order.
  obs::Registry& metrics() { return metrics_; }
  const obs::Registry& metrics() const { return metrics_; }
  obs::Tracer& trace() { return trace_; }
  const obs::Tracer& trace() const { return trace_; }
  // The streaming telemetry pipeline: windowed series records drained by a
  // periodic sim-time flush, and the online health detectors fed from the
  // same ticks. health() is null when series_flush_interval disables the
  // telemetry path.
  obs::SeriesFlusher& series() { return series_; }
  const obs::SeriesFlusher& series() const { return series_; }
  const obs::HealthMonitor* health() const { return health_.get(); }
  // The partition's cause allocator: fault handlers scope causes here, and
  // every router and link holds a pointer. Exposed so the runner can join
  // the cause table with the classifier's attribution matrix.
  obs::ProvenanceContext& provenance() { return prov_; }
  const obs::ProvenanceContext& provenance() const { return prov_; }

  // Fraction of the *visible* default-free table this provider is
  // responsible for today (Figure 6's x-axis).
  double TableShare(int provider) const;

  // The scale factor versus the paper's full universe, for report headers.
  double Scale() const { return universe_.config.scale; }

 private:
  struct CustomerState {
    bool line_up = true;
    bool in_episode = false;
    int policy_serial = 0;   // cycles MED values for policy fluctuation
    bool on_alternate = false;
    bool backup_active = false;
    // CSU episode beat profile, as fractions of the flush interval. Fast
    // episodes (carrier loss and recovery inside one window) produce 30 s
    // W,A trains through stateless senders; slow episodes (one window down,
    // one up) produce 60 s trains through everyone.
    double episode_down_frac = 1.0;
    double episode_up_frac = 1.0;
    // The cause allocated at episode start; every beat re-scopes it so the
    // whole episode's updates attribute to one root.
    obs::CauseTag episode_cause;
  };

  void Build();
  void Bootstrap();
  void ScheduleProcesses();
  void ScheduleMidnight(int day);
  // The periodic telemetry flush: samples the closed windows into the
  // health detectors, drains the series instruments into JSONL records and
  // reschedules itself while the next tick stays inside the configured
  // duration (finalizing the detectors on the last tick). Never draws from
  // rng_ and never touches routers or links: disabling telemetry must not
  // move a single simulation byte.
  void SeriesTick();

  // Event-process machinery: schedules the next arrival of a thinned
  // Poisson process with base rate `events_per_day` (at usage level 1).
  void SchedulePoisson(double events_per_day, double max_level,
                       std::function<void()> fire);

  // Current multiplicative boost from maintenance windows / Saturday
  // spikes / the upgrade incident, applied on top of the usage level.
  double FlapBoost(TimePoint t, int provider) const;

  // --- event handlers ---
  void CustomerFlap(int customer, bool failover);
  // A convergence transient: flips to the alternate path and settles back
  // over a few flush intervals (burst of 1-5 AADiffs). The whole burst
  // scopes `cause` (allocated by the Poisson arrival that starts it).
  void PathChangeBurst(int customer, int flips_left, obs::CauseTag cause);
  void StartCsuEpisode(int customer);
  void CsuBeat(int customer, TimePoint episode_end, bool down);
  void StartOscillationEpisode(int customer);
  void OscillationBeat(int customer, TimePoint episode_end);
  void PolicyFluctuate(int customer);
  void StartInternalResetEpisode(int provider);
  void InternalResetBeat(int provider, int beats_left, obs::CauseTag cause);
  void MaintenanceWindow(int day);
  void SaturdaySpike(int day);
  void PathoSpray();
  void ActivateBackup(int customer);
  // The upgrade incident: the affected ISP's customers buy emergency
  // transit (temporary dual announcements — Figure 10's spike) and the ISP
  // bounces its exchange session repeatedly.
  void StartUpgradeIncident();
  void EndUpgradeIncident();

  // Route construction helpers.
  bgp::Route CustomerRoute(int customer, bool via_primary,
                           bool alternate_path) const;

  ScenarioConfig config_;
  topology::Universe universe_;
  UsageModel usage_;
  // Declared before the scheduler and routers: they cache pointers into the
  // registry/tracer, so these must be destroyed last. The series flusher and
  // health monitor sit in the same tier (monitors cache series instrument
  // pointers; health caches registry gauges).
  obs::Registry metrics_;
  obs::Tracer trace_;
  // Cause allocator for this partition; same lifetime tier as the registry
  // (routers and links cache a pointer to it).
  obs::ProvenanceContext prov_;
  obs::SeriesFlusher series_;
  std::unique_ptr<obs::HealthMonitor> health_;
  // Cached series instruments the flush tick samples for the health feed.
  obs::WindowedCounter* series_updates_ = nullptr;
  obs::WindowedCounter* series_wwdup_ = nullptr;
  obs::WindowedCounter* series_aadup_ = nullptr;
  sim::Scheduler sched_;
  Rng rng_;

  std::unique_ptr<sim::Router> route_server_;
  std::unique_ptr<core::ExchangeMonitor> monitor_;
  // One border router and one exchange link per provider, provider-indexed.
  std::vector<std::unique_ptr<sim::Router>> borders_;
  std::vector<std::unique_ptr<sim::Link>> links_;

  // AS-level helpers: act on `provider`'s border router.
  void OriginateAt(int provider, const bgp::Route& route);
  void WithdrawAt(int provider, const Prefix& prefix);

  std::vector<CustomerState> customer_state_;
  // Visible universe with primary-provider ownership (spray targets; a
  // provider's reset never sprays its own customers — those are handled by
  // InternalReset itself).
  std::vector<std::pair<Prefix, int>> foreign_prefixes_;
  // Per-provider fixed subsets of foreign prefixes disturbed by internal
  // resets (empty for stateful providers).
  std::vector<std::vector<Prefix>> foreign_leak_sets_;
  std::vector<int> upgrade_temporaries_;  // customers dual-announced ad hoc
  // The upgrade incident's cause: allocated at incident start, re-scoped by
  // every bounce and by the cleanup at incident end.
  obs::CauseTag upgrade_cause_;
  std::vector<int> patho_table_;   // customer indices the patho ISP carries
  int patho_provider_ = -1;
  double saturday_boost_ = 1.0;    // active spike multiplier
  TimePoint saturday_boost_end_;
  std::vector<std::function<void(int)>> daily_hooks_;

  // Weighted customer sampling (per-provider flap multipliers).
  std::vector<double> customer_weight_cumulative_;
  double customer_weight_total_ = 0;
  int SampleCustomer();
};

// --- multi-exchange partitioning -------------------------------------------
//
// The partitioned runner (workload/multi_exchange_runner.h) splits a
// num_exchanges=K campaign into K independent single-exchange scenarios —
// the only way to run more than one exchange, and the only parallel axis
// (one serial classifier per exchange monitor).
// Each partition draws from its own decorrelated RNG stream so no draw in
// one exchange can perturb another — the property that makes the parallel
// schedule interleaving-independent (see DESIGN.md §8).

// Sub-seed for exchange `e`: the (e+1)-th output of a SplitMix64 stream over
// the scenario seed. Depends only on (seed, e), never on thread placement.
std::uint64_t ExchangeSubSeed(std::uint64_t scenario_seed, int exchange);

// The single-exchange partition of `config` for exchange `e`: identical
// topology and knobs, num_exchanges=1, seed=ExchangeSubSeed(seed, e).
ScenarioConfig PartitionConfig(const ScenarioConfig& config, int exchange);

}  // namespace iri::workload
