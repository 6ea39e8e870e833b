// Online instability-health detection, fed from the series layer's flush
// ticks (obs/timeseries.h).
//
// Three streaming detectors, each a cheap online analogue of an offline
// analysis the paper runs post hoc:
//
//   * a Goertzel-filter periodicity score at the 30 s / 60 s flush-timer
//     frequencies — the online counterpart of §6's spectral analysis (the
//     self-synchronization fingerprint of unjittered flush timers);
//   * a WWDup/AADup storm detector — rate-over-EWMA-baseline with
//     hysteresis, the signal an operator would have wanted during Table 1's
//     pathological-ISP day instead of discovering millions of withdrawals
//     in the logs afterwards;
//   * a per-peer flap-burst sessionizer — runs of updates from one peering
//     with inter-event gaps under a threshold, the paper's "fine-grained
//     instability" grouped the way RIPE-style collectors sessionize flaps.
//
// Every detector emits IRI_TRACE alert events and health.* instruments in
// the partition's registry, so alerts merge across exchanges in fixed order
// exactly like every other metric — byte-identical at any worker-thread
// count. Detectors never touch RNG, routers or the scheduler: observing
// health cannot perturb the run.
//
// Lives in obs (not core): it consumes only tick-sampled counts and peer
// ids, so the obs -> {obs, netbase} layer boundary stays closed
// (tools/lint/iri_lint.py pins the map; see its obs self-test cases).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "netbase/time.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace iri::obs {

struct HealthConfig {
  // --- Goertzel periodicity score ---
  // Timer periods to watch: the paper's 30 s flush interval and its 60 s
  // harmonic-adjacent beat (Figure 8's dominant inter-arrival bins).
  Duration period_a = Duration::Seconds(30);
  Duration period_b = Duration::Seconds(60);
  // Ticks per analysis block; the score is recomputed once per block.
  int goertzel_block_ticks = 60;
  // Alert when a single frequency bin explains at least this share of the
  // demeaned block's variance (parts-per-million in the gauges).
  double periodicity_threshold = 0.18;

  // --- WWDup/AADup storm detector ---
  // Enter a storm when the windowed pathology count exceeds
  // max(storm_min_count, storm_factor * baseline) for storm_enter_ticks
  // consecutive ticks; leave when it falls below
  // max(storm_min_count / 2, storm_exit_factor * baseline). The EWMA
  // baseline freezes while a storm is active so the storm cannot raise its
  // own bar.
  double storm_factor = 6.0;
  double storm_exit_factor = 2.0;
  std::uint64_t storm_min_count = 60;
  int storm_enter_ticks = 2;
  double baseline_alpha = 0.05;
  // Pathology counts are summed over a sliding window of this many ticks
  // before they meet the bars. Stateless-flush spray bursts arrive packed
  // into a single 10 s tick with silence on either side; the window keeps a
  // large isolated burst visible long enough to satisfy the consecutive-tick
  // hysteresis without weakening it for genuinely flat traffic. 1 =
  // instantaneous (per-tick) comparison.
  int storm_window_ticks = 6;

  // --- per-peer flap-burst sessionizer ---
  // Events from one peer belong to the same burst while gaps stay under
  // session_gap; bursts shorter than session_min_events stay unreported.
  Duration session_gap = Duration::Seconds(90);
  std::uint64_t session_min_events = 50;
};

// Streaming detector bank. One per partition, constructed with that
// partition's tracer and registry; ObserveTick is driven by the scenario's
// series flush event, ObservePeerEvent by the monitor's classified-event
// path.
class HealthMonitor {
 public:
  HealthMonitor(HealthConfig config, Duration tick, Tracer* tracer,
                Registry* registry);

  // One closed series window: total classified events plus the two
  // pathology bins, sampled just before the series flush drains them.
  void ObserveTick(TimePoint now, std::uint64_t updates, std::uint64_t wwdup,
                   std::uint64_t aadup);

  // One classified event from `peer`, in arrival order.
  void ObservePeerEvent(TimePoint now, std::uint32_t peer);

  // End of scenario: closes open flap bursts (in peer order) and any open
  // storm so their alerts are not lost.
  void Finalize(TimePoint now);

  bool storm_active() const { return storm_active_; }
  std::uint64_t storms_started() const { return storms_started_; }
  // Strongest block score seen so far, in parts per million.
  std::int64_t periodicity_ppm_a() const { return best_ppm_a_; }
  std::int64_t periodicity_ppm_b() const { return best_ppm_b_; }

 private:
  void EvaluateBlock(TimePoint now);
  void CloseSession(TimePoint now, std::uint32_t peer);

  // |X(f)|^2 of `x` at normalized frequency f (cycles/sample) via the
  // Goertzel recurrence; tolerant of non-bin-centered frequencies.
  static double GoertzelPower(const std::vector<double>& x, double freq);

  HealthConfig config_;
  Duration tick_;
  Tracer* trace_;

  // Periodicity state.
  double freq_a_ = 0;  // cycles per tick; 0 disables the band
  double freq_b_ = 0;
  std::vector<double> block_;
  std::int64_t best_ppm_a_ = 0;
  std::int64_t best_ppm_b_ = 0;

  // Storm state. The ring holds the last storm_window_ticks pathology
  // counts; patho_sum_ is their running sum (the detector's input signal).
  std::vector<std::uint64_t> patho_ring_;
  std::size_t ring_next_ = 0;
  std::uint64_t patho_sum_ = 0;
  double baseline_ = 0;
  bool baseline_seeded_ = false;
  bool storm_active_ = false;
  int over_ticks_ = 0;
  std::uint64_t storm_peak_ = 0;
  TimePoint storm_start_;
  std::uint64_t storms_started_ = 0;

  // Sessionizer state (std::map: Finalize iterates in peer order).
  struct Session {
    TimePoint start;
    TimePoint last;
    std::uint64_t events = 0;
  };
  std::map<std::uint32_t, Session> sessions_;

  // health.* instruments (registered at construction; never null).
  Counter* ticks_ = nullptr;
  Counter* storm_starts_ = nullptr;
  Counter* storm_ticks_ = nullptr;
  Counter* periodicity_alerts_ = nullptr;
  Counter* flap_bursts_ = nullptr;
  Gauge* storm_active_gauge_ = nullptr;
  Gauge* storm_peak_gauge_ = nullptr;
  Gauge* periodicity_a_gauge_ = nullptr;
  Gauge* periodicity_b_gauge_ = nullptr;
  Gauge* burst_peak_gauge_ = nullptr;
};

}  // namespace iri::obs
