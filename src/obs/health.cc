#include "obs/health.h"

#include <algorithm>
#include <cmath>

namespace iri::obs {

namespace {

constexpr double kPi = 3.14159265358979323846;

// Parts-per-million as an integer gauge value: keeps doubles out of the
// snapshot text while preserving enough resolution for thresholding.
std::int64_t ToPpm(double share) {
  return static_cast<std::int64_t>(std::llround(share * 1e6));
}

}  // namespace

HealthMonitor::HealthMonitor(HealthConfig config, Duration tick,
                             Tracer* tracer, Registry* registry)
    : config_(config), tick_(tick), trace_(tracer) {
  IRI_ASSERT(registry != nullptr, "health monitor requires a registry");
  IRI_ASSERT(tick.nanos() > 0, "health monitor requires a positive tick");
  // A band is watchable only below the Nyquist rate of the tick.
  if (config_.period_a.nanos() >= 2 * tick_.nanos()) {
    freq_a_ = tick_ / config_.period_a;
  }
  if (config_.period_b.nanos() >= 2 * tick_.nanos()) {
    freq_b_ = tick_ / config_.period_b;
  }
  block_.reserve(static_cast<std::size_t>(
      std::max(1, config_.goertzel_block_ticks)));
  patho_ring_.assign(
      static_cast<std::size_t>(std::max(1, config_.storm_window_ticks)), 0);

  ticks_ = &registry->GetCounter("health.ticks");
  storm_starts_ = &registry->GetCounter("health.storm.starts");
  storm_ticks_ = &registry->GetCounter("health.storm.ticks");
  periodicity_alerts_ = &registry->GetCounter("health.periodicity.alerts");
  flap_bursts_ = &registry->GetCounter("health.flap.bursts");
  // Peak/score gauges merge by maximum across exchanges: "worst partition"
  // is the operator-facing reading, a sum of peaks is not.
  storm_peak_gauge_ = &registry->GetGauge(
      "health.storm.peak_window", Stability::kDeterministic, GaugeMerge::kMax);
  periodicity_a_gauge_ = &registry->GetGauge(
      "health.periodicity.a_ppm", Stability::kDeterministic, GaugeMerge::kMax);
  periodicity_b_gauge_ = &registry->GetGauge(
      "health.periodicity.b_ppm", Stability::kDeterministic, GaugeMerge::kMax);
  burst_peak_gauge_ = &registry->GetGauge(
      "health.flap.peak_events", Stability::kDeterministic, GaugeMerge::kMax);
}

double HealthMonitor::GoertzelPower(const std::vector<double>& x,
                                    double freq) {
  // Standard Goertzel recurrence, valid at any real frequency (not just bin
  // centers; off-bin leakage only blurs the score, never fabricates a peak).
  const double omega = 2.0 * kPi * freq;
  const double coeff = 2.0 * std::cos(omega);
  double s_prev = 0.0, s_prev2 = 0.0;
  for (const double v : x) {
    const double s = v + coeff * s_prev - s_prev2;
    s_prev2 = s_prev;
    s_prev = s;
  }
  return s_prev * s_prev + s_prev2 * s_prev2 - coeff * s_prev * s_prev2;
}

void HealthMonitor::EvaluateBlock([[maybe_unused]] TimePoint now) {
  const std::size_t n = block_.size();
  if (n < 8) {
    block_.clear();
    return;
  }
  // Demean: the DC component would otherwise dwarf every timer line.
  double mean = 0.0;
  for (const double v : block_) mean += v;
  mean /= static_cast<double>(n);
  double total = 0.0;
  for (double& v : block_) {
    v -= mean;
    total += v * v;
  }
  if (total > 0.0) {
    // Share of the block's variance explained by one frequency bin: for a
    // real signal, |X(f)|^2 * 2/N relative to sum(x^2).
    const double scale = 2.0 / static_cast<double>(n);
    auto score_band = [&](double freq, [[maybe_unused]] Duration period,
                          Gauge* gauge, std::int64_t* best) {
      if (freq <= 0.0) return;
      const double share = GoertzelPower(block_, freq) * scale / total;
      const std::int64_t ppm = ToPpm(share);
      gauge->RaiseTo(ppm);
      if (ppm > *best) *best = ppm;
      if (share >= config_.periodicity_threshold) {
        periodicity_alerts_->Add(1);
        IRI_TRACE(trace_, now, "health_periodicity",
                  .I64("period_ms", period.nanos() / 1'000'000)
                      .I64("score_ppm", ppm));
      }
    };
    score_band(freq_a_, config_.period_a, periodicity_a_gauge_, &best_ppm_a_);
    score_band(freq_b_, config_.period_b, periodicity_b_gauge_, &best_ppm_b_);
  }
  block_.clear();
}

void HealthMonitor::ObserveTick(TimePoint now, std::uint64_t updates,
                                std::uint64_t wwdup, std::uint64_t aadup) {
  ticks_->Add(1);

  // --- periodicity: per-tick update counts, scored once per block ---
  block_.push_back(static_cast<double>(updates));
  if (block_.size() >=
      static_cast<std::size_t>(std::max(1, config_.goertzel_block_ticks))) {
    EvaluateBlock(now);
  }

  // --- storm detector over the pathology bins ---
  // The detector watches the sliding-window sum, not the raw tick: a spray
  // burst lands in one flush tick, and the window keeps it over the bar for
  // the consecutive ticks the hysteresis demands.
  const std::uint64_t patho = wwdup + aadup;
  patho_sum_ -= patho_ring_[ring_next_];
  patho_sum_ += patho;
  patho_ring_[ring_next_] = patho;
  ring_next_ = (ring_next_ + 1) % patho_ring_.size();
  const double p = static_cast<double>(patho_sum_);
  const double enter_bar =
      std::max(static_cast<double>(config_.storm_min_count),
               config_.storm_factor * baseline_);
  const double exit_bar =
      std::max(static_cast<double>(config_.storm_min_count) / 2.0,
               config_.storm_exit_factor * baseline_);
  if (storm_active_) {
    storm_ticks_->Add(1);
    storm_peak_ = std::max(storm_peak_, patho_sum_);
    storm_peak_gauge_->RaiseTo(static_cast<std::int64_t>(storm_peak_));
    if (p < exit_bar) {
      storm_active_ = false;
      IRI_TRACE(trace_, now, "storm_end",
                .U64("peak_window", storm_peak_)
                    .I64("duration_ns", (now - storm_start_).nanos()));
    }
  } else {
    if (baseline_seeded_ && p >= enter_bar) {
      ++over_ticks_;
      if (over_ticks_ >= config_.storm_enter_ticks) {
        storm_active_ = true;
        ++storms_started_;
        storm_start_ = now;
        storm_peak_ = patho_sum_;
        over_ticks_ = 0;
        storm_starts_->Add(1);
        storm_peak_gauge_->RaiseTo(static_cast<std::int64_t>(storm_peak_));
        IRI_TRACE(trace_, now, "storm_start",
                  .U64("window", patho_sum_)
                      .I64("baseline_x100",
                           static_cast<std::int64_t>(
                               std::llround(baseline_ * 100.0))));
      }
    } else {
      over_ticks_ = 0;
    }
    // The baseline learns only outside storms (and outside the run-up to
    // one), so a storm cannot raise its own bar.
    if (!storm_active_ && over_ticks_ == 0) {
      baseline_ = baseline_seeded_
                      ? config_.baseline_alpha * p +
                            (1.0 - config_.baseline_alpha) * baseline_
                      : p;
      baseline_seeded_ = true;
    }
  }
}

void HealthMonitor::CloseSession([[maybe_unused]] TimePoint now,
                                 std::uint32_t peer) {
  const auto it = sessions_.find(peer);
  if (it == sessions_.end()) return;
  const Session& s = it->second;
  if (s.events >= config_.session_min_events) {
    flap_bursts_->Add(1);
    burst_peak_gauge_->RaiseTo(static_cast<std::int64_t>(s.events));
    IRI_TRACE(trace_, now, "flap_burst",
              .U64("peer", peer)
                  .U64("events", s.events)
                  .I64("start_ns", s.start.nanos())
                  .I64("duration_ns", (s.last - s.start).nanos()));
  }
  sessions_.erase(it);
}

void HealthMonitor::ObservePeerEvent(TimePoint now, std::uint32_t peer) {
  auto [it, inserted] = sessions_.try_emplace(peer);
  Session& s = it->second;
  if (inserted) {
    s.start = now;
    s.last = now;
    s.events = 1;
    return;
  }
  if (now - s.last > config_.session_gap) {
    // Gap too long: the previous burst is over; this event opens a new one.
    CloseSession(now, peer);
    Session& fresh = sessions_[peer];
    fresh.start = now;
    fresh.last = now;
    fresh.events = 1;
    return;
  }
  s.last = now;
  ++s.events;
}

void HealthMonitor::Finalize(TimePoint now) {
  EvaluateBlock(now);
  // Close bursts in peer order — deterministic regardless of arrival
  // history, since sessions_ is an ordered map.
  while (!sessions_.empty()) {
    CloseSession(now, sessions_.begin()->first);
  }
  if (storm_active_) {
    storm_active_ = false;
    IRI_TRACE(trace_, now, "storm_end",
              .U64("peak_window", storm_peak_)
                  .I64("duration_ns", (now - storm_start_).nanos()));
  }
}

}  // namespace iri::obs
