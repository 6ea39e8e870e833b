// Cross-validation of the online periodicity detector (obs/health.h) against
// the offline spectral estimator (analysis/spectrum.h), in the spirit of the
// paper's own two-estimator validation of Figure 5: "These two approaches
// differ in their estimation methods, and provide a mechanism for validation
// of results."
//
// The unjittered fleet's fixed-phase flush timers put 30 s / 60 s lines into
// the collector's update-rate series; both the streaming Goertzel score and
// the post-hoc correlogram must find them. With every timer jittered (the
// recommended fix), the online detector must stay below its alert threshold.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/spectrum.h"
#include "workload/scenario.h"

namespace iri {
namespace {

constexpr double kFreqA = 1.0 / 3.0;  // 30 s at the 10 s series tick
constexpr double kFreqB = 1.0 / 6.0;  // 60 s
constexpr double kFreqTolerance = 0.02;

// Per-tick update counts, recovered from the series JSONL the flush wrote —
// the offline method deliberately reads the same stream an operator would.
std::vector<double> UpdateWindows(const std::string& jsonl) {
  std::vector<double> out;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"series\":\"monitor.updates\"") == std::string::npos) {
      continue;
    }
    const auto pos = line.find("\"window\":");
    if (pos == std::string::npos) continue;
    out.push_back(std::strtod(line.c_str() + pos + 9, nullptr));
  }
  return out;
}

struct RunResult {
  std::int64_t ppm_a = 0;
  std::int64_t ppm_b = 0;
  double threshold_ppm = 0;
  std::vector<double> windows;
};

RunResult RunScenario(bool jittered) {
  workload::ScenarioConfig cfg;
  cfg.topology.scale = 1.0 / 256;
  cfg.topology.num_providers = 8;
  cfg.topology.seed = 1997;
  // Make the fleet-wide phase lock maximal: every provider on the
  // fixed-phase 30 s timer (the jittered run overrides this per router).
  cfg.topology.unjittered_fraction = 1.0;
  cfg.seed = 11;
  cfg.duration = Duration::Hours(4);
  // Default per-day rates leave the 10 s series nearly silent at this
  // scale; boost instability so the flush timers carry sustained traffic
  // (both runs get the same boost — only the timer discipline differs).
  cfg.customer_flap_rate = 25;
  cfg.path_change_rate = 25;
  cfg.csu_episode_rate = 5;
  cfg.internal_reset_episode_rate = 48;
  cfg.force_all_jittered = jittered;
  workload::ExchangeScenario scenario(cfg);
  std::string series;
  scenario.series().SetSink(
      [&series](std::string_view flush) { series += flush; });
  scenario.Run();
  RunResult r;
  const obs::HealthMonitor& health = scenario.health();
  r.ppm_a = health.periodicity_ppm_a();
  r.ppm_b = health.periodicity_ppm_b();
  r.threshold_ppm = obs::HealthConfig{}.periodicity_threshold * 1e6;
  r.windows = UpdateWindows(series);
  return r;
}

bool HasPeakNear(const std::vector<analysis::SpectrumPoint>& peaks,
                 double freq) {
  for (const auto& p : peaks) {
    if (std::abs(p.frequency - freq) <= kFreqTolerance) return true;
  }
  return false;
}

TEST(OnlineOfflineCrossCheck, UnjitteredTimersFlagInBothDomains) {
  const RunResult r = RunScenario(/*jittered=*/false);
  ASSERT_GE(r.windows.size(), 256u);

  // Online: at least one watched band crosses the alert threshold.
  const std::int64_t best = std::max(r.ppm_a, r.ppm_b);
  EXPECT_GE(best, static_cast<std::int64_t>(r.threshold_ppm))
      << "online Goertzel missed the timer lines (a=" << r.ppm_a
      << "ppm, b=" << r.ppm_b << "ppm)";

  // Offline: the correlogram of the very same series peaks at a watched
  // frequency too.
  const auto spectrum =
      analysis::CorrelogramSpectrum(r.windows, /*max_lag=*/120);
  const auto peaks = analysis::FindPeaks(spectrum, /*max_peaks=*/5);
  EXPECT_TRUE(HasPeakNear(peaks, kFreqA) || HasPeakNear(peaks, kFreqB))
      << "offline correlogram found no 30 s / 60 s line among its top peaks";
}

TEST(OnlineOfflineCrossCheck, JitteredTimersStayUnderTheAlertBar) {
  const RunResult r = RunScenario(/*jittered=*/true);
  ASSERT_GE(r.windows.size(), 256u);
  EXPECT_LT(r.ppm_a, static_cast<std::int64_t>(r.threshold_ppm))
      << "jittered fleet still scored band A at alert level";
  EXPECT_LT(r.ppm_b, static_cast<std::int64_t>(r.threshold_ppm))
      << "jittered fleet still scored band B at alert level";
}

}  // namespace
}  // namespace iri
