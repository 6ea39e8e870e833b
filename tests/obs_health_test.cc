#include "obs/health.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace iri::obs {
namespace {

constexpr Duration kTick = Duration::Seconds(10);

TimePoint T(double seconds) {
  return TimePoint::Origin() + Duration::Seconds(seconds);
}

// Scores a strong 30 s (3-tick) oscillation in the update counts: the
// online analogue of the paper's self-synchronization fingerprint.
TEST(HealthMonitor, GoertzelFlagsAWatchedPeriodicity) {
  HealthConfig cfg;
  cfg.goertzel_block_ticks = 30;
  Registry registry;
  Tracer tracer;
  HealthMonitor hm(cfg, kTick, &tracer, &registry);
  // Period-3 cycle (30 s at a 10 s tick): almost all variance in band A.
  const std::uint64_t cycle[3] = {150, 75, 75};
  for (int n = 0; n < 30; ++n) {
    hm.ObserveTick(T(10.0 * (n + 1)), cycle[n % 3], 0, 0);
  }
  EXPECT_GT(hm.periodicity_ppm_a(), 900'000);
  EXPECT_LT(hm.periodicity_ppm_b(), 100'000);
  EXPECT_GE(registry.GetCounter("health.periodicity.alerts").value(), 1u);
  EXPECT_EQ(registry.GetGauge("health.periodicity.a_ppm").value(),
            hm.periodicity_ppm_a());
}

TEST(HealthMonitor, GoertzelStaysQuietOnAFlatSignal) {
  HealthConfig cfg;
  cfg.goertzel_block_ticks = 30;
  Registry registry;
  Tracer tracer;
  HealthMonitor hm(cfg, kTick, &tracer, &registry);
  for (int n = 0; n < 30; ++n) {
    hm.ObserveTick(T(10.0 * (n + 1)), 100, 0, 0);
  }
  // Zero variance: no band can claim a share of it.
  EXPECT_EQ(hm.periodicity_ppm_a(), 0);
  EXPECT_EQ(hm.periodicity_ppm_b(), 0);
  EXPECT_EQ(registry.GetCounter("health.periodicity.alerts").value(), 0u);
}

TEST(HealthMonitor, BandsAboveNyquistAreDisabled) {
  HealthConfig cfg;
  cfg.period_a = Duration::Seconds(15);  // < 2 ticks: unobservable
  cfg.period_b = Duration::Seconds(60);
  cfg.goertzel_block_ticks = 12;
  Registry registry;
  Tracer tracer;
  HealthMonitor hm(cfg, kTick, &tracer, &registry);
  // Alternating signal (the strongest possible sub-Nyquist content).
  for (int n = 0; n < 12; ++n) {
    hm.ObserveTick(T(10.0 * (n + 1)), n % 2 == 0 ? 200 : 0, 0, 0);
  }
  EXPECT_EQ(hm.periodicity_ppm_a(), 0);
}

TEST(HealthMonitor, StormEntersWithHysteresisAndEmitsExactTraces) {
  HealthConfig cfg;
  cfg.storm_min_count = 10;
  cfg.storm_enter_ticks = 2;
  cfg.storm_window_ticks = 1;  // instantaneous: exact per-tick arithmetic
  cfg.storm_factor = 6.0;
  cfg.storm_exit_factor = 2.0;
  cfg.baseline_alpha = 0.5;
  Registry registry;
  Tracer tracer;
  HealthMonitor hm(cfg, kTick, &tracer, &registry);

  hm.ObserveTick(T(10), 2, 1, 1);  // seeds baseline at 2
  hm.ObserveTick(T(20), 2, 1, 1);  // baseline stays 2
  EXPECT_FALSE(hm.storm_active());
  hm.ObserveTick(T(30), 50, 25, 25);  // over the bar, 1st consecutive tick
  EXPECT_FALSE(hm.storm_active());    // hysteresis: not yet
  hm.ObserveTick(T(40), 60, 30, 30);  // 2nd consecutive tick: storm starts
  EXPECT_TRUE(hm.storm_active());
  EXPECT_EQ(hm.storms_started(), 1u);
  hm.ObserveTick(T(50), 80, 40, 40);  // still raging; new peak
  EXPECT_TRUE(hm.storm_active());
  hm.ObserveTick(T(60), 1, 1, 0);  // collapses below the exit bar
  EXPECT_FALSE(hm.storm_active());

  EXPECT_EQ(registry.GetCounter("health.storm.starts").value(), 1u);
  EXPECT_EQ(registry.GetGauge("health.storm.peak_window").value(), 80);
  EXPECT_EQ(
      tracer.buffer(),
      "{\"t_ns\":40000000000,\"ev\":\"storm_start\",\"window\":60,"
      "\"baseline_x100\":200}\n"
      "{\"t_ns\":60000000000,\"ev\":\"storm_end\",\"peak_window\":80,"
      "\"duration_ns\":20000000000}\n");
}

TEST(HealthMonitor, SingleSpikeDoesNotStartAStorm) {
  HealthConfig cfg;
  cfg.storm_min_count = 10;
  cfg.storm_enter_ticks = 2;
  cfg.storm_window_ticks = 1;
  Registry registry;
  Tracer tracer;
  HealthMonitor hm(cfg, kTick, &tracer, &registry);
  hm.ObserveTick(T(10), 2, 1, 1);
  hm.ObserveTick(T(20), 100, 50, 50);  // one hot window...
  hm.ObserveTick(T(30), 2, 1, 1);      // ...then back to normal
  hm.ObserveTick(T(40), 100, 50, 50);
  hm.ObserveTick(T(50), 2, 1, 1);
  EXPECT_EQ(hm.storms_started(), 0u);
  EXPECT_TRUE(tracer.buffer().empty());
}

// An isolated spray burst lands in ONE tick (stateless routers flush a
// whole spray in a single window), yet the default sliding window must keep
// it over the bar long enough to satisfy the consecutive-tick hysteresis.
TEST(HealthMonitor, WindowKeepsAnIsolatedSprayVisibleToHysteresis) {
  HealthConfig cfg;
  cfg.storm_min_count = 10;
  cfg.storm_enter_ticks = 2;
  cfg.storm_window_ticks = 6;
  cfg.storm_factor = 6.0;
  cfg.storm_exit_factor = 2.0;
  cfg.baseline_alpha = 0.5;
  Registry registry;
  Tracer tracer;
  HealthMonitor hm(cfg, kTick, &tracer, &registry);

  hm.ObserveTick(T(10), 2, 1, 1);       // windowed sum 2: baseline seeds 2
  hm.ObserveTick(T(20), 100, 50, 50);   // the spray: sum 102, 1st over-tick
  EXPECT_FALSE(hm.storm_active());
  hm.ObserveTick(T(30), 0, 0, 0);       // silence, but sum still 102
  EXPECT_TRUE(hm.storm_active());       // 2nd consecutive over-tick
  EXPECT_EQ(hm.storms_started(), 1u);
  // Four more quiet ticks: the spray ages out of the 6-tick window and the
  // windowed sum collapses under the exit bar.
  hm.ObserveTick(T(40), 0, 0, 0);
  hm.ObserveTick(T(50), 0, 0, 0);
  hm.ObserveTick(T(60), 0, 0, 0);
  hm.ObserveTick(T(70), 0, 0, 0);
  hm.ObserveTick(T(80), 0, 0, 0);       // spray left the window: sum 0
  EXPECT_FALSE(hm.storm_active());
  EXPECT_EQ(registry.GetGauge("health.storm.peak_window").value(), 102);
}

TEST(HealthMonitor, SessionizerEmitsBurstsOverTheMinimumOnly) {
  HealthConfig cfg;
  cfg.session_gap = Duration::Seconds(90);
  cfg.session_min_events = 3;
  Registry registry;
  Tracer tracer;
  HealthMonitor hm(cfg, kTick, &tracer, &registry);

  // Peer 5: three events inside the gap — reportable at finalize.
  hm.ObservePeerEvent(T(1), 5);
  hm.ObservePeerEvent(T(2), 5);
  hm.ObservePeerEvent(T(3), 5);
  // Peer 7: two events, then a 200 s gap splits the run. The first burst is
  // under the minimum, so the split must report nothing.
  hm.ObservePeerEvent(T(1), 7);
  hm.ObservePeerEvent(T(2), 7);
  hm.ObservePeerEvent(T(202), 7);
  hm.Finalize(T(210));

  EXPECT_EQ(registry.GetCounter("health.flap.bursts").value(), 1u);
  EXPECT_EQ(registry.GetGauge("health.flap.peak_events").value(), 3);
  EXPECT_EQ(
      tracer.buffer(),
      "{\"t_ns\":210000000000,\"ev\":\"flap_burst\",\"peer\":5,\"events\":3,"
      "\"start_ns\":1000000000,\"duration_ns\":2000000000}\n");
}

TEST(HealthMonitor, FinalizeClosesAnOpenStorm) {
  HealthConfig cfg;
  cfg.storm_min_count = 10;
  cfg.storm_enter_ticks = 1;
  cfg.storm_window_ticks = 1;
  Registry registry;
  Tracer tracer;
  HealthMonitor hm(cfg, kTick, &tracer, &registry);
  hm.ObserveTick(T(10), 2, 1, 1);
  hm.ObserveTick(T(20), 100, 50, 50);
  ASSERT_TRUE(hm.storm_active());
  hm.Finalize(T(30));
  EXPECT_FALSE(hm.storm_active());
  EXPECT_NE(tracer.buffer().find("\"ev\":\"storm_end\""), std::string::npos);
}

}  // namespace
}  // namespace iri::obs
