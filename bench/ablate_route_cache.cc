// §3/§6 ablation: route-caching vs full-table forwarding under instability.
//
// The paper: cache churn under instability raises miss rates, CPU load, and
// packet loss; "informal experiments ... suggest that sufficiently high
// rates of pathological updates (300 updates per second) are enough to
// crash a widely deployed, high-end model of Internet router"; and the new
// full-table forwarding hardware "do[es] not exhibit the same pathological
// loss". Sweep the update rate and compare both architectures.
#include <cmath>

#include "bench_common.h"
#include "core/report.h"
#include "netbase/rng.h"
#include "sim/forwarding.h"

using namespace iri;

namespace {

struct RunResult {
  double miss_rate = 0;
  double drop_rate = 0;
  double cpu_backlog_ms = 0;
};

// Drives `seconds` of 20k packets/s Zipf-ish traffic over a 4096-prefix
// table while `updates_per_second` random route changes churn it.
RunResult Run(sim::ForwardingArchitecture arch, double updates_per_second,
              std::uint64_t seed) {
  sim::ForwardingEngine::Params params;
  params.architecture = arch;
  // The cache comfortably holds the steady working set: baseline misses are
  // cold-start only, so everything above that is churn-induced.
  params.cache_capacity = 8192;
  params.slow_path_cost = Duration::Micros(150);
  // Update processing on a mid-90s route processor: decode plus evaluation
  // "against a potentially extensive list of policy filters".
  params.update_cost = Duration::Millis(3.2);
  params.cpu_queue_limit = Duration::Millis(30);
  sim::ForwardingEngine fwd(params);
  Rng rng(seed);

  constexpr int kPrefixes = 4096;
  for (std::uint32_t i = 0; i < kPrefixes; ++i) {
    fwd.OnRouteChange(
        Prefix(IPv4Address((30u << 24) | (i << 8)), 24),
        IPv4Address(1, 1, 1, static_cast<std::uint8_t>(i % 8)),
        TimePoint::Origin());
  }

  const double seconds = 30;
  const double pps = 20000;

  // Warm up: let the CPU absorb the initial table load, then fill the cache
  // with churn-free traffic so the measured interval isolates instability.
  TimePoint now = TimePoint::Origin() + Duration::Seconds(30);
  while (now < TimePoint::Origin() + Duration::Seconds(60)) {
    now += Duration::Seconds(1.0 / pps);
    const double uw = rng.Uniform();
    const auto idx = static_cast<std::uint32_t>(uw * uw * kPrefixes);
    fwd.Forward(IPv4Address((30u << 24) | (idx << 8) | 1u), now);
  }
  const auto warm = fwd.stats();

  const TimePoint end = now + Duration::Seconds(seconds);
  TimePoint next_update =
      updates_per_second > 0
          ? now + Duration::Seconds(rng.Exponential(1.0 / updates_per_second))
          : TimePoint::Max();
  Duration max_backlog;

  while (now < end) {
    now += Duration::Seconds(1.0 / pps);
    while (next_update <= now) {
      // A flap: one random prefix changes next hop (or bounces).
      const std::uint32_t i = static_cast<std::uint32_t>(rng.Below(kPrefixes));
      const Prefix p(IPv4Address((30u << 24) | (i << 8)), 24);
      if (rng.Bernoulli(0.3)) {
        fwd.OnRouteWithdrawn(p, next_update);
        fwd.OnRouteChange(p, IPv4Address(1, 1, 1, 2), next_update);
      } else {
        fwd.OnRouteChange(
            p, IPv4Address(1, 1, 1, static_cast<std::uint8_t>(rng.Below(8))),
            next_update);
      }
      next_update +=
          Duration::Seconds(rng.Exponential(1.0 / updates_per_second));
    }
    // Zipf-ish destination popularity: square the uniform draw.
    const double u = rng.Uniform();
    const auto idx = static_cast<std::uint32_t>(u * u * kPrefixes);
    fwd.Forward(IPv4Address((30u << 24) | (idx << 8) |
                            static_cast<std::uint32_t>(rng.Below(250) + 1)),
                now);
    max_backlog = std::max(max_backlog, fwd.CpuBacklog(now));
  }

  RunResult result;
  const auto& st = fwd.stats();
  const double lookups =
      static_cast<double>(st.lookups - warm.lookups);
  result.miss_rate =
      lookups > 0 ? static_cast<double>(st.misses - warm.misses) / lookups : 0;
  result.drop_rate =
      lookups > 0 ? static_cast<double>(st.drops - warm.drops) / lookups : 0;
  result.cpu_backlog_ms = max_backlog.ToSeconds() * 1e3;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed 4096-prefix table and traffic mix: only --seed applies.
  auto flags = bench::Flags::Parse(argc, argv, /*days=*/std::nullopt,
                                   /*scale_denominator=*/std::nullopt,
                                   /*providers=*/std::nullopt);
  bench::PrintHeader(
      "Ablation: route-cache vs full-table forwarding under update load",
      flags);

  std::vector<std::vector<std::string>> rows;
  for (double rate : {0.0, 10.0, 50.0, 100.0, 300.0, 1000.0}) {
    const RunResult cache =
        Run(sim::ForwardingArchitecture::kRouteCache, rate, flags.seed);
    const RunResult full =
        Run(sim::ForwardingArchitecture::kFullTable, rate, flags.seed);
    char r[16], m[16], d[16], b[24], fd[16];
    std::snprintf(r, sizeof(r), "%.0f", rate);
    std::snprintf(m, sizeof(m), "%.1f%%", cache.miss_rate * 100);
    std::snprintf(d, sizeof(d), "%.1f%%", cache.drop_rate * 100);
    std::snprintf(b, sizeof(b), "%.1f", cache.cpu_backlog_ms);
    std::snprintf(fd, sizeof(fd), "%.1f%%", full.drop_rate * 100);
    rows.push_back({r, m, d, b, fd});
  }
  std::printf("%s\n",
              core::FormatTable({"updates/s", "cache-miss", "cache-drop",
                                 "cache-cpu-backlog-ms", "fulltable-drop"},
                                rows)
                  .c_str());
  std::printf(
      "paper expectations: loss and CPU load climb with the update rate on "
      "the caching architecture (severe by ~300 updates/s — the rate that "
      "crashed a high-end router); the full-table forwarding hardware is "
      "unaffected at any rate.\n");
  return 0;
}
