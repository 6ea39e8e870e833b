// Quickstart: build a small public exchange point, run one simulated day,
// and print the taxonomy report for the BGP updates the route server saw.
//
//   $ example_quickstart [hours=24] [seed=42]
#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "args.h"
#include "core/report.h"
#include "core/stats.h"
#include "workload/scenario.h"

int main(int argc, char** argv) {
  using namespace iri;
  constexpr const char* kUsage = "example_quickstart [hours=24] [seed=42]";
  if (argc > 3) examples::RejectArg(kUsage, "extra", argv[3]);
  const double hours =
      argc > 1 ? examples::PositiveArg(argv[1], "hours", kUsage) : 24.0;
  const std::uint64_t seed =
      argc > 2 ? examples::IntegerArg<std::uint64_t>(argv[2], 0, "seed", kUsage)
               : 42;

  workload::ScenarioConfig cfg;
  cfg.topology.scale = 1.0 / 64;  // ~650 prefixes; see DESIGN.md on scale
  cfg.topology.num_providers = 12;
  cfg.duration = Duration::Hours(hours);
  cfg.seed = seed;

  workload::ExchangeScenario scenario(cfg);

  core::CategoryCounts counts;
  core::TimeBinner binner(Duration::Minutes(10));
  scenario.monitor().AddSink([&](const core::ClassifiedEvent& ev) {
    counts.Add(ev);
    if (core::IsInstability(ev.category)) binner.Add(ev.event.time);
  });

  std::printf("simulating %.1f hours at 1/%d scale, %d providers...\n", hours,
              static_cast<int>(1.0 / cfg.topology.scale),
              cfg.topology.num_providers);
  scenario.Run();

  std::printf("\n=== update taxonomy (route-server view) ===\n%s\n",
              core::FormatCategoryReport(counts).c_str());

  std::printf("=== instability per 10-minute bin ===\n");
  const auto& bins = binner.bins();
  std::uint64_t max_bin = 1;
  for (auto b : bins) max_bin = std::max(max_bin, b);
  for (std::size_t i = 0; i < bins.size(); i += 6) {  // hourly rows
    std::uint64_t hour_total = 0;
    for (std::size_t j = i; j < std::min(i + 6, bins.size()); ++j) {
      hour_total += bins[j];
    }
    std::printf("h%03zu %6llu %s\n", i / 6,
                static_cast<unsigned long long>(hour_total),
                core::AsciiBar(static_cast<double>(hour_total),
                               static_cast<double>(max_bin) * 6, 40)
                    .c_str());
  }

  std::printf("\nroute server table: %zu prefixes, %zu paths\n",
              scenario.route_server().rib().NumPrefixes(),
              scenario.route_server().rib().NumRoutes());
  return 0;
}
