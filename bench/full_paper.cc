// Full-paper-scale reproduction bench: the measured corpus shape at
// scale_denominator = 1 — five exchange-point collectors (Mae-East, AADS,
// Sprint, PacBell, Mae-West) over a 42,000-prefix default-free universe —
// run for a configurable window of simulated days (--days=D, default 1).
// It prints the campaign's event volume and taxonomy table, and with
// --attribution[=FILE] the causal attribution report (and its JSON).
//
// Timing this corpus is perfbench's job (perfbench/README.md); this bench
// only checks it. The run honours --threads (exchange workers, DESIGN.md
// §8), and whenever that departs from 1 the digest is asserted against a
// serial run.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/classifier.h"
#include "core/report.h"
#include "workload/multi_exchange_runner.h"

int main(int argc, char** argv) {
  using namespace iri;
  auto flags = bench::Flags::Parse(argc, argv, /*days=*/1,
                                   /*scale_denominator=*/1,
                                   /*providers=*/16);
  int threads = 1;
  bool attribution = false;
  std::string attribution_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--attribution") == 0) attribution = true;
    if (std::strncmp(argv[i], "--attribution=", 14) == 0) {
      attribution = true;
      attribution_path = argv[i] + 14;
    }
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = bench::ThreadCount(argv[i] + 10);
    }
  }
  bench::PrintHeader("Full-paper-scale corpus (5 exchanges)", flags);

  workload::MultiExchangeConfig cfg;
  cfg.scenario = flags.ToScenarioConfig();
  cfg.scenario.num_exchanges = 5;
  cfg.threads = threads;

  const int prefixes = static_cast<int>(
      cfg.scenario.topology.full_scale_prefixes * cfg.scenario.topology.scale);

  workload::MultiExchangeRunner runner(cfg);
  workload::MultiExchangeResult result = runner.Run();
  const std::string digest = result.Digest("full_paper");
  // The digest holds all this bench needs of the MRT streams; free them so
  // the determinism rerun below does not hold two campaigns at once.
  for (workload::ExchangeRun& run : result.exchanges) {
    std::vector<std::uint8_t>().swap(run.mrt);
  }

  if (threads != 1) {
    workload::MultiExchangeConfig serial_cfg = cfg;
    serial_cfg.threads = 1;
    workload::MultiExchangeRunner serial_runner(std::move(serial_cfg));
    if (serial_runner.Run().Digest("full_paper") != digest) {
      std::fprintf(stderr,
                   "FATAL: threads=%d produced a different digest than the "
                   "serial run — determinism broken\n",
                   threads);
      return 1;
    }
    std::printf("digest stable at threads=%d\n", threads);
  }

  std::printf("%d prefixes, %d providers, 5 exchanges\n", prefixes,
              flags.providers);
  std::printf("%llu messages, %llu prefix events (%.0f events/simday; the "
              "paper reports 3-6M/day across its collectors)\n",
              static_cast<unsigned long long>(result.total_messages),
              static_cast<unsigned long long>(result.total_events),
              static_cast<double>(result.total_events) / flags.days);
  for (std::size_t c = 0; c < core::kNumCategories; ++c) {
    std::printf("  %-8s %10llu (%5.1f%%)\n",
                core::ToString(static_cast<core::Category>(c)),
                static_cast<unsigned long long>(
                    result.combined_classifier_totals[c]),
                100.0 *
                    static_cast<double>(result.combined_classifier_totals[c]) /
                    static_cast<double>(result.total_events));
  }
  if (attribution) {
    std::vector<obs::ExchangeAttribution> attrs;
    attrs.reserve(result.exchanges.size());
    for (const auto& run : result.exchanges) attrs.push_back(run.attribution);
    std::fputs(core::FormatAttributionReport(attrs).c_str(), stdout);
    if (!attribution_path.empty()) {
      const std::string body = core::AttributionJson(attrs);
      if (!bench::WriteTextFile(attribution_path, body)) return 1;
      std::printf("wrote %s\n", attribution_path.c_str());
    }
  }
  return 0;
}
