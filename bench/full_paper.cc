// Full-paper-scale reproduction bench: the measured corpus shape at
// scale_denominator = 1 — five exchange-point collectors (Mae-East, AADS,
// Sprint, PacBell, Mae-West) over a 42,000-prefix default-free universe —
// run for a configurable window of simulated days and timed for real.
//
// The paper's dataset spans nine months of collection; simulating that
// window outright is a batch job, so the bench runs --days=D (default 1)
// and, with --nine-months, extrapolates the measured per-simulated-day
// wall-clock and event volume to the full 270-day campaign.
//
// Emits BENCH_full_paper.json (shape: "metrics" list, see
// tools/bench/compare.py) for comparison against the committed
// bench/baseline/BENCH_full_paper.json. --ref-simday=SECONDS records a
// pre-change reference wall-clock per simulated day measured on the same
// machine, and the JSON then carries the speedup ratio against it.
//
// Determinism: the timed run honours --threads (exchange workers, DESIGN.md
// §8), and whenever it departs from 1 the digest is asserted against a
// serial run — a timing number from a configuration-dependent computation
// would be meaningless.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "core/classifier.h"
#include "core/report.h"
#include "workload/multi_exchange_runner.h"

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double>(elapsed).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace iri;
  auto flags = bench::Flags::Parse(argc, argv, /*days=*/1,
                                   /*scale_denominator=*/1,
                                   /*providers=*/16);
  std::string out_path = "BENCH_full_paper.json";
  int threads = 1;
  double ref_simday = 0;
  bool nine_months = false;
  bool attribution = false;
  std::string attribution_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
    if (std::strcmp(argv[i], "--attribution") == 0) attribution = true;
    if (std::strncmp(argv[i], "--attribution=", 14) == 0) {
      attribution = true;
      attribution_path = argv[i] + 14;
    }
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = std::atoi(argv[i] + 10);
    }
    if (std::strncmp(argv[i], "--ref-simday=", 13) == 0) {
      ref_simday = std::atof(argv[i] + 13);
    }
    if (std::strcmp(argv[i], "--nine-months") == 0) nine_months = true;
  }
  bench::PrintHeader("Full-paper-scale corpus (5 exchanges)", flags);

  workload::MultiExchangeConfig cfg;
  cfg.scenario = flags.ToScenarioConfig();
  cfg.scenario.num_exchanges = 5;
  cfg.threads = threads;

  const int prefixes = static_cast<int>(
      cfg.scenario.topology.full_scale_prefixes * cfg.scenario.topology.scale);

  // Timed run at the requested parallelism: the headline
  // seconds-per-simulated-day number.
  const auto start = std::chrono::steady_clock::now();
  workload::MultiExchangeRunner runner(cfg);
  const workload::MultiExchangeResult result = runner.Run();
  const double seconds = SecondsSince(start);
  const std::string digest = result.Digest("full_paper");

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

  const double seconds_per_simday = seconds / flags.days;
  const double updates_per_sec =
      static_cast<double>(result.total_events) / seconds;
  const double events_per_simday =
      static_cast<double>(result.total_events) / flags.days;

  std::printf("%d prefixes, %d providers, 5 exchanges\n", prefixes,
              flags.providers);
  std::printf("%.2fs wall for %g simulated day(s): %.2fs/simday, "
              "%.0f updates/sec\n",
              seconds, flags.days, seconds_per_simday, updates_per_sec);
  std::printf("%llu messages, %llu prefix events (%.0f events/simday; the "
              "paper reports 3-6M/day across its collectors)\n",
              static_cast<unsigned long long>(result.total_messages),
              static_cast<unsigned long long>(result.total_events),
              events_per_simday);
  for (std::size_t c = 0; c < core::kNumCategories; ++c) {
    std::printf("  %-8s %10llu (%5.1f%%)\n",
                core::ToString(static_cast<core::Category>(c)),
                static_cast<unsigned long long>(
                    result.combined_classifier_totals[c]),
                100.0 *
                    static_cast<double>(result.combined_classifier_totals[c]) /
                    static_cast<double>(result.total_events));
  }
  if (ref_simday > 0) {
    std::printf("speedup vs pre-change reference: %.2fx "
                "(%.2fs -> %.2fs per simday)\n",
                ref_simday / seconds_per_simday, ref_simday,
                seconds_per_simday);
  }
  if (attribution) {
    std::vector<obs::ExchangeAttribution> attrs;
    attrs.reserve(result.exchanges.size());
    for (const auto& run : result.exchanges) attrs.push_back(run.attribution);
    std::fputs(core::FormatAttributionReport(attrs).c_str(), stdout);
    if (!attribution_path.empty()) {
      const std::string body = core::AttributionJson(attrs);
      std::FILE* f = std::fopen(attribution_path.c_str(), "wb");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", attribution_path.c_str());
        return 1;
      }
      std::fwrite(body.data(), 1, body.size(), f);
      std::fclose(f);
      std::printf("wrote %s\n", attribution_path.c_str());
    }
  }
  if (nine_months) {
    const double campaign_days = 270;
    std::printf("nine-month campaign extrapolation: %.1f wall-hours, "
                "%.0fM events\n",
                campaign_days * seconds_per_simday / 3600.0,
                campaign_days * events_per_simday / 1e6);
  }

  bench::JsonWriter json;
  json.BeginObject()
      .Field("bench", "full_paper")
      .Field("exchanges", 5)
      .Field("scale_denominator", flags.scale_denominator, 0)
      .Field("prefixes", prefixes)
      .Field("days", flags.days, 3)
      .Field("providers", flags.providers)
      .Field("seed", flags.seed)
      .Field("threads", threads)
      .Field("messages", result.total_messages)
      .Field("events", result.total_events)
      .Field("seconds", seconds, 2);
  json.BeginArray("metrics");
  json.BeginObject(nullptr, /*compact=*/true)
      .Field("name", "seconds_per_simday")
      .Field("value", seconds_per_simday, 3)
      .Field("higher_is_better", false)
      .EndObject();
  json.BeginObject(nullptr, /*compact=*/true)
      .Field("name", "updates_per_sec")
      .Field("value", updates_per_sec, 1)
      .Field("higher_is_better", true)
      .EndObject();
  json.EndArray();
  json.BeginObject("categories", /*compact=*/true);
  for (std::size_t c = 0; c < core::kNumCategories; ++c) {
    json.Field(core::ToString(static_cast<core::Category>(c)),
               result.combined_classifier_totals[c]);
  }
  json.EndObject();
  if (ref_simday > 0) {
    json.BeginObject("speedup_vs_pre_change")
        .Field("reference_seconds_per_simday", ref_simday, 3)
        .Field("seconds_per_simday", seconds_per_simday, 3)
        .Field("ratio", ref_simday / seconds_per_simday, 3)
        .EndObject();
  }
  if (nine_months) {
    json.BeginObject("nine_month_extrapolation")
        .Field("campaign_days", 270)
        .Field("projected_wall_hours", 270 * seconds_per_simday / 3600.0, 2)
        .Field("projected_events", 270 * events_per_simday, 0)
        .EndObject();
  }
  json.EndObject();
  if (!json.WriteFile(out_path)) return 1;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
