// The Routing Arbiter workflow end to end, now at every exchange point at
// once: run the multi-exchange campaign on the parallel partitioned runner,
// log every BGP message to one MRT file (per-exchange streams written in
// fixed exchange order), then replay each segment offline through a fresh
// monitor and verify the two analyses agree — the paper's §2 methodology
// (live collection + offline decode) in one program.
//
//   $ example_exchange_monitor [hours=6] [/tmp/exchange.mrt] [exchanges=2]
//       [--attribution[=report.json]]
//
// --attribution prints the causal-attribution report (which injected fault
// produced each pathology class, with what blast radius) and, with =PATH,
// also writes the machine-readable JSON.
//
// Worker threads come from IRI_PARALLEL_EXCHANGES (default: hardware
// concurrency); the output is bit-identical at any thread count.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "args.h"
#include "core/monitor.h"
#include "core/report.h"
#include "core/stats.h"
#include "mrt/log.h"
#include "obs/metrics.h"
#include "workload/multi_exchange_runner.h"

int main(int argc, char** argv) {
  using namespace iri;
  constexpr const char* kUsage =
      "example_exchange_monitor [hours=6] [/tmp/exchange.mrt] [exchanges=2] "
      "[--attribution[=report.json]]";
  bool attribution = false;
  std::string attribution_path;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--attribution") == 0) {
      attribution = true;
    } else if (std::strncmp(argv[i], "--attribution=", 14) == 0) {
      attribution = true;
      attribution_path = argv[i] + 14;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() > 3) {
    examples::RejectArg(kUsage, "extra", positional[3]);
  }
  const double hours =
      positional.size() > 0
          ? examples::PositiveArg(positional[0], "hours", kUsage)
          : 6.0;
  const std::string path =
      positional.size() > 1 ? positional[1] : "/tmp/exchange.mrt";
  const int exchanges =
      positional.size() > 2
          ? examples::IntegerArg(positional[2], 1, "exchanges", kUsage)
          : 2;

  // --- live collection, one independent partition per exchange ---
  workload::MultiExchangeConfig cfg;
  cfg.scenario.topology.scale = 1.0 / 64;
  cfg.scenario.topology.num_providers = 12;
  cfg.scenario.duration = Duration::Hours(hours);
  cfg.scenario.num_exchanges = exchanges;

  std::printf("collecting %.1f simulated hours at %d exchange(s)...\n", hours,
              cfg.scenario.num_exchanges);
  workload::MultiExchangeRunner runner(std::move(cfg));
  // The runner keeps only the series CRCs; collect each exchange's JSONL
  // text through its flusher's sink. One slot per exchange, written only by
  // the worker that owns it, so any thread count is safe.
  std::vector<std::string> series(
      static_cast<std::size_t>(runner.config().scenario.num_exchanges));
  runner.SetPartitionSetup([&series](int e, workload::ExchangeScenario& s) {
    std::string& text = series[static_cast<std::size_t>(e)];
    s.series().SetSink([&text](std::string_view flush) { text += flush; });
  });
  // Non-const: the health summary below reads instruments through the
  // registry's get-or-create accessors.
  workload::MultiExchangeResult result = runner.Run();

  // Writes `segments` to `file_path` back to back, in order.
  auto write_segments = [](const std::string& file_path,
                           const auto& segments) {
    std::FILE* f = std::fopen(file_path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", file_path.c_str());
      return false;
    }
    bool ok = true;
    for (const auto& segment : segments) {
      ok = ok && (segment.empty() ||
                  std::fwrite(segment.data(), 1, segment.size(), f) ==
                      segment.size());
    }
    ok = std::fclose(f) == 0 && ok;
    if (!ok) std::fprintf(stderr, "write to %s failed\n", file_path.c_str());
    return ok;
  };

  // One file, per-exchange streams in exchange order.
  std::vector<std::span<const std::uint8_t>> streams;
  for (const auto& ex : result.exchanges) streams.emplace_back(ex.mrt);
  if (!write_segments(path, streams)) return 1;
  std::printf("wrote %llu MRT bytes (%llu messages, CRC32 0x%08X) to %s\n",
              static_cast<unsigned long long>(result.MrtBytes()),
              static_cast<unsigned long long>(result.total_messages),
              result.MrtCrc32(), path.c_str());

  std::printf("\nper-exchange live volume:\n");
  for (const auto& ex : result.exchanges) {
    std::printf("exchange %d  %7llu events  %s\n", ex.exchange,
                static_cast<unsigned long long>(ex.events),
                core::AsciiBar(static_cast<double>(ex.events),
                               static_cast<double>(
                                   std::max<std::uint64_t>(1,
                                                           result.total_events)),
                               40)
                    .c_str());
  }

  std::printf("\nlive taxonomy (all exchanges merged):\n%s\n",
              core::FormatCategoryReport(result.combined).c_str());

  std::printf("merged deterministic metrics snapshot:\n%s\n",
              result.metrics.SnapshotText().c_str());

  // --- streaming telemetry: the operator-facing series + health view ---
  // Per-exchange JSONL segments written in exchange order, same determinism
  // contract as the MRT bytes. Try:
  //   jq -r 'select(.series=="monitor.wwdup") | [.t_ns,.window] | @tsv'
  const std::string series_path = path + ".series.jsonl";
  if (!write_segments(series_path, series)) return 1;
  std::size_t series_bytes = 0;
  for (const std::string& text : series) series_bytes += text.size();
  std::printf("wrote %llu series records (%zu bytes) to %s\n",
              static_cast<unsigned long long>(result.total_series_records),
              series_bytes, series_path.c_str());
  std::printf(
      "instability health: %llu storm(s), %llu flap burst(s) (peak %lld "
      "events), periodicity score 30s=%lldppm 60s=%lldppm, %llu alert(s)\n",
      static_cast<unsigned long long>(
          result.metrics.GetCounter("health.storm.starts").value()),
      static_cast<unsigned long long>(
          result.metrics.GetCounter("health.flap.bursts").value()),
      static_cast<long long>(
          result.metrics.GetGauge("health.flap.peak_events").value()),
      static_cast<long long>(
          result.metrics.GetGauge("health.periodicity.a_ppm").value()),
      static_cast<long long>(
          result.metrics.GetGauge("health.periodicity.b_ppm").value()),
      static_cast<unsigned long long>(
          result.metrics.GetCounter("health.periodicity.alerts").value()));

  if (attribution) {
    std::vector<obs::ExchangeAttribution> attrs;
    attrs.reserve(result.exchanges.size());
    for (const auto& ex : result.exchanges) attrs.push_back(ex.attribution);
    std::printf("\n%s", core::FormatAttributionReport(attrs).c_str());
    if (!attribution_path.empty()) {
      const std::string body = core::AttributionJson(attrs);
      const std::vector<std::string_view> segments{body};
      if (!write_segments(attribution_path, segments)) return 1;
      std::printf("wrote %s\n", attribution_path.c_str());
    }
  }

  // --- offline replay, segment by segment ---
  // Exchanges reuse collector-local peer ids, so each exchange's segment
  // replays through its own fresh monitor (one classifier per collector,
  // exactly like the Routing Arbiter's per-box logs).
  std::printf("replaying the MRT log offline...\n");
  bool match = true;
  std::uint64_t replayed_messages = 0;
  core::CategoryCounts replayed;
  for (const auto& ex : result.exchanges) {
    mrt::Reader reader(ex.mrt);
    core::ExchangeMonitor offline;
    obs::Registry offline_metrics;
    offline.AttachMetrics(&offline_metrics);
    core::CategoryCounts counts;
    offline.AddSink(
        [&counts](const core::ClassifiedEvent& ev) { counts.Add(ev); });
    replayed_messages += offline.Replay(reader);
    if (reader.crc_failures() != 0) {
      std::printf("exchange %d: %llu CRC failures\n", ex.exchange,
                  static_cast<unsigned long long>(reader.crc_failures()));
      match = false;
    }
    bool seg_match = counts.announcements == ex.counts.announcements &&
                     counts.withdrawals == ex.counts.withdrawals;
    for (std::size_t i = 0; i < core::kNumCategories; ++i) {
      seg_match = seg_match && counts.by_category[i] == ex.counts.by_category[i];
    }
    // Differential check on the instruments too: everything under
    // "monitor." is fed identically by the live tap and offline Replay.
    const bool metrics_match =
        offline_metrics.SnapshotText("monitor.") ==
        ex.metrics.SnapshotText("monitor.");
    std::printf("exchange %d: offline %s live (%llu events; monitor metrics "
                "%s)\n",
                ex.exchange, seg_match ? "matches" : "DIFFERS FROM",
                static_cast<unsigned long long>(counts.Total()),
                metrics_match ? "identical" : "DIFFER");
    match = match && seg_match && metrics_match;
    replayed.Merge(counts);
  }
  std::printf(
      "replayed %llu UPDATE messages; offline analysis %s the live "
      "analysis (%llu vs %llu events)\n",
      static_cast<unsigned long long>(replayed_messages),
      match ? "MATCHES" : "DIFFERS FROM",
      static_cast<unsigned long long>(result.combined.Total()),
      static_cast<unsigned long long>(replayed.Total()));
  return match ? 0 : 1;
}
