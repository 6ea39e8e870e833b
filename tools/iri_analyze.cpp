// iri_analyze — offline analysis of an MRT update log (the paper's §2
// decode-and-analyze workflow).
//
//   iri_analyze LOG.mrt [--bins=10m|1h] [--interarrival] [--spectrum]
//
// Always prints the taxonomy report and per-peer totals; optional sections
// add the inter-arrival histogram (Figure 8 style) and the power spectrum
// of hourly aggregates (Figure 5 style). A log that does not end on a whole
// record (a cut file, a corrupt length field) exits 1 with no report.
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "analysis/series.h"
#include "analysis/spectrum.h"
#include "core/monitor.h"
#include "core/report.h"
#include "core/stats.h"
#include "mrt/log.h"

using namespace iri;

int main(int argc, char** argv) {
  const char* path = nullptr;
  bool want_interarrival = false, want_spectrum = false;
  Duration bin_width = Duration::Minutes(10);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--interarrival") == 0) {
      want_interarrival = true;
    } else if (std::strcmp(argv[i], "--spectrum") == 0) {
      want_spectrum = true;
    } else if (std::strcmp(argv[i], "--bins=1h") == 0) {
      bin_width = Duration::Hours(1);
    } else if (std::strcmp(argv[i], "--bins=10m") == 0) {
      bin_width = Duration::Minutes(10);
    } else if (argv[i][0] != '-') {
      path = argv[i];
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("usage: iri_analyze LOG.mrt [--bins=10m|1h] "
                  "[--interarrival] [--spectrum]\n");
      return 0;
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr, "iri_analyze: an MRT log path is required\n");
    return 2;
  }

  mrt::Reader reader(path);
  if (!reader.ok()) {
    std::fprintf(stderr, "iri_analyze: cannot read %s\n", path);
    return 1;
  }

  core::ExchangeMonitor monitor;
  core::CategoryCounts counts;
  core::TimeBinner binner(bin_width);
  core::InterArrivalHistogram interarrival;
  struct PeerRow {
    std::uint64_t announce = 0, withdraw = 0;
  };
  std::map<std::pair<bgp::PeerId, bgp::Asn>, PeerRow> peers;
  TimePoint last_time;

  monitor.AddSink([&](const core::ClassifiedEvent& ev) {
    counts.Add(ev);
    if (core::IsInstability(ev.category)) binner.Add(ev.event.time);
    if (want_interarrival) interarrival.Add(ev);
    auto& row = peers[{ev.event.peer, ev.event.peer_asn}];
    if (ev.event.is_withdraw) {
      ++row.withdraw;
    } else {
      ++row.announce;
    }
    last_time = ev.event.time;
  });

  const std::uint64_t updates = monitor.Replay(reader);
  if (!reader.complete()) {
    std::fprintf(stderr,
                 "iri_analyze: log ends on a damaged or truncated record at "
                 "byte %zu\n",
                 reader.bytes_consumed());
    return 1;
  }
  std::printf("%s: %llu UPDATE messages, %llu prefix events, "
              "%llu CRC failures, span %s\n\n",
              path, static_cast<unsigned long long>(updates),
              static_cast<unsigned long long>(monitor.events_seen()),
              static_cast<unsigned long long>(reader.crc_failures()),
              FormatScenarioTime(last_time).c_str());

  std::printf("=== taxonomy ===\n%s\n",
              core::FormatCategoryReport(counts).c_str());

  std::printf("=== per-peer totals ===\n");
  std::vector<std::vector<std::string>> rows;
  for (const auto& [key, row] : peers) {
    rows.push_back({"peer-" + std::to_string(key.first),
                    "AS" + std::to_string(key.second),
                    std::to_string(row.announce),
                    std::to_string(row.withdraw)});
  }
  std::printf("%s\n", core::FormatTable({"peer", "asn", "announce",
                                         "withdraw"},
                                        rows)
                          .c_str());

  if (want_interarrival) {
    interarrival.Finalize();
    const auto summary = interarrival.Summarize();
    const auto& labels = core::InterArrivalHistogram::BinLabels();
    std::printf("=== inter-arrival histograms (median daily proportion) "
                "===\n");
    std::printf("%6s", "bin");
    for (const auto cat : core::PrefixPeerDaily::kTracked) {
      std::printf(" %8s", core::ToString(cat));
    }
    std::printf("\n");
    for (std::size_t bin = 0; bin < labels.size(); ++bin) {
      std::printf("%6s", labels[bin]);
      for (std::size_t cat = 0; cat < 4; ++cat) {
        std::printf(" %8.3f", summary[cat][bin].median);
      }
      std::printf("\n");
    }
    std::printf("\n");
  }

  if (want_spectrum) {
    // Rebin instability hourly, detrend the log, print top peaks.
    core::TimeBinner hourly(Duration::Hours(1));
    mrt::Reader again(path);
    core::ExchangeMonitor monitor2;
    monitor2.AddSink([&hourly](const core::ClassifiedEvent& ev) {
      if (core::IsInstability(ev.category)) hourly.Add(ev.event.time);
    });
    monitor2.Replay(again);
    hourly.ExtendTo(last_time);
    const auto& bins = hourly.bins();
    if (bins.size() >= 96) {
      analysis::Series x(bins.begin(), bins.end());
      const analysis::Series d = analysis::DetrendedLog(x);
      auto spec =
          analysis::CorrelogramSpectrum(d, std::min<std::size_t>(d.size() / 3, 512));
      auto peaks = analysis::FindPeaks(spec, 5);
      std::printf("=== spectrum of hourly instability (top peaks) ===\n");
      for (const auto& p : peaks) {
        std::printf("  period %7.1f h (%5.2f d)  power %.3g\n",
                    1.0 / p.frequency, 1.0 / p.frequency / 24.0, p.power);
      }
    } else {
      std::printf("=== spectrum skipped: need >= 4 days of data ===\n");
    }
  }
  return 0;
}
