// Deterministic parallel execution of multi-exchange measurement campaigns.
//
// The paper's dataset comes from five independent exchange points (Mae-East,
// Sprint NAP, AADS, PacBell NAP, Mae-West) whose collectors never talk to
// each other — they only meet again in post-hoc analysis. That independence
// is an execution boundary: a num_exchanges=K campaign splits into K
// single-exchange partitions (one ExchangeScenario each — the only way to
// run more than one exchange), each with its own sim::Scheduler, its own
// decorrelated RNG stream (ExchangeSubSeed), and private MRT/stats sinks.
// Partitions run on a small worker pool (sim::ParallelFor, sized by
// IRI_PARALLEL_EXCHANGES; 1 reproduces today's serial path) and their
// outputs are merged in fixed exchange order, so the result is bit-for-bit
// independent of thread count and interleaving. tests/golden_run_test.cc
// locks that claim against committed digests at 1, 2 and 4 threads.
//
// The runner keeps one copy of captured output: each exchange's MRT stream
// (and trace, if asked for) is moved out of its partition into its
// ExchangeRun and never concatenated. The digest's whole-campaign CRCs are
// folded from the per-exchange ones (Crc32Update over the streams,
// Crc32Combine over the series CRCs), so they equal the CRCs of the
// concatenations without building them.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/stats.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "workload/scenario.h"

namespace iri::workload {

struct MultiExchangeConfig {
  // scenario.num_exchanges is the partition count (>= 1).
  ScenarioConfig scenario;
  // Worker threads; <= 0 means sim::DefaultParallelism() (the
  // IRI_PARALLEL_EXCHANGES environment variable or hardware concurrency).
  int threads = 0;
  // Capture each partition's MRT byte stream in memory (the streams are
  // what the golden digests checksum). Disable for pure-stats runs.
  bool capture_mrt = true;
  // Move each partition's structured trace buffer (obs/trace.h) into its
  // ExchangeRun. Off by default: traces are bulky and only diagnostics want
  // them.
  bool capture_trace = false;
};

// Everything one exchange partition produced.
struct ExchangeRun {
  int exchange = 0;
  std::uint64_t sub_seed = 0;
  core::CategoryCounts counts;
  std::array<std::uint64_t, core::kNumCategories> classifier_totals{};
  std::uint64_t messages = 0;        // UPDATE messages tapped at the monitor
  std::uint64_t events = 0;          // per-prefix events classified
  std::uint64_t tasks_executed = 0;  // this partition's scheduler events
  std::vector<std::uint8_t> mrt;     // this exchange's MRT byte stream
  // This partition's metrics registry, copied (via Merge into an empty
  // registry) on the worker that owns the exchange. Only deterministic
  // instruments feed the merged snapshot, so the bytes are thread-count
  // independent.
  obs::Registry metrics;
  std::string trace;  // JSONL trace buffer (empty unless capture_trace)
  // This exchange's series telemetry (obs/timeseries.h): record count, and
  // the CRC-32 and length of its JSONL text. The text itself is not kept;
  // install a SeriesFlusher sink through SetPartitionSetup to collect it.
  std::uint64_t series_records = 0;
  std::uint32_t series_crc32 = 0;
  std::uint64_t series_bytes = 0;
  // The exchange's causal attribution: the classifier's provenance
  // matrix plus the cause table minted by this partition's scenario. Cause
  // ids are partition-local (dense, allocation-ordered), so attribution is
  // reported per exchange rather than renumbered into a global space.
  obs::ExchangeAttribution attribution;
};

// Per-exchange results plus the fixed-order merge.
struct MultiExchangeResult {
  std::vector<ExchangeRun> exchanges;  // index == exchange id
  core::CategoryCounts combined;
  std::array<std::uint64_t, core::kNumCategories> combined_classifier_totals{};
  // Per-exchange registries merged on the calling thread in exchange order
  // (the CategoryCounts::Merge pattern): counters and histograms sum, gauges
  // add — so a merged peak gauge is the sum of per-exchange peaks, not a
  // global peak. Snapshot bytes are identical at any worker count.
  obs::Registry metrics;
  std::uint64_t total_series_records = 0;
  std::uint64_t total_messages = 0;
  std::uint64_t total_events = 0;

  // CRC-32 and length of the per-exchange MRT streams taken in exchange
  // order, as one log file would hold them. Replay the streams one by one,
  // though: exchanges reuse collector-local peer ids, so one classifier
  // must not be fed two collectors' streams.
  std::uint32_t MrtCrc32() const;
  std::uint64_t MrtBytes() const;

  // Canonical digest text (MRT CRC-32 + classifier bin counts, metrics,
  // series and provenance summaries) used by the golden-run regression
  // suite; any byte of drift fails the comparison.
  std::string Digest(const std::string& scenario_name) const;
};

class MultiExchangeRunner {
 public:
  // Called after each partition's scenario is constructed and before it
  // runs, from whichever worker owns that exchange — it must only touch
  // state private to `exchange` (e.g. a per-exchange sink slot).
  using PartitionSetup = std::function<void(int exchange, ExchangeScenario&)>;

  explicit MultiExchangeRunner(MultiExchangeConfig config)
      : config_(std::move(config)) {}

  void SetPartitionSetup(PartitionSetup setup) { setup_ = std::move(setup); }

  // Generates the shared universe once, runs every partition to the horizon,
  // and merges in exchange order. Safe to call once per runner.
  MultiExchangeResult Run();

  const MultiExchangeConfig& config() const { return config_; }

 private:
  MultiExchangeConfig config_;
  PartitionSetup setup_;
};

}  // namespace iri::workload
