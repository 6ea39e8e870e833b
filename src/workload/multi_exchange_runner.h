// Deterministic parallel execution of multi-exchange measurement campaigns.
//
// The paper's dataset comes from five independent exchange points (Mae-East,
// Sprint NAP, AADS, PacBell NAP, Mae-West) whose collectors never talk to
// each other — they only meet again in post-hoc analysis. That independence
// is an execution boundary: a num_exchanges=K scenario splits into K
// single-exchange partitions, each with its own sim::Scheduler, its own
// decorrelated RNG stream (ExchangeSubSeed), and private MRT/stats sinks.
// Partitions run on a small worker pool (sim::ParallelFor, sized by
// IRI_PARALLEL_EXCHANGES; 1 reproduces today's serial path) and their
// outputs are merged in fixed exchange order, so the result is bit-for-bit
// independent of thread count and interleaving. tests/golden_run_test.cc
// locks that claim against committed digests at 1, 2 and 4 threads.
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
  // Capture each partition's MRT byte stream in memory (the merged stream
  // is what the golden digests checksum). Disable for pure-stats runs.
  bool capture_mrt = true;
  // Copy each partition's structured trace buffer (obs/trace.h) into its
  // ExchangeRun and the merged result. Off by default: traces are bulky and
  // only diagnostics want them.
  bool capture_trace = false;
  // Copy each partition's series JSONL buffer (obs/timeseries.h) into its
  // ExchangeRun and the merged result. On by default: the series records are
  // bounded (one line per instrument per flush) and the digest pins them.
  // A scenario.series_flush_interval of zero still disables the whole path.
  bool capture_series = true;
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
  // This exchange's series JSONL records (empty unless capture_series):
  // name-ordered within each flush, flushes in sim-time order.
  std::string series;
  std::uint64_t series_records = 0;
  // The exchange's causal attribution: the classifier's provenance
  // matrix plus the cause table minted by this partition's scenario. Cause
  // ids are partition-local (dense, allocation-ordered), so attribution is
  // reported per exchange rather than renumbered into a global space.
  // Empty when IRI_PROVENANCE=OFF.
  obs::ExchangeAttribution attribution;
};

// Per-exchange results plus the fixed-order merge.
struct MultiExchangeResult {
  std::vector<ExchangeRun> exchanges;  // index == exchange id
  core::CategoryCounts combined;
  std::array<std::uint64_t, core::kNumCategories> combined_classifier_totals{};
  // Per-exchange MRT streams concatenated in exchange order. Replay segment
  // by segment (exchanges reuse collector-local peer ids, so one classifier
  // must not be fed two collectors' streams).
  std::vector<std::uint8_t> merged_mrt;
  // Per-exchange registries merged on the calling thread in exchange order
  // (the CategoryCounts::Merge pattern): counters and histograms sum, gauges
  // add — so a merged peak gauge is the sum of per-exchange peaks, not a
  // global peak. Snapshot bytes are identical at any worker count.
  obs::Registry metrics;
  // Per-exchange JSONL traces concatenated in exchange order (empty unless
  // capture_trace). Exchanges reuse collector-local names, so consumers
  // should replay segment by segment like merged_mrt.
  std::string merged_trace;
  // Per-exchange series JSONL concatenated in exchange order (empty unless
  // capture_series). Within a segment the records are already sorted by
  // (t_ns, series name); consumers joining across exchanges should group by
  // segment, like merged_mrt.
  std::string merged_series;
  std::uint64_t total_series_records = 0;
  std::uint64_t total_messages = 0;
  std::uint64_t total_events = 0;

  std::uint32_t MrtCrc32() const;

  // Canonical digest text (MRT CRC-32 + classifier bin counts) used by the
  // golden-run regression suite; any byte of drift fails the comparison.
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
