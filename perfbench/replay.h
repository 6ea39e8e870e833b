// The offline half of the paper's §2 workflow, driven from outside: read
// per-exchange MRT segments (mrt::Reader), decode each record (bgp::Decode),
// classify it through a fresh core::ExchangeMonitor (Ingest), bin the
// instability events into a 10-minute series and run the Figure 5 analyses
// on it (detrended-log correlogram, Burg MEM, SSA).
//
// The loop is ExchangeMonitor::Replay's loop written out, so the benchmark
// can count the records Replay skips silently and time each stage. It is
// the corpus workloads' correctness gate and the work replay_s_per_simday
// measures.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/classifier.h"
#include "harness.h"
#include "mrt/log.h"

namespace perfbench {

using BinTotals = std::array<std::uint64_t, iri::core::kNumCategories>;

// One exchange's MRT stream and the classifier totals the live run reported
// for it; replaying the stream must reproduce them exactly.
struct Segment {
  std::unique_ptr<iri::mrt::Reader> reader;
  BinTotals live_totals{};
};

// Pass/fail bookkeeping: every check counts as one attempted operation.
struct Gate {
  std::uint64_t checks = 0;
  std::uint64_t failures = 0;
  std::vector<std::string> notes;  // one line per failure

  void Check(bool ok, const std::string& what);
};

// Prints a stage's one-line JSON report to stdout:
// {"stage":..,"digest":..,"checks":..,"failures":..,"notes":[..],"metrics":{..}}
void PrintStageReport(const std::string& stage, const std::string& digest,
                      const Gate& gate, const Metrics& metrics);

struct ReplayReport {
  std::vector<double> segment_s;  // host seconds per segment, drain included
  double analysis_s = 0;  // binning, detrending and the three estimators
  double total_s = 0;     // wall of the whole stage
  std::uint64_t records = 0;
  std::uint64_t events = 0;  // per-prefix events classified
  // Stage totals, measured only when traced (three clock reads a record).
  double read_s = 0;
  double decode_s = 0;
  double classify_s = 0;
  double correlogram_s = 0;
  double burg_s = 0;
  double ssa_s = 0;
};

// Writes exchange e's stream to <dir>/exchange-<e>.mrt.
bool WriteLogs(const std::string& dir,
               const std::vector<std::span<const std::uint8_t>>& streams);

// Opens the logs WriteLogs left in `dir`, one segment per entry of
// `live_totals`: each mrt::Reader loads its whole file. False (with a
// message on stderr) when a log cannot be read.
bool LoadLogs(const std::string& dir, const std::vector<BinTotals>& live_totals,
              std::vector<Segment>& segments);

// Replays every segment in order; each gets its own monitor (exchanges reuse
// collector-local peer ids). Spans go under `parent` when `spans` is set.
ReplayReport ReplaySegments(const std::vector<Segment>& segments, int days,
                            bool traced, Gate& gate, SpanLog* spans,
                            int parent);

// Appends the replay-side per-layer metrics (replay.*, analysis.*).
void AddReplayLayers(const ReplayReport& report, Metrics& metrics);

}  // namespace perfbench
