// Streaming time-series telemetry: windowed instruments drained by a
// scheduler-driven periodic flush into ordered JSONL series records.
//
// Where the metrics registry (obs/metrics.h) answers "how many, in total, at
// the end", the series layer answers "how many per window, while the run is
// still going" — the live signal the Routing Arbiter operators would have
// needed during the events of §5–§6 instead of a post-mortem snapshot.
//
// Determinism contract, identical to Registry::SnapshotText's:
//   * instruments are fed only by simulation events and flushed only by a
//     sim-time scheduler tick, so the record stream is a pure function of
//     (seed, config);
//   * every flush drains instruments in name order (std::map), one record
//     per instrument, stamped with simulated time;
//   * the flusher is single-partition state (one per ExchangeScenario). It
//     keeps no text: each tick's records stream to an optional sink and fold
//     into a running CRC-32 and byte count. The multi-exchange runner joins
//     the per-partition CRCs in fixed exchange order (Crc32Combine), so the
//     digest's timeseries section is the CRC of the concatenated text at any
//     worker thread count (locked by tests/golden_run_test.cc).
//
// EWMA values are doubles formatted with a fixed "%.6f"; the arithmetic is
// a fixed sequence of IEEE-754 operations per partition, so the formatted
// bytes cannot vary with thread placement.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/invariants.h"
#include "netbase/time.h"

namespace iri::obs {

// A windowed counter: per-window count (the "rolling rate" once divided by
// the flush interval), a cumulative total, and an EWMA of the per-window
// counts updated at every flush. Hot paths cache the pointer at attach time,
// like registry counters.
class WindowedCounter {
 public:
  // EWMA smoothing of every counter series (the golden series CRCs pin it).
  static constexpr double kEwmaAlpha = 0.3;

  void Add(std::uint64_t n = 1) {
    window_ += n;
    total_ += n;
  }

  // The count accumulated since the last flush (readable before the flush
  // drains it — the health monitor samples windows this way).
  std::uint64_t window() const { return window_; }
  std::uint64_t total() const { return total_; }
  double ewma() const { return ewma_; }

  // Closes the window: folds it into the EWMA and resets it to zero. The
  // first window seeds the EWMA directly.
  void CloseWindow() {
    const double w = static_cast<double>(window_);
    ewma_ = seeded_ ? kEwmaAlpha * w + (1.0 - kEwmaAlpha) * ewma_ : w;
    seeded_ = true;
    window_ = 0;
  }

 private:
  std::uint64_t window_ = 0;
  std::uint64_t total_ = 0;
  double ewma_ = 0.0;
  bool seeded_ = false;
};

// A sliding-window histogram: fixed buckets (ascending inclusive upper
// edges plus an overflow bucket) over the last `window_ticks` flush
// windows. Each flush retires the oldest window from a ring of per-window
// bucket arrays.
class WindowedHistogram {
 public:
  WindowedHistogram(std::span<const std::int64_t> upper_edges,
                    int window_ticks);

  void Observe(std::int64_t v);

  // Aggregates over the retained windows plus the one currently open.
  std::uint64_t count() const { return count_; }
  std::int64_t sum() const { return sum_; }
  std::span<const std::int64_t> edges() const { return edges_; }
  std::span<const std::uint64_t> buckets() const { return totals_; }

  // Closes the current window into the ring, evicting the oldest.
  void CloseWindow();

 private:
  std::vector<std::int64_t> edges_;
  // ring_[slot] is one window's bucket array (edges_.size() + 1 wide).
  std::vector<std::vector<std::uint64_t>> ring_;
  std::vector<std::uint64_t> current_;
  std::vector<std::uint64_t> totals_;  // sum of ring_ + current_
  std::vector<std::int64_t> window_sums_;
  std::vector<std::uint64_t> window_counts_;
  std::size_t slot_ = 0;
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::uint64_t current_count_ = 0;
  std::int64_t current_sum_ = 0;
};

// Name-keyed set of windowed instruments that a periodic sim-time event
// drains into JSONL records. One record per instrument per flush:
//
//   {"t_ns":<ns>,"series":"<name>","window":<n>,"total":<n>,"ewma":<x.xxxxxx>}
//   {"t_ns":<ns>,"series":"<name>","count":<n>,"sum":<n>,"buckets":[...]}
//
// Ownership discipline matches Registry/Tracer: single-partition, never
// shared across workers; the runner folds per-partition CRCs in fixed
// exchange order after the join.
class SeriesFlusher {
 public:
  // Receives one flush's records (complete "\n"-terminated lines). The view
  // is only valid during the call.
  using Sink = std::function<void(std::string_view)>;

  SeriesFlusher() = default;
  SeriesFlusher(const SeriesFlusher&) = delete;
  SeriesFlusher& operator=(const SeriesFlusher&) = delete;
  SeriesFlusher(SeriesFlusher&&) = default;
  SeriesFlusher& operator=(SeriesFlusher&&) = default;

  // Registration returns stable references (instruments never move);
  // re-registering a name returns the existing instrument.
  WindowedCounter& GetCounter(const std::string& name);
  WindowedHistogram& GetWindowedHistogram(
      const std::string& name, std::span<const std::int64_t> upper_edges,
      int window_ticks);

  // Where each flush's text goes; without a sink it is only counted.
  void SetSink(Sink sink) { sink_ = std::move(sink); }

  // Formats one record per instrument, in name order, stamped `now`, folds
  // the text into crc32()/bytes() and hands it to the sink, then closes
  // every window. Driven by the scenario's periodic flush event.
  void Flush(TimePoint now);

  std::uint64_t records() const { return records_; }
  std::uint64_t flushes() const { return flushes_; }
  // CRC-32 and length of every record emitted so far, concatenated.
  std::uint32_t crc32() const { return crc_; }
  std::uint64_t bytes() const { return bytes_; }

 private:
  struct Instrument {
    std::unique_ptr<WindowedCounter> counter;    // exactly one of these
    std::unique_ptr<WindowedHistogram> histogram;
  };

  // Ordered map: flush iteration order == name order, by construction.
  std::map<std::string, Instrument> instruments_;
  Sink sink_;
  std::string scratch_;  // one flush's text, reused across ticks
  std::uint32_t crc_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t flushes_ = 0;
};

}  // namespace iri::obs
