// Deterministic self-measurement: a metrics registry of named counters,
// gauges and fixed-bucket histograms.
//
// The paper's whole contribution is measurement — tap the route servers,
// count and classify everything, mine the streams for structure (§2–§4).
// This registry is the same discipline turned inward on the simulator
// itself: every hot path (RIB, classifier ingest, wire codec, scheduler)
// and every fault path (crashes, link drops, session resets) feeds named
// instruments, snapshottable to stable-ordered text and JSON.
//
// Determinism contract (the property every consumer leans on):
//   * instruments hold plain integers fed only by simulation events, so a
//     partition's registry depends on (seed, config) alone, never on thread
//     placement or wall time;
//   * snapshots iterate a name-ordered std::map — output bytes are stable
//     across libstdc++ versions and across runs;
//   * Merge() folds another registry in by name (counters and gauges add,
//     histograms add bucket-wise), mirroring core::CategoryCounts::Merge —
//     the partitioned multi-exchange runner merges per-exchange registries
//     in fixed exchange order, so merged output is bit-identical at any
//     worker-thread count (locked by tests/golden_run_test.cc).
//
// The one sanctioned nondeterministic exception: instruments registered
// with Stability::kWallClock (the profiling layer's optional wall-time
// counters). They are excluded from snapshots unless explicitly requested
// and never belong in a golden digest.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/invariants.h"

namespace iri::obs {

class Counter {
 public:
  void Add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(std::int64_t v) { value_ = v; }
  void Add(std::int64_t v) { value_ += v; }
  // For peak-style gauges: keeps the maximum ever offered.
  void RaiseTo(std::int64_t v) {
    if (v > value_) value_ = v;
  }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

// Fixed-bucket histogram: `upper_edges` are ascending inclusive upper
// bounds; one overflow bucket catches everything beyond the last edge.
// Buckets are fixed at registration so merged histograms always align.
class Histogram {
 public:
  explicit Histogram(std::span<const std::int64_t> upper_edges);

  void Observe(std::int64_t v);

  std::uint64_t count() const { return count_; }
  std::int64_t sum() const { return sum_; }
  std::span<const std::int64_t> edges() const { return edges_; }
  // buckets()[i] counts observations <= edges()[i]; the final element is
  // the overflow bucket.
  std::span<const std::uint64_t> buckets() const { return buckets_; }

  // Bucket-wise sum; edge vectors must be identical.
  void Merge(const Histogram& other);

 private:
  std::vector<std::int64_t> edges_;
  std::vector<std::uint64_t> buckets_;  // edges_.size() + 1 (overflow last)
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
};

// Whether an instrument participates in deterministic snapshots (and hence
// golden digests). kWallClock marks the profiling layer's wall-time
// counters, which vary run to run by construction.
enum class Stability : std::uint8_t { kDeterministic, kWallClock };

// How Merge() folds a gauge across partitions. kSum suits level-style
// gauges (current sizes, token counts); kMax suits peak- and score-style
// gauges fed via RaiseTo, where a sum of per-partition maxima reads as a
// number no single partition ever saw.
enum class GaugeMerge : std::uint8_t { kSum, kMax };

// Name-keyed instrument registry. Registration returns a stable reference
// (instruments never move once created), so hot paths cache the pointer at
// attach time and pay one predictable increment per event afterwards.
// Re-registering a name returns the existing instrument; registering the
// same name as a different kind is a caller bug (IRI_ASSERT).
//
// A Registry is single-partition state: one per ExchangeScenario, private
// to whichever worker owns that partition. Cross-partition aggregation goes
// through Merge() on the calling thread after the join, in fixed exchange
// order — never through sharing.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;
  Registry(Registry&&) = default;
  Registry& operator=(Registry&&) = default;

  Counter& GetCounter(const std::string& name,
                      Stability stability = Stability::kDeterministic);
  Gauge& GetGauge(const std::string& name,
                  Stability stability = Stability::kDeterministic,
                  GaugeMerge merge = GaugeMerge::kSum);
  Histogram& GetHistogram(const std::string& name,
                          std::span<const std::int64_t> upper_edges,
                          Stability stability = Stability::kDeterministic);

  // Opt-in for the profiling layer's wall-clock mode (obs/profile.h). Set
  // before components attach; per-registry so concurrent partitions never
  // share the flag.
  void SetWallClockProfiling(bool on) { wall_clock_profiling_ = on; }
  bool wall_clock_profiling() const { return wall_clock_profiling_; }

  // Folds `other` into this registry by instrument name, creating missing
  // instruments. Counters add; histograms add bucket-wise (edges must
  // match); gauges follow their registered GaugeMerge policy — kSum gauges
  // add, kMax gauges keep the maximum across partitions (DESIGN.md §9).
  void Merge(const Registry& other);

  // Stable text snapshot, one line per instrument in name order:
  //   counter <name> <value>
  //   gauge <name> <value>
  //   hist <name> count=<n> sum=<s> le<edge>=<n>... inf=<n>
  // Only names starting with `prefix` are emitted (empty = all). kWallClock
  // instruments are skipped unless `include_wall_clock`.
  std::string SnapshotText(bool include_wall_clock = false,
                           const std::string& prefix = std::string()) const;

  std::size_t size() const { return instruments_.size(); }

 private:
  struct Instrument {
    enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram } kind;
    Stability stability = Stability::kDeterministic;
    GaugeMerge gauge_merge = GaugeMerge::kSum;
    Counter counter;
    Gauge gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Instrument& Register(const std::string& name, Instrument::Kind kind,
                       Stability stability);

  // Ordered map: snapshot iteration order == name order, by construction.
  std::map<std::string, std::unique_ptr<Instrument>> instruments_;
  bool wall_clock_profiling_ = false;
};

}  // namespace iri::obs
