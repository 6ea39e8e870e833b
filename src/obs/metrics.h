// Deterministic self-measurement: a metrics registry of named counters and
// gauges.
//
// The paper's whole contribution is measurement — tap the route servers,
// count and classify everything, mine the streams for structure (§2–§4).
// This registry is the same discipline turned inward on the simulator
// itself: every hot path (RIB, classifier ingest, wire codec, scheduler)
// and every fault path (crashes, link drops, session resets) feeds named
// instruments, snapshottable to stable-ordered text.
//
// Determinism contract (the property every consumer leans on):
//   * instruments hold plain integers fed only by simulation events, so a
//     partition's registry depends on (seed, config) alone, never on thread
//     placement or wall time;
//   * snapshots iterate a name-ordered std::map — output bytes are stable
//     across libstdc++ versions and across runs;
//   * Merge() folds another registry in by name (counters add, gauges follow
//     their GaugeMerge policy), mirroring core::CategoryCounts::Merge —
//     the partitioned multi-exchange runner merges per-exchange registries
//     in fixed exchange order, so merged output is bit-identical at any
//     worker-thread count (locked by tests/golden_run_test.cc).
//
// The one sanctioned exception: instruments registered with
// Stability::kWallClock — the opt-in profiling layer's counters
// (obs/profile.h). Snapshots never include them, so no golden digest can
// see whether a run was profiled.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

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

// Whether an instrument participates in snapshots (and hence golden
// digests). kWallClock marks the profiling layer's counters: their wall
// times vary run to run, and none of them may move a digest.
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

  // Opt-in for the profiling layer (obs/profile.h): without it no profile
  // site resolves. Set before components attach; per-registry so concurrent
  // partitions never share the flag.
  void SetWallClockProfiling(bool on) { wall_clock_profiling_ = on; }
  bool wall_clock_profiling() const { return wall_clock_profiling_; }

  // Folds `other` into this registry by instrument name, creating missing
  // instruments. Counters add; gauges follow their registered GaugeMerge
  // policy — kSum gauges add, kMax gauges keep the maximum across
  // partitions (DESIGN.md §9).
  void Merge(const Registry& other);

  // Stable text snapshot of the kDeterministic instruments, one line per
  // instrument in name order:
  //   counter <name> <value>
  //   gauge <name> <value>
  // Only names starting with `prefix` are emitted (empty = all).
  std::string SnapshotText(const std::string& prefix = std::string()) const;

  std::size_t size() const { return instruments_.size(); }

 private:
  struct Instrument {
    enum class Kind : std::uint8_t { kCounter, kGauge } kind;
    Stability stability = Stability::kDeterministic;
    GaugeMerge gauge_merge = GaugeMerge::kSum;
    Counter counter;
    Gauge gauge;
  };

  Instrument& Register(const std::string& name, Instrument::Kind kind,
                       Stability stability);

  // Ordered map: snapshot iteration order == name order, by construction.
  std::map<std::string, std::unique_ptr<Instrument>> instruments_;
  bool wall_clock_profiling_ = false;
};

}  // namespace iri::obs
