// Structured trace layer: sim-time-stamped JSONL events for the simulator's
// fault and control paths (session FSM transitions, link fail/restore,
// router crash/recover, re-dump start/end, scheduler backlog).
//
// Where the metrics registry (obs/metrics.h) answers "how many", the trace
// answers "what happened, when, in what order" — the same event streams the
// paper mines from its route-server taps (§2), emitted by the simulator
// about itself. One JSON object per line:
//
//   {"t_ns":<sim nanos>,"ev":"<type>","<key>":<value>,...}
//
// Timestamps are simulated time only, so a trace is a pure function of
// (seed, config): diffing two runs' traces is a meaningful regression test,
// not noise. Traces buffer in memory per partition (one Tracer per
// ExchangeScenario, private to its worker); the multi-exchange runner moves
// each partition's buffer into its ExchangeRun when asked to capture it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "netbase/time.h"

namespace iri::obs {

class TraceEvent;

// An in-memory JSONL buffer. Single-partition state, same ownership
// discipline as obs::Registry: never shared across workers.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  Tracer(Tracer&&) = default;
  Tracer& operator=(Tracer&&) = default;

  // The buffered JSONL text (complete lines, each "\n"-terminated).
  const std::string& buffer() const { return buffer_; }
  std::uint64_t events() const { return events_; }

  // Moves the buffered text out, leaving the buffer empty (the event count
  // is kept).
  std::string TakeBuffer() { return std::exchange(buffer_, {}); }

 private:
  friend class TraceEvent;
  std::string buffer_;
  std::uint64_t events_ = 0;
};

// RAII builder for one trace line. Construct with the tracer, sim time and
// event type, chain field setters, and the line is sealed ("}\n") when the
// temporary dies at the end of the full expression. A null tracer makes
// every operation a no-op, so call sites do not need their own guards.
class TraceEvent {
 public:
  TraceEvent(Tracer* tracer, TimePoint now, std::string_view type);
  ~TraceEvent();
  TraceEvent(const TraceEvent&) = delete;
  TraceEvent& operator=(const TraceEvent&) = delete;

  TraceEvent& Str(std::string_view key, std::string_view value);
  TraceEvent& U64(std::string_view key, std::uint64_t value);
  TraceEvent& I64(std::string_view key, std::int64_t value);

 private:
  Tracer* tracer_;
};

}  // namespace iri::obs

// IRI_TRACE(tracer, now, type)                      — bare event
// IRI_TRACE(tracer, now, type, .Str("k", v).U64(...)) — event with fields
//
// `tracer` is an obs::Tracer*; a null tracer disables the site at runtime.
#define IRI_TRACE(tracer, now, type, ...) \
  ::iri::obs::TraceEvent((tracer), (now), (type)) __VA_ARGS__
