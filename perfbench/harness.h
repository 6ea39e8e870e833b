// Measurement plumbing shared by the perfbench stages: a monotonic clock,
// process RSS readings, an in-memory span log and a flat JSON writer for the
// one-line report each stage prints.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Seconds on std::chrono::steady_clock since an arbitrary epoch.
double NowS();

// Current and peak resident set size of this process, in MiB
// (/proc/self/statm and /proc/self/status VmHWM).
double CurrentRssMb();
double PeakRssMb();

// One timed interval. `parent` indexes the enclosing span in the log (-1 for
// a root); `exchange` is the partition or replay segment (-1 for none).
struct Span {
  std::string name;
  int exchange = -1;
  int parent = -1;
  double start = 0;
  double end = 0;
};

// Spans are kept in memory while the stage runs and written out once at the
// end, so recording costs one vector append.
class SpanLog {
 public:
  int Add(std::string name, int exchange, double start, double end,
          int parent = -1);
  // Closes a span opened with a provisional end.
  void SetEnd(int id, double end) {
    spans_[static_cast<std::size_t>(id)].end = end;
  }

  // Length of the union of the direct children of `parent`, as a share of
  // the parent's own duration: how much of it the child spans account for.
  double ChildCoverage(int parent) const;

  // One JSON object per line, times relative to the first span's start.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// Builds a flat JSON object: {"key": value, ...}. Doubles keep every digit.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, std::uint64_t value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string Text() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

// Named numbers a stage reports; emitted as one nested JSON object.
using Metrics = std::vector<std::pair<std::string, double>>;
std::string MetricsJson(const Metrics& metrics);

}  // namespace perfbench
