#include "harness.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CurrentRssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  const double page = static_cast<double>(sysconf(_SC_PAGESIZE));
  return static_cast<double>(resident) * page / (1024.0 * 1024.0);
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::atof(line + 6);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

int SpanLog::Add(std::string name, int exchange, double start, double end,
                 int parent) {
  spans_.push_back(Span{std::move(name), exchange, parent, start, end});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::ChildCoverage(int parent) const {
  const Span& p = spans_[static_cast<std::size_t>(parent)];
  std::vector<std::pair<double, double>> iv;
  for (const Span& s : spans_) {
    if (s.parent == parent) iv.emplace_back(s.start, s.end);
  }
  std::sort(iv.begin(), iv.end());
  double covered = 0;
  double reach = p.start;
  for (const auto& [a, b] : iv) {
    const double lo = std::max(a, reach);
    const double hi = std::min(b, p.end);
    if (hi > lo) covered += hi - lo;
    reach = std::max(reach, b);
  }
  const double len = p.end - p.start;
  return len > 0 ? covered / len : 0;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double t0 = spans_.empty() ? 0 : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"parent\":%d,\"name\":\"%s\",\"exchange\":%d,"
                 "\"start_s\":%.9f,\"end_s\":%.9f}\n",
                 i, s.parent, s.name.c_str(), s.exchange, s.start - t0,
                 s.end - t0);
  }
  return std::fclose(f) == 0;
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ",";
  body_ += "\"" + key + "\":";
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  Key(key);
  // Python's json module reads NaN; a non-finite value is a failed check
  // downstream, never a silently dropped key.
  body_ += std::isfinite(value) ? buf : "NaN";
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, std::uint64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += "\"" + value + "\"";
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

std::string MetricsJson(const Metrics& metrics) {
  JsonObject obj;
  for (const auto& [name, value] : metrics) obj.Num(name, value);
  return obj.Text();
}

}  // namespace perfbench
