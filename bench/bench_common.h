// Shared plumbing for the reproduction benches: flag parsing, scenario
// header printing, full-scale extrapolation and checked file output.
//
// Every bench accepts:
//   --scale=N      universe is 1/N of the paper's 42k prefixes
//   --days=D       simulated days
//   --providers=P  exchange peers
//   --seed=S
// and prints the paper-comparable rows for its table/figure. Absolute
// magnitudes are reported both raw and extrapolated to paper scale
// (multiplied by N); shapes are scale-invariant. A --scale, --days,
// --providers or --seed value out of range ends the bench with exit code 2.
#pragma once

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

#include "topology/universe.h"
#include "workload/scenario.h"

namespace iri::bench {

// A --days or --scale value: the whole text must be a finite number above
// zero. Anything else ends the bench with exit code 2 and a one-line reason.
inline double PositiveNumber(const char* flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v <= 0) {
    std::fprintf(stderr, "%s=%s: expected a positive number\n", flag, text);
    std::exit(2);
  }
  return v;
}

// A --providers value: a whole integer in 1..topology::kMaxProviders, else
// exit code 2 with a one-line reason.
inline int ProviderCount(const char* text) {
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || v < 1 || v > topology::kMaxProviders) {
    std::fprintf(stderr, "--providers=%s: expected an integer in 1..%d\n",
                 text, topology::kMaxProviders);
    std::exit(2);
  }
  return static_cast<int>(v);
}

// A --seed value: a whole unsigned 64-bit decimal integer, else exit code 2
// with a one-line reason.
inline std::uint64_t SeedValue(const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(*text)) || *end != '\0' ||
      errno == ERANGE) {
    std::fprintf(stderr, "--seed=%s: expected an unsigned 64-bit integer\n",
                 text);
    std::exit(2);
  }
  return v;
}

// A --threads value: a whole integer >= 0 (0 = sim::DefaultParallelism()),
// else exit code 2 with a one-line reason.
inline int ThreadCount(const char* text) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(*text)) || *end != '\0' ||
      errno == ERANGE || v > INT_MAX) {
    std::fprintf(stderr, "--threads=%s: expected a non-negative integer\n",
                 text);
    std::exit(2);
  }
  return static_cast<int>(v);
}

struct Flags {
  double scale_denominator = 64;
  double days = 7;
  int providers = 16;
  std::uint64_t seed = 1996;

  static Flags Parse(int argc, char** argv, double default_days,
                     double default_scale_denominator = 64,
                     int default_providers = 16) {
    Flags flags;
    flags.days = default_days;
    flags.scale_denominator = default_scale_denominator;
    flags.providers = default_providers;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&arg](const char* name) -> const char* {
        const std::size_t len = std::strlen(name);
        if (arg.compare(0, len, name) == 0 && arg.size() > len &&
            arg[len] == '=') {
          return arg.c_str() + len + 1;
        }
        return nullptr;
      };
      if (const char* v = value("--scale")) {
        flags.scale_denominator = PositiveNumber("--scale", v);
      } else if (const char* v = value("--days")) {
        flags.days = PositiveNumber("--days", v);
      } else if (const char* v = value("--providers")) {
        flags.providers = ProviderCount(v);
      } else if (const char* v = value("--seed")) {
        flags.seed = SeedValue(v);
      } else if (arg == "--help") {
        std::printf(
            "flags: --scale=N --days=D --providers=P --seed=S\n");
        std::exit(0);
      }
    }
    return flags;
  }

  workload::ScenarioConfig ToScenarioConfig() const {
    workload::ScenarioConfig cfg;
    cfg.topology.scale = 1.0 / scale_denominator;
    cfg.topology.num_providers = providers;
    cfg.topology.seed = seed;
    cfg.seed = seed + 1;
    cfg.duration = Duration::Days(days);
    return cfg;
  }
};

inline void PrintHeader(const char* title, const Flags& flags) {
  std::printf("==================================================\n");
  std::printf("%s\n", title);
  std::printf(
      "scale 1/%.0f of paper universe | %.0f day(s) | %d providers | seed "
      "%llu\n",
      flags.scale_denominator, flags.days, flags.providers,
      static_cast<unsigned long long>(flags.seed));
  std::printf("==================================================\n");
}

// Extrapolates a per-universe count to the paper's full 42k-prefix scale.
inline double FullScale(double value, const Flags& flags) {
  return value * flags.scale_denominator;
}

// Writes `text` to `path`, replacing it. Every step is checked: a full disk
// or a failed close reports "write to <path> failed" and returns false.
inline bool WriteTextFile(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok) std::fprintf(stderr, "write to %s failed\n", path.c_str());
  return ok;
}

// One-line digest of the health.* instruments a run's streaming detectors
// produced (obs/health.h). Non-const registry: instruments are reached
// through the get-or-create accessors.
inline void PrintHealthSummary(obs::Registry& metrics) {
  std::printf(
      "health: %llu storm(s), %llu flap burst(s), periodicity "
      "30s=%lldppm 60s=%lldppm (%llu alert(s))\n",
      static_cast<unsigned long long>(
          metrics.GetCounter("health.storm.starts").value()),
      static_cast<unsigned long long>(
          metrics.GetCounter("health.flap.bursts").value()),
      static_cast<long long>(
          metrics.GetGauge("health.periodicity.a_ppm").value()),
      static_cast<long long>(
          metrics.GetGauge("health.periodicity.b_ppm").value()),
      static_cast<unsigned long long>(
          metrics.GetCounter("health.periodicity.alerts").value()));
}

}  // namespace iri::bench
