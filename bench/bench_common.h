// Shared plumbing for the reproduction benches: flag parsing, scenario
// header printing, full-scale extrapolation and checked file output.
//
// Every bench accepts:
//   --scale=N      universe is 1/N of the paper's 42k prefixes
//   --days=D       simulated days
//   --providers=P  exchange peers
//   --seed=S
// (a bench that does not read --scale, --days or --providers refuses it)
// and prints the paper-comparable rows for its table/figure. Absolute
// magnitudes are reported both raw and extrapolated to paper scale
// (multiplied by N); shapes are scale-invariant. A --scale, --days,
// --providers or --seed value out of range, or a flag the program does not
// know or does not read, ends the run with exit code 2. tools/iri_simulate
// parses its flags here too, so `iri_simulate --seed=S` and a bench at
// --seed=S share a universe.
#pragma once

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <optional>
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
  // Which of --scale, --days and --providers the program reads.
  bool reads_scale = true;
  bool reads_days = true;
  bool reads_providers = true;

  // A std::nullopt default marks a flag the program does not read: Parse
  // refuses it like an unknown one (a value that would change nothing must
  // not look accepted) and PrintHeader leaves it out. `extra` names the
  // caller's own flags, which Parse accepts and leaves to the caller: a
  // name ending in '=' takes a value ("--threads="), any other must match
  // exactly ("--attribution"). Any other argument ends the run with exit
  // code 2, naming it.
  static Flags Parse(int argc, char** argv,
                     std::optional<double> default_days,
                     std::optional<double> default_scale_denominator = 64,
                     std::optional<int> default_providers = 16,
                     std::initializer_list<std::string_view> extra = {}) {
    Flags flags;
    flags.reads_days = default_days.has_value();
    flags.reads_scale = default_scale_denominator.has_value();
    flags.reads_providers = default_providers.has_value();
    flags.days = default_days.value_or(0);
    flags.scale_denominator = default_scale_denominator.value_or(1);
    flags.providers = default_providers.value_or(0);
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
      // An unread --scale, --days or --providers falls through to the
      // unknown-flag check below.
      if (const char* scale = value("--scale"); scale && flags.reads_scale) {
        flags.scale_denominator = PositiveNumber("--scale", scale);
      } else if (const char* days = value("--days");
                 days && flags.reads_days) {
        flags.days = PositiveNumber("--days", days);
      } else if (const char* count = value("--providers");
                 count && flags.reads_providers) {
        flags.providers = ProviderCount(count);
      } else if (const char* text = value("--seed")) {
        flags.seed = SeedValue(text);
      } else if (arg == "--help") {
        std::printf("flags:%s%s%s --seed=S",
                    flags.reads_scale ? " --scale=N" : "",
                    flags.reads_days ? " --days=D" : "",
                    flags.reads_providers ? " --providers=P" : "");
        for (const std::string_view name : extra) {
          std::printf(" %.*s", static_cast<int>(name.size()), name.data());
        }
        std::printf("\n");
        std::exit(0);
      } else if (std::none_of(extra.begin(), extra.end(),
                              [&arg](std::string_view name) {
                                return name.back() == '='
                                           ? arg.starts_with(name)
                                           : arg == name;
                              })) {
        std::fprintf(stderr, "%s: unknown flag\n", arg.c_str());
        std::exit(2);
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

// The title and the flags the program reads, e.g. "scale 1/64 of paper
// universe | 7 day(s) | 16 providers | seed 1996".
inline void PrintHeader(const char* title, const Flags& flags) {
  std::printf("==================================================\n");
  std::printf("%s\n", title);
  if (flags.reads_scale) {
    std::printf("scale 1/%.0f of paper universe | ", flags.scale_denominator);
  }
  if (flags.reads_days) std::printf("%g day(s) | ", flags.days);
  if (flags.reads_providers) std::printf("%d providers | ", flags.providers);
  std::printf("seed %llu\n", static_cast<unsigned long long>(flags.seed));
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
