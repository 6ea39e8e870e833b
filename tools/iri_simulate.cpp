// iri_simulate — generate an MRT update log from a simulated exchange.
//
//   iri_simulate --out=exchange.mrt [--days=7] [--scale=64] [--providers=14]
//                [--seed=1996] [--patho] [--upgrade] [--all-stateful]
//                [--all-jittered] [--dampen]
//
// The produced log replays through iri_analyze (or any code built on
// mrt::Reader + core::ExchangeMonitor). --days and --scale take positive
// numbers and --providers an integer in 1..246; anything else exits 2.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/stats.h"
#include "mrt/log.h"
#include "topology/universe.h"
#include "workload/scenario.h"

using namespace iri;

namespace {

const char* FlagValue(int argc, char** argv, const char* name) {
  const std::size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  return nullptr;
}

// A --days or --scale value: the whole text must be a finite number above
// zero. Anything else ends the run with exit code 2 and a one-line reason.
double PositiveFlag(int argc, char** argv, const char* name, double fallback) {
  const char* text = FlagValue(argc, argv, name);
  if (text == nullptr) return fallback;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v <= 0) {
    std::fprintf(stderr, "iri_simulate: %s=%s: expected a positive number\n",
                 name, text);
    std::exit(2);
  }
  return v;
}

bool HasFlag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (HasFlag(argc, argv, "--help")) {
    std::printf(
        "usage: iri_simulate --out=FILE [--days=D] [--scale=N] "
        "[--providers=P] [--seed=S] [--patho] [--upgrade] [--all-stateful] "
        "[--all-jittered] [--dampen]\n");
    return 0;
  }
  const char* out = FlagValue(argc, argv, "--out");
  if (out == nullptr) {
    std::fprintf(stderr, "iri_simulate: --out=FILE is required\n");
    return 2;
  }

  workload::ScenarioConfig cfg;
  cfg.duration = Duration::Days(PositiveFlag(argc, argv, "--days", 7.0));
  const double scale_den = PositiveFlag(argc, argv, "--scale", 64.0);
  cfg.topology.scale = 1.0 / scale_den;
  if (const char* v = FlagValue(argc, argv, "--providers")) {
    char* end = nullptr;
    const long n = std::strtol(v, &end, 10);
    if (end == v || *end != '\0' || n < 1 || n > topology::kMaxProviders) {
      std::fprintf(stderr,
                   "iri_simulate: --providers=%s: expected an integer in "
                   "1..%d\n",
                   v, topology::kMaxProviders);
      return 2;
    }
    cfg.topology.num_providers = static_cast<int>(n);
  }
  if (const char* v = FlagValue(argc, argv, "--seed")) {
    cfg.seed = static_cast<std::uint64_t>(std::atoll(v));
    cfg.topology.seed = cfg.seed + 1;
  }
  cfg.patho_enabled = HasFlag(argc, argv, "--patho");
  cfg.upgrade_enabled = HasFlag(argc, argv, "--upgrade");
  cfg.force_all_stateful = HasFlag(argc, argv, "--all-stateful");
  cfg.force_all_jittered = HasFlag(argc, argv, "--all-jittered");
  cfg.providers_dampen = HasFlag(argc, argv, "--dampen");

  workload::ExchangeScenario scenario(cfg);
  mrt::Writer writer(out);
  if (!writer.ok()) {
    std::fprintf(stderr, "iri_simulate: cannot open %s for writing\n", out);
    return 1;
  }
  scenario.monitor().SetMrtWriter(&writer);

  core::CategoryCounts counts;
  scenario.monitor().AddSink(
      [&counts](const core::ClassifiedEvent& ev) { counts.Add(ev); });

  std::fprintf(stderr,
               "simulating %.1f day(s) at 1/%.0f scale, %d providers...\n",
               cfg.duration.ToHours() / 24.0, scale_den,
               cfg.topology.num_providers);
  scenario.Run();
  if (!writer.Close()) {
    std::fprintf(stderr, "iri_simulate: write to %s failed\n", out);
    return 1;
  }

  std::fprintf(stderr,
               "wrote %llu records (%llu prefix events: %llu announcements, "
               "%llu withdrawals) to %s\n",
               static_cast<unsigned long long>(writer.records_written()),
               static_cast<unsigned long long>(counts.Total()),
               static_cast<unsigned long long>(counts.announcements),
               static_cast<unsigned long long>(counts.withdrawals), out);
  return 0;
}
