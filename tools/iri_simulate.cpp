// iri_simulate — generate an MRT update log from a simulated exchange.
//
//   iri_simulate --out=exchange.mrt [--days=7] [--scale=64] [--providers=16]
//                [--seed=1996] [--patho] [--upgrade] [--all-stateful]
//                [--all-jittered] [--dampen]
//
// The produced log replays through iri_analyze (or any code built on
// mrt::Reader + core::ExchangeMonitor). The numeric flags and the seed
// convention are the benches' (bench/bench_common.h): --seed=S generates
// universe S and drives it with scenario seed S+1, the universe
// `full_paper --seed=S` builds. --days and --scale take positive numbers,
// --providers an integer in 1..246 and --seed an unsigned 64-bit integer;
// anything else, or a flag not listed above, exits 2.
#include <cstdio>
#include <cstring>

#include "bench_common.h"
#include "core/stats.h"
#include "mrt/log.h"
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
  const bench::Flags flags = bench::Flags::Parse(
      argc, argv, /*default_days=*/7, /*default_scale_denominator=*/64,
      /*default_providers=*/16,
      {"--out=", "--patho", "--upgrade", "--all-stateful", "--all-jittered",
       "--dampen"});
  const char* out = FlagValue(argc, argv, "--out");
  if (out == nullptr) {
    std::fprintf(stderr, "iri_simulate: --out=FILE is required\n");
    return 2;
  }

  workload::ScenarioConfig cfg = flags.ToScenarioConfig();
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
               flags.days, flags.scale_denominator, flags.providers);
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
