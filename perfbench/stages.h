// The stage the perfbench binary runs, one repetition per process. It
// prints one JSON line: the repetition's metrics, the correctness gate's
// counts and the run's golden-style digest.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

// Simulated days of every corpus run. Scenario day 0 is a Saturday
// (workload/usage.h): day 0 is the bootstrap day, day 1 a Sunday at 45% of
// the weekday fault rate, day 2 a Monday at the full weekday rate. Steady
// state is measured on day 2 alone, the traffic of five of every seven
// corpus days.
constexpr int kDays = 3;
constexpr int kSteadyDay = 2;

struct Options {
  std::uint64_t seed = 1996;
  int threads = 1;             // exchange workers of the corpus run
  int scale_denominator = 1;   // 1 = the paper's 42 k-prefix universe
  bool traced = false;         // wall-clock profile sites + spans
  // When set, the run's MRT logs are written here and the gate replays them
  // from the files (timing mrt::Reader's load); otherwise from memory.
  std::string logs_dir;
  std::string spans_out;       // JSONL span dump (traced runs)
  // Self-test only: corrupt one byte of exchange 0's MRT before the gate
  // replays it, which the gate must report.
  bool flip_byte = false;
};

// The five-exchange campaign through workload::MultiExchangeRunner, then
// the offline §2 workflow over its logs as the correctness gate.
int RunCorpus(const Options& options);

}  // namespace perfbench
