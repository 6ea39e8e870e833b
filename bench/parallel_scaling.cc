// Parallel multi-exchange scaling: updates/sec for the five-collector
// cross-exchange campaign, serial vs. N worker threads, emitted as
// BENCH_parallel.json so CI can track the perf trajectory run over run.
//
// Alongside the thread sweep the bench reports drain_wall_ns_sum:
// profile.monitor.drain.wall_ns, the wall time each monitor spends
// classifying and analysing its UPDATEs' events, summed over the five
// exchanges — with exchanges running concurrently it can exceed the run's
// wall time, so it is a load figure, not a wait. That instrument is
// kWallClock, so the runs here enable profile_wall_clock; it never appears
// in a digest.
//
// The runner's determinism guarantee is asserted inline: every thread count
// must produce the identical merged digest, or the speedup numbers are
// measuring two different computations and the bench aborts.
//
// Timing uses wall-clock deliberately (this is a benchmark driver, not
// simulation code; bench/ is outside the determinism lint's scope).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "obs/metrics.h"
#include "sim/parallel.h"
#include "workload/multi_exchange_runner.h"

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double>(elapsed).count();
}

// Value of `counter <name> <n>` in a SnapshotText dump; 0 when absent.
std::uint64_t SnapshotValue(const std::string& snapshot,
                            const std::string& name) {
  const std::string key = "counter " + name + " ";
  const auto pos = snapshot.find(key);
  if (pos == std::string::npos) return 0;
  return std::strtoull(snapshot.c_str() + pos + key.size(), nullptr, 10);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace iri;
  auto flags = bench::Flags::Parse(argc, argv, /*days=*/0.5,
                                   /*scale_denominator=*/64,
                                   /*providers=*/12);
  std::string out_path = "BENCH_parallel.json";
  int max_threads = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      max_threads = std::atoi(argv[i] + 10);
    }
  }
  bench::PrintHeader("Parallel multi-exchange scaling (5 collectors)", flags);

  workload::MultiExchangeConfig base;
  base.scenario = flags.ToScenarioConfig();
  base.scenario.num_exchanges = 5;
  // The drain-wall instrument is kWallClock; profiling is on for every run
  // in the sweep, so the speedup ratio compares like-for-like instrumented
  // runs.
  base.scenario.profile_wall_clock = true;

  std::vector<int> thread_counts{1};
  for (int t = 2; t <= max_threads; t *= 2) thread_counts.push_back(t);

  struct Run {
    int threads;
    double seconds;
    std::uint64_t updates;
    std::uint64_t sim_events;
    std::uint64_t drain_calls;
    std::uint64_t drain_wall_ns;
  };
  std::vector<Run> runs;
  std::string reference_digest;

  for (int threads : thread_counts) {
    workload::MultiExchangeConfig cfg = base;
    cfg.threads = threads;
    const auto start = std::chrono::steady_clock::now();
    workload::MultiExchangeRunner runner(std::move(cfg));
    const workload::MultiExchangeResult result = runner.Run();
    const double seconds = SecondsSince(start);

    const std::string digest = result.Digest("parallel_scaling");
    if (reference_digest.empty()) {
      reference_digest = digest;
    } else if (digest != reference_digest) {
      std::fprintf(stderr,
                   "FATAL: %d-thread run produced a different digest than "
                   "the serial run — determinism broken, timings invalid\n",
                   threads);
      return 1;
    }

    const std::string wall =
        result.metrics.SnapshotText(/*include_wall_clock=*/true);

    std::uint64_t sim_events = 0;
    for (const auto& ex : result.exchanges) sim_events += ex.tasks_executed;
    runs.push_back({threads, seconds, result.total_events, sim_events,
                    SnapshotValue(wall, "profile.monitor.drain.calls"),
                    SnapshotValue(wall, "profile.monitor.drain.wall_ns")});
    std::printf("%d thread(s): %8.2fs  %10.0f updates/sec  (%llu updates, "
                "drain wall %.3fs summed over %llu drains)\n",
                threads, seconds,
                static_cast<double>(result.total_events) / seconds,
                static_cast<unsigned long long>(result.total_events),
                static_cast<double>(runs.back().drain_wall_ns) / 1e9,
                static_cast<unsigned long long>(runs.back().drain_calls));
  }

  const double serial_rate =
      static_cast<double>(runs.front().updates) / runs.front().seconds;
  const double best_rate =
      static_cast<double>(runs.back().updates) / runs.back().seconds;
  std::printf("speedup at %d threads: %.2fx (default parallelism: %d)\n",
              runs.back().threads, best_rate / serial_rate,
              sim::DefaultParallelism());

  bench::JsonWriter json;
  json.BeginObject()
      .Field("bench", "parallel_scaling")
      .Field("exchanges", 5)
      .Field("scale_denominator", flags.scale_denominator, 0)
      .Field("days", flags.days, 3)
      .Field("providers", flags.providers)
      .Field("seed", flags.seed)
      .Field("default_parallelism", sim::DefaultParallelism());
  json.BeginArray("runs");
  for (const Run& r : runs) {
    json.BeginObject(nullptr, /*compact=*/true)
        .Field("threads", r.threads)
        .Field("seconds", r.seconds, 4)
        .Field("updates", r.updates)
        .Field("updates_per_sec", static_cast<double>(r.updates) / r.seconds,
               1)
        .Field("sim_events", r.sim_events)
        .Field("drain_calls", r.drain_calls)
        .Field("drain_wall_ns_sum", r.drain_wall_ns)
        .EndObject();
  }
  json.EndArray();
  json.Field("speedup_vs_serial", best_rate / serial_rate, 3).EndObject();
  if (!json.WriteFile(out_path)) return 1;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
