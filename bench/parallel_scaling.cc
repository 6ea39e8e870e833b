// Parallel multi-exchange scaling: updates/sec for the five-collector
// cross-exchange campaign, serial vs. N worker threads, emitted as
// BENCH_parallel.json so CI can track the perf trajectory run over run.
//
// --shards / --shard-threads engage the intra-exchange prefix-space
// sharding of DESIGN.md §13 for every timed run, and the bench reports the
// sharding layer's own diagnostics alongside the thread sweep: per-shard
// event counts and peak pending-queue depth (monitor.shard.<k>.*) plus
// drain_wall_ns_sum: profile.monitor.drain.wall_ns, the wall time spent
// inside the sharded classify fan-out (thread spawn included), summed over
// the five exchanges' drains — with exchanges running concurrently it can
// exceed the run's wall time, so it is a load figure, not a wait. Those
// instruments are kWallClock, so the runs here enable profile_wall_clock;
// they never appear in a digest.
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

// Value of `counter <name> <n>` / `gauge <name> <n>` in a SnapshotText dump;
// 0 when absent (a shard that never saw an event registers nothing).
std::uint64_t SnapshotValue(const std::string& snapshot,
                            const std::string& kind, const std::string& name) {
  const std::string key = kind + " " + name + " ";
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
  int shards = 4;
  int shard_threads = 2;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      max_threads = std::atoi(argv[i] + 10);
    }
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shards = std::atoi(argv[i] + 9);
    }
    if (std::strncmp(argv[i], "--shard-threads=", 16) == 0) {
      shard_threads = std::atoi(argv[i] + 16);
    }
  }
  bench::PrintHeader("Parallel multi-exchange scaling (5 collectors)", flags);

  workload::MultiExchangeConfig base;
  base.scenario = flags.ToScenarioConfig();
  base.scenario.num_exchanges = 5;
  base.scenario.shards = shards;
  base.scenario.shard_threads = shard_threads;
  // Per-shard depth and drain-wall instruments are kWallClock; profiling is
  // on for every run in the sweep, so the speedup ratio compares
  // like-for-like instrumented runs.
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
  // Per-shard load from the serial run (summed across the five exchanges:
  // merged counters add, and the depth gauges are registered kSum, so the
  // merged peak is the sum of per-exchange peaks).
  struct ShardLoad {
    std::uint64_t events;
    std::uint64_t depth_peak;
  };
  std::vector<ShardLoad> shard_loads;

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
    if (shard_loads.empty()) {
      for (int s = 0; s < shards; ++s) {
        const std::string tag = "monitor.shard." + std::to_string(s);
        shard_loads.push_back(
            {SnapshotValue(wall, "counter", tag + ".events"),
             SnapshotValue(wall, "gauge", tag + ".depth_peak")});
      }
    }

    std::uint64_t sim_events = 0;
    for (const auto& ex : result.exchanges) sim_events += ex.tasks_executed;
    runs.push_back({threads, seconds, result.total_events, sim_events,
                    SnapshotValue(wall, "counter",
                                  "profile.monitor.drain.calls"),
                    SnapshotValue(wall, "counter",
                                  "profile.monitor.drain.wall_ns")});
    std::printf("%d thread(s): %8.2fs  %10.0f updates/sec  (%llu updates, "
                "drain wall %.3fs summed over %llu drains)\n",
                threads, seconds,
                static_cast<double>(result.total_events) / seconds,
                static_cast<unsigned long long>(result.total_events),
                static_cast<double>(runs.back().drain_wall_ns) / 1e9,
                static_cast<unsigned long long>(runs.back().drain_calls));
  }

  std::printf("per-shard load (serial run, %d shards, summed over "
              "exchanges):\n",
              shards);
  for (int s = 0; s < shards; ++s) {
    std::printf("  shard %d: %10llu events, peak pending depth %llu\n", s,
                static_cast<unsigned long long>(shard_loads[s].events),
                static_cast<unsigned long long>(shard_loads[s].depth_peak));
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
      .Field("shards", shards)
      .Field("shard_threads", shard_threads)
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
  json.BeginArray("shard_load");
  for (int s = 0; s < shards; ++s) {
    json.BeginObject(nullptr, /*compact=*/true)
        .Field("shard", s)
        .Field("events", shard_loads[s].events)
        .Field("depth_peak", shard_loads[s].depth_peak)
        .EndObject();
  }
  json.EndArray();
  json.Field("speedup_vs_serial", best_rate / serial_rate, 3).EndObject();
  if (!json.WriteFile(out_path)) return 1;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
