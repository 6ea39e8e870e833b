// The corpus stage: the paper's five-exchange, 42 k-prefix campaign through
// workload::MultiExchangeRunner, timed from outside.
//
// Set-up is measured on its own first: topology::GenerateUniverse plus the
// construction of every partition, exactly what the runner does before each
// partition's simulated time starts (Run does that work again, inside its
// own wall time). The runner is then timed with the two
// hooks it offers: the PartitionSetup callback (partition built, simulation
// about to start) and ExchangeScenario::ScheduleDaily (every simulated
// midnight). Daily hooks run inside the scenario's existing midnight task and
// draw no RNG, so the digests are exactly those of an unobserved run.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "harness.h"
#include "netbase/crc32.h"
#include "replay.h"
#include "stages.h"
#include "topology/universe.h"
#include "workload/multi_exchange_runner.h"

namespace perfbench {
namespace {

namespace wl = iri::workload;

// Outside timestamps of one partition, written only by the worker that owns
// it (each partition has its own slot).
struct PartitionMarks {
  double ready = 0;             // PartitionSetup: built, about to run
  std::vector<double> day_end;  // ScheduleDaily hook of day d
  std::vector<double> day_rss;  // process RSS at that hook, MiB
  std::vector<std::uint64_t> day_tasks;  // scheduler events run by then
  double done = 0;              // the scenario's teardown began
};

// Stamps `*slot` when destroyed. A ScheduleDaily hook owns the only
// reference, and the scenario's hooks are destroyed before its routers and
// RIBs (they are declared after them), so this marks the moment the runner
// has harvested the partition's outputs and begins tearing it down.
class TeardownMark {
 public:
  explicit TeardownMark(double* slot) : slot_(slot) {}
  ~TeardownMark() { *slot_ = NowS(); }
  TeardownMark(const TeardownMark&) = delete;
  TeardownMark& operator=(const TeardownMark&) = delete;

 private:
  double* slot_;
};

constexpr std::uint64_t kUniverseSeed = 1996;
static_assert(kSteadyDay >= 1 && kSteadyDay < kDays);

wl::MultiExchangeConfig CorpusConfig(const Options& o) {
  wl::MultiExchangeConfig cfg;
  // One universe for every seed — the 42 k-prefix table bench/full_paper
  // builds by default (topology seed 1996) — so the workload's size does not
  // change with the seed. The seed drives the campaign's fault processes,
  // with full_paper's convention (scenario seed = seed + 1): the default seed
  // reproduces full_paper's run.
  cfg.scenario.topology.scale = 1.0 / o.scale_denominator;
  cfg.scenario.topology.num_providers = 16;
  cfg.scenario.topology.seed = kUniverseSeed;
  cfg.scenario.seed = o.seed + 1;
  cfg.scenario.duration = iri::Duration::Days(kDays);
  cfg.scenario.num_exchanges = 5;
  cfg.scenario.profile_wall_clock = o.traced;
  cfg.threads = o.threads;
  return cfg;
}

// Wall-clock profile site totals from the merged registry.
struct Site {
  double s = 0;
  double calls = 0;
  double items = 0;
};

Site ReadSite(iri::obs::Registry& reg, const std::string& name) {
  const auto value = [&reg](const std::string& n) {
    return static_cast<double>(
        reg.GetCounter(n, iri::obs::Stability::kWallClock).value());
  };
  const std::string p = "profile." + name;
  return Site{value(p + ".wall_ns") / 1e9, value(p + ".calls"),
              value(p + ".items")};
}

double NsPer(double seconds, double n) { return n > 0 ? seconds * 1e9 / n : 0; }

constexpr int kSetupRepeats = 9;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Time-weighted number of partitions simulating during [a, b], this one
// included: the process RSS delta over that window is split this many ways.
double Concurrency(const std::vector<PartitionMarks>& marks, std::size_t self,
                   double a, double b) {
  if (b <= a) return 1;
  double c = 1;
  for (std::size_t f = 0; f < marks.size(); ++f) {
    if (f == self || marks[f].day_end.empty()) continue;
    const double lo = std::max(a, marks[f].ready);
    const double hi = std::min(b, marks[f].day_end.back());
    if (hi > lo) c += (hi - lo) / (b - a);
  }
  return c;
}

}  // namespace

int RunCorpus(const Options& o) {
  const wl::MultiExchangeConfig cfg = CorpusConfig(o);
  const int k = cfg.scenario.num_exchanges;
  const std::size_t days = static_cast<std::size_t>(kDays);
  const std::size_t steady = static_cast<std::size_t>(kSteadyDay);
  Gate gate;
  SpanLog spans;

  // --- set-up: the universe and every partition, built and timed alone.
  // It takes tens of milliseconds, so it is repeated and the median kept.
  std::vector<double> generate_runs;
  std::vector<double> build_runs;
  std::vector<double> setup_runs;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double setup_start = NowS();
    const iri::topology::Universe universe = iri::topology::GenerateUniverse(
        cfg.scenario.topology, cfg.scenario.duration);
    const double generated = NowS();
    spans.Add("topology.generate", -1, setup_start, generated);
    double build_s = 0;
    for (int e = 0; e < k; ++e) {
      const double t = NowS();
      const wl::ExchangeScenario scenario(
          wl::PartitionConfig(cfg.scenario, e), universe);
      const double built = NowS();
      build_s += built - t;
      spans.Add("workload.build", e, t, built);
    }
    generate_runs.push_back(generated - setup_start);
    build_runs.push_back(build_s);
    setup_runs.push_back(generated - setup_start + build_s);
  }
  const double generate_s = Median(generate_runs);
  const double build_s = Median(build_runs);

  // --- the campaign, timed through the runner's hooks ---
  std::vector<PartitionMarks> marks(static_cast<std::size_t>(k));
  wl::MultiExchangeRunner runner(cfg);
  runner.SetPartitionSetup([&marks, days](int e, wl::ExchangeScenario& s) {
    PartitionMarks& m = marks[static_cast<std::size_t>(e)];
    m.day_end.assign(days, 0);
    m.day_rss.assign(days, 0);
    m.day_tasks.assign(days, 0);
    auto teardown = std::make_shared<TeardownMark>(&m.done);
    s.ScheduleDaily([&m, &s, teardown](int day) {
      if (day < 0 || static_cast<std::size_t>(day) >= m.day_end.size()) return;
      const auto d = static_cast<std::size_t>(day);
      m.day_end[d] = NowS();
      m.day_rss[d] = CurrentRssMb();
      m.day_tasks[d] = s.scheduler().executed();
    });
    m.ready = NowS();
  });
  const double run_start = NowS();
  wl::MultiExchangeResult result = runner.Run();
  const double run_end = NowS();
  const double peak_rss = PeakRssMb();

  // --- outside accounting ---
  const int run_id = spans.Add("run", -1, run_start, run_end);
  double bootstrap_s = 0;
  double steady_s = 0;
  double steady_tasks = 0;
  double rss_growth = 0;
  double last_done = run_start;
  std::vector<double> partition_s;
  for (std::size_t e = 0; e < marks.size(); ++e) {
    const PartitionMarks& m = marks[e];
    const bool complete =
        m.ready > 0 && m.done >= m.ready &&
        std::all_of(m.day_end.begin(), m.day_end.end(),
                    [](double t) { return t > 0; });
    gate.Check(complete, "exchange " + std::to_string(e) +
                             ": a partition hook did not fire");
    if (!complete) continue;
    bootstrap_s += m.day_end.front() - m.ready;
    steady_s += m.day_end[steady] - m.day_end[steady - 1];
    steady_tasks += static_cast<double>(m.day_tasks[steady] -
                                        m.day_tasks[steady - 1]);
    rss_growth += (m.day_rss.back() - m.day_rss.front()) /
                  Concurrency(marks, e, m.day_end.front(), m.day_end.back());
    partition_s.push_back(m.done - m.ready);
    last_done = std::max(last_done, m.done);

    // Only intervals between two outside marks become spans, so the time
    // between a worker's partitions (the previous one's teardown after its
    // mark, this one's construction, and GenerateUniverse before the first)
    // shows as a gap in the coverage of `run`.
    const int ex = static_cast<int>(e);
    const int pid = spans.Add("partition", ex, m.ready, m.done, run_id);
    double day_start = m.ready;
    for (std::size_t day = 0; day < days; ++day) {
      spans.Add("simday." + std::to_string(day), ex, day_start,
                m.day_end[day], pid);
      day_start = m.day_end[day];
    }
    spans.Add("partition.harvest", ex, day_start, m.done, pid);
  }
  spans.Add("merge", -1, last_done, run_end, run_id);

  char digest[16];
  const std::string digest_text = result.Digest("perfbench");
  std::snprintf(digest, sizeof(digest), "0x%08X",
                iri::Crc32({reinterpret_cast<const std::uint8_t*>(
                                digest_text.data()),
                            digest_text.size()}));

  Metrics m = {
      {"setup_s", Median(setup_runs)},
      {"bootstrap_s", bootstrap_s},
      {"steady_s_per_simday", steady_s},
      {"wall_s_per_simday", (run_end - run_start) / kDays},
      {"peak_rss_mb", peak_rss},
      {"rss_growth_mb_per_simday", rss_growth / (kDays - 1)},
      {"run_wall_s", run_end - run_start},
  };

  // --- per-exchange logs, and the gate: replay them and compare bins ---
  if (o.flip_byte && !result.exchanges.front().mrt.empty()) {
    std::vector<std::uint8_t>& log = result.exchanges.front().mrt;
    log[log.size() / 2] ^= 0x5A;
  }
  std::vector<std::span<const std::uint8_t>> streams;
  std::vector<BinTotals> totals;
  double mrt_bytes = 0;
  double causes = 0;
  for (const wl::ExchangeRun& run : result.exchanges) {
    streams.emplace_back(run.mrt);
    totals.push_back(run.classifier_totals);
    mrt_bytes += static_cast<double>(run.mrt.size());
    causes += static_cast<double>(run.attribution.causes.size());
  }
  if (!o.logs_dir.empty() && !WriteLogs(o.logs_dir, streams)) {
    std::fprintf(stderr, "perfbench: cannot write logs to %s\n",
                 o.logs_dir.c_str());
    return 1;
  }
  std::vector<Segment> segments;
  const double load_start = NowS();
  if (o.logs_dir.empty()) {
    for (std::size_t e = 0; e < streams.size(); ++e) {
      segments.push_back(
          {std::make_unique<iri::mrt::Reader>(streams[e]), totals[e]});
    }
  } else if (!LoadLogs(o.logs_dir, totals, segments)) {
    return 1;
  }
  const double load_s = NowS() - load_start;
  const int replay_id = spans.Add("replay", -1, load_start, load_start);
  const ReplayReport replay = ReplaySegments(
      segments, kDays, o.traced, gate, o.traced ? &spans : nullptr, replay_id);
  spans.SetEnd(replay_id, NowS());
  m.emplace_back("replay_s_per_simday", replay.total_s / kDays);

  if (o.traced) {
    iri::obs::Registry& reg = result.metrics;
    const auto counter = [&reg](const char* name) {
      return static_cast<double>(reg.GetCounter(name).value());
    };
    const Site run_until = ReadSite(reg, "sched.run_until");
    const Site announce = ReadSite(reg, "rib.announce");
    const Site withdraw = ReadSite(reg, "rib.withdraw");
    const Site lookup = ReadSite(reg, "rib.lookup");
    const Site encode = ReadSite(reg, "codec.encode");
    const Site decode = ReadSite(reg, "codec.decode");
    const Site ingest = ReadSite(reg, "monitor.ingest");
    const Site drain = ReadSite(reg, "monitor.drain");
    const double rib_s = announce.s + withdraw.s + lookup.s;
    const double tasks = counter("sched.tasks");
    const double mean_partition =
        partition_s.empty()
            ? 0
            : std::accumulate(partition_s.begin(), partition_s.end(), 0.0) /
                  static_cast<double>(partition_s.size());
    const double max_partition =
        partition_s.empty()
            ? 0
            : *std::max_element(partition_s.begin(), partition_s.end());

    m.emplace_back("topology.generate_s", generate_s);
    m.emplace_back("workload.build_s", build_s);
    for (std::size_t e = 0; e < marks.size(); ++e) {
      m.emplace_back("workload.partition_s.e" + std::to_string(e),
                     marks[e].done - marks[e].ready);
    }
    m.emplace_back("workload.partition_imbalance",
                   mean_partition > 0 ? max_partition / mean_partition : 0);
    m.emplace_back("workload.merge_s", run_end - last_done);
    m.emplace_back("sim.tasks", tasks);
    m.emplace_back("sim.steady_day_tasks", steady_tasks);
    m.emplace_back("sim.ns_per_task", NsPer(run_until.s, tasks));
    m.emplace_back("sched.run_until_s", run_until.s);
    // monitor.drain nests inside monitor.ingest (an unbatched monitor drains
    // at the end of every Ingest), so it is not subtracted again.
    m.emplace_back("sim.unattributed_s", run_until.s - rib_s - encode.s -
                                             decode.s - ingest.s);
    m.emplace_back("rib.announce.calls", announce.calls);
    m.emplace_back("rib.withdraw.calls", withdraw.calls);
    m.emplace_back("rib.lookup.calls", lookup.calls);
    m.emplace_back("rib.announce.ns_per_call",
                   NsPer(announce.s, announce.calls));
    m.emplace_back("rib.withdraw.ns_per_call",
                   NsPer(withdraw.s, withdraw.calls));
    m.emplace_back("rib.lookup.ns_per_call", NsPer(lookup.s, lookup.calls));
    m.emplace_back("rib.share", run_until.s > 0 ? rib_s / run_until.s : 0);
    m.emplace_back("codec.encode.calls", encode.calls);
    m.emplace_back("codec.encode.ns_per_call", NsPer(encode.s, encode.calls));
    m.emplace_back("codec.decode.calls", decode.calls);
    m.emplace_back("codec.decode.ns_per_byte", NsPer(decode.s, decode.items));
    m.emplace_back("monitor.ingest.ns_per_call",
                   NsPer(ingest.s, ingest.calls));
    m.emplace_back("monitor.drain_s", drain.s);
    m.emplace_back("monitor.events", counter("monitor.events"));
    m.emplace_back("mrt.records", counter("mrt.records"));
    m.emplace_back("mrt.bytes_per_simday", mrt_bytes / kDays);
    m.emplace_back("mrt.load_s", load_s);
    m.emplace_back("obs.series_records_per_simday",
                   static_cast<double>(result.total_series_records) / kDays);
    m.emplace_back("obs.causes_per_simday", causes / kDays);
    m.emplace_back("obs.span_coverage", spans.ChildCoverage(run_id));
    AddReplayLayers(replay, m);
    if (!o.spans_out.empty() && !spans.WriteJsonl(o.spans_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   o.spans_out.c_str());
    }
  }
  PrintStageReport("corpus", digest, gate, m);
  return 0;
}

}  // namespace perfbench
