// Micro-benchmarks (google-benchmark): the hot paths of the pipeline —
// wire codec, radix trie, decision process, classifier, dampener, and the
// end-to-end simulator event rate.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_common.h"

#include "bgp/decision.h"
#include "bgp/message.h"
#include "core/classifier.h"
#include "netbase/radix_trie.h"
#include "netbase/rng.h"
#include "workload/scenario.h"

namespace {

using namespace iri;

bgp::UpdateMessage MakeUpdate(int nlri, int withdrawn) {
  bgp::UpdateMessage u;
  u.attributes.as_path = bgp::AsPath::Sequence({701, 1239, 3561});
  u.attributes.next_hop = IPv4Address(198, 32, 1, 10);
  for (int i = 0; i < nlri; ++i) {
    u.nlri.push_back(
        Prefix(IPv4Address((204u << 24) | (static_cast<std::uint32_t>(i) << 8)), 24));
  }
  for (int i = 0; i < withdrawn; ++i) {
    u.withdrawn.push_back(
        Prefix(IPv4Address((192u << 24) | (static_cast<std::uint32_t>(i) << 8)), 24));
  }
  return u;
}

void BM_EncodeUpdate(benchmark::State& state) {
  const auto u = MakeUpdate(static_cast<int>(state.range(0)), 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bgp::Encode(u));
  }
  state.SetItemsProcessed(state.iterations() *
                          (state.range(0) + 10));
}
BENCHMARK(BM_EncodeUpdate)->Arg(1)->Arg(50)->Arg(400);

void BM_DecodeUpdate(benchmark::State& state) {
  const auto wire = bgp::Encode(MakeUpdate(static_cast<int>(state.range(0)), 10));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bgp::Decode(wire));
  }
  state.SetItemsProcessed(state.iterations() * (state.range(0) + 10));
}
BENCHMARK(BM_DecodeUpdate)->Arg(1)->Arg(50)->Arg(400);

void BM_TrieInsertLookup(benchmark::State& state) {
  Rng rng(1);
  std::vector<Prefix> prefixes;
  for (int i = 0; i < state.range(0); ++i) {
    prefixes.push_back(Prefix(
        IPv4Address(static_cast<std::uint32_t>(rng.Next())),
        static_cast<std::uint8_t>(rng.Range(16, 24))));
  }
  for (auto _ : state) {
    RadixTrie<int> trie;
    for (const auto& p : prefixes) trie.Insert(p, 1);
    int hits = 0;
    for (const auto& p : prefixes) hits += trie.Find(p) != nullptr;
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_TrieInsertLookup)->Arg(1000)->Arg(42000);

void BM_TrieLongestMatch(benchmark::State& state) {
  Rng rng(2);
  RadixTrie<int> trie;
  for (int i = 0; i < 42000; ++i) {
    trie.Insert(Prefix(IPv4Address(static_cast<std::uint32_t>(rng.Next())),
                       static_cast<std::uint8_t>(rng.Range(8, 24))),
                i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trie.LongestMatch(IPv4Address(static_cast<std::uint32_t>(rng.Next()))));
  }
}
BENCHMARK(BM_TrieLongestMatch);

void BM_DecisionProcess(benchmark::State& state) {
  Rng rng(3);
  std::vector<bgp::Candidate> candidates;
  for (int i = 0; i < state.range(0); ++i) {
    bgp::Candidate c;
    c.peer = static_cast<bgp::PeerId>(i);
    c.peer_router_id = IPv4Address(static_cast<std::uint32_t>(rng.Next()));
    bgp::PathAttributes attrs;
    attrs.as_path = bgp::AsPath::Sequence(
        {static_cast<bgp::Asn>(rng.Range(1, 1000)),
         static_cast<bgp::Asn>(rng.Range(1, 1000))});
    attrs.med = static_cast<std::uint32_t>(rng.Below(100));
    c.decision = bgp::DecisionFields::Of(attrs);
    candidates.push_back(c);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(bgp::SelectBest(candidates));
  }
}
BENCHMARK(BM_DecisionProcess)->Arg(2)->Arg(8)->Arg(32);

void BM_ClassifierThroughput(benchmark::State& state) {
  Rng rng(4);
  bgp::AttrTable table;
  std::vector<core::UpdateEvent> events;
  for (int i = 0; i < 10000; ++i) {
    core::UpdateEvent ev;
    ev.time = TimePoint::Origin() + Duration::Seconds(i);
    ev.peer = static_cast<bgp::PeerId>(rng.Below(20));
    ev.prefix = Prefix(
        IPv4Address((204u << 24) | static_cast<std::uint32_t>(rng.Below(4000) << 8)),
        24);
    ev.is_withdraw = rng.Bernoulli(0.5);
    if (!ev.is_withdraw) {
      bgp::PathAttributes attrs;
      attrs.as_path = bgp::AsPath::Sequence(
          {static_cast<bgp::Asn>(100 + ev.peer)});
      attrs.next_hop = IPv4Address(198, 32, 1, 1);
      ev.attr_id = table.Intern(attrs);
      ev.fwd_id = table.Forwarding(ev.attr_id);
    }
    events.push_back(ev);
  }
  core::Classifier classifier;
  for (auto _ : state) {
    for (const auto& ev : events) {
      benchmark::DoNotOptimize(classifier.Classify(ev));
    }
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_ClassifierThroughput);

void BM_ScenarioSimulatedHour(benchmark::State& state) {
  for (auto _ : state) {
    workload::ScenarioConfig cfg;
    cfg.topology.scale = 1.0 / 128;
    cfg.topology.num_providers = 8;
    cfg.duration = Duration::Hours(1);
    // The headline number keeps streaming telemetry off, so it times the
    // simulator and classifier alone.
    cfg.series_flush_interval = Duration();
    workload::ExchangeScenario scenario(cfg);
    scenario.Run();
    benchmark::DoNotOptimize(scenario.monitor().events_seen());
  }
}
BENCHMARK(BM_ScenarioSimulatedHour)->Unit(benchmark::kMillisecond);

// Same scenario with the series flush + health detectors enabled: the
// difference against BM_ScenarioSimulatedHour is the all-in telemetry cost.
void BM_ScenarioSimulatedHourTelemetry(benchmark::State& state) {
  for (auto _ : state) {
    workload::ScenarioConfig cfg;
    cfg.topology.scale = 1.0 / 128;
    cfg.topology.num_providers = 8;
    cfg.duration = Duration::Hours(1);
    workload::ExchangeScenario scenario(cfg);
    scenario.Run();
    benchmark::DoNotOptimize(scenario.series().records());
  }
}
BENCHMARK(BM_ScenarioSimulatedHourTelemetry)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): unless the caller passes its own
// --benchmark_out, results also land in BENCH_micro_perf.json next to the
// binary, the file tools/bench/compare.py diffs against the committed
// baseline (bench/baseline/BENCH_micro_perf.json).
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  char out_flag[] = "--benchmark_out=BENCH_micro_perf.json";
  char fmt_flag[] = "--benchmark_out_format=json";
  if (!iri::bench::HasArgPrefix(argc, argv, "--benchmark_out=")) {
    args.push_back(out_flag);
    args.push_back(fmt_flag);
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
