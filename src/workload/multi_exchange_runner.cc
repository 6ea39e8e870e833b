#include "workload/multi_exchange_runner.h"

#include <algorithm>
#include <cstdio>

#include "core/classifier.h"
#include "core/invariants.h"
#include "core/monitor.h"
#include "mrt/log.h"
#include "netbase/crc32.h"
#include "sim/parallel.h"
#include "topology/universe.h"

namespace iri::workload {

std::uint32_t MultiExchangeResult::MrtCrc32() const {
  std::uint32_t crc = 0;
  for (const ExchangeRun& run : exchanges) crc = Crc32Update(crc, run.mrt);
  return crc;
}

std::uint64_t MultiExchangeResult::MrtBytes() const {
  std::uint64_t bytes = 0;
  for (const ExchangeRun& run : exchanges) bytes += run.mrt.size();
  return bytes;
}

std::string MultiExchangeResult::Digest(
    const std::string& scenario_name) const {
  std::string out;
  char line[96];
  auto add = [&out, &line](const char* key, unsigned long long value) {
    std::snprintf(line, sizeof(line), "%s=%llu\n", key, value);
    out += line;
  };
  out += "# iri golden-run digest v1\n";
  out += "scenario=" + scenario_name + "\n";
  add("exchanges", exchanges.size());
  std::snprintf(line, sizeof(line), "mrt_crc32=0x%08X\n", MrtCrc32());
  out += line;
  add("mrt_bytes", MrtBytes());
  add("messages", total_messages);
  add("events", total_events);
  for (std::size_t c = 0; c < core::kNumCategories; ++c) {
    std::snprintf(line, sizeof(line), "bin.%s=%llu\n",
                  core::ToString(static_cast<core::Category>(c)),
                  static_cast<unsigned long long>(
                      combined_classifier_totals[c]));
    out += line;
  }
  add("announcements", combined.announcements);
  add("withdrawals", combined.withdrawals);
  // Metrics snapshot (profiling's kWallClock instruments never appear in
  // it): any drift in the merged registry fails the golden comparison just
  // like a classifier bin would.
  out += "metrics.begin\n";
  out += metrics.SnapshotText();
  out += "metrics.end\n";
  // Series telemetry summary: the full JSONL is too large to commit, so the
  // digest pins the record count, byte count and CRC of the per-exchange
  // texts concatenated in exchange order — one flipped byte in any flush
  // record (ordering, formatting, values) fails the comparison. The CRC is
  // combined from each exchange's running CRC; the text is never joined.
  // A run with telemetry disabled (series_flush_interval zero) omits the
  // section entirely, so its digest is byte-identical to a build that never
  // had the subsystem.
  std::uint32_t series_crc = 0;
  std::uint64_t series_bytes = 0;
  for (const ExchangeRun& run : exchanges) {
    series_crc = Crc32Combine(series_crc, run.series_crc32, run.series_bytes);
    series_bytes += run.series_bytes;
  }
  if (total_series_records != 0 || series_bytes != 0) {
    out += "timeseries.begin\n";
    add("records", total_series_records);
    add("bytes", series_bytes);
    std::snprintf(line, sizeof(line), "crc32=0x%08X\n", series_crc);
    out += line;
    out += "timeseries.end\n";
  }
  // Causal attribution rollup, merged in exchange order (the fixed-order
  // contract: ShardProvenance::Merge is an iri_det aggregation sink). The
  // matrix lines iterate (category, kind) in enum order and skip zero cells,
  // so the text is a pure function of the counts.
  {
    obs::ShardProvenance rollup;
    std::size_t causes = 0;
    for (const ExchangeRun& run : exchanges) {
      rollup.Merge(run.attribution.observed);
      causes += run.attribution.causes.size();
    }
    out += "provenance.begin\n";
    add("causes", causes);
    add("attributed", rollup.attributed());
    add("unattributed", rollup.unattributed());
    for (std::size_t c = 0; c < core::kNumCategories; ++c) {
      for (std::size_t kind = 0; kind < obs::kNumCauseKinds; ++kind) {
        const std::uint64_t cell = rollup.MatrixAt(c, kind);
        if (cell == 0) continue;
        std::snprintf(line, sizeof(line), "attr.%s.%s=%llu\n",
                      core::ToString(static_cast<core::Category>(c)),
                      obs::ToString(static_cast<obs::CauseKind>(kind)),
                      static_cast<unsigned long long>(cell));
        out += line;
      }
    }
    out += "provenance.end\n";
  }
  return out;
}

MultiExchangeResult MultiExchangeRunner::Run() {
  const int k = std::max(1, config_.scenario.num_exchanges);

  // One universe for every partition: the five collectors watched the same
  // Internet. Generated once, copied into each partition.
  const topology::Universe universe = topology::GenerateUniverse(
      config_.scenario.topology, config_.scenario.duration);

  std::vector<ExchangeRun> runs(static_cast<std::size_t>(k));
  sim::ParallelFor(k, config_.threads, [&](int e) {
    const ScenarioConfig part = PartitionConfig(config_.scenario, e);
    ExchangeScenario scenario(part, universe);
    ExchangeRun& run = runs[static_cast<std::size_t>(e)];
    run.exchange = e;
    run.sub_seed = part.seed;

    mrt::Writer writer;  // in-memory
    if (config_.capture_mrt) scenario.monitor().SetMrtWriter(&writer);
    scenario.monitor().AddSink(
        [&run](const core::ClassifiedEvent& ev) { run.counts.Add(ev); });
    if (setup_) setup_(e, scenario);

    scenario.Run();

    run.classifier_totals = scenario.monitor().classifier().totals();
    run.messages = scenario.monitor().messages_seen();
    run.events = scenario.monitor().events_seen();
    run.mrt = writer.TakeBuffer();
    // Copy the partition's registry out before the scenario (and the cached
    // instrument pointers inside it) is destroyed. Runs on the worker that
    // owns this exchange, touching only this partition's slot.
    run.metrics.Merge(scenario.metrics());
    if (config_.capture_trace) run.trace = scenario.trace().TakeBuffer();
    run.series_records = scenario.series().records();
    run.series_crc32 = scenario.series().crc32();
    run.series_bytes = scenario.series().bytes();
    run.attribution.observed.Merge(
        scenario.monitor().classifier().provenance());
    run.attribution.causes = scenario.provenance().infos();
  });

  // The merge happens on the calling thread, in exchange order, after every
  // worker has joined — output bytes cannot depend on interleaving.
  MultiExchangeResult result;
  result.exchanges = std::move(runs);
  for (const ExchangeRun& run : result.exchanges) {
    IRI_ASSERT(run.events == run.counts.Total(),
               "per-exchange sink and monitor must agree on event count");
    result.combined.Merge(run.counts);
    for (std::size_t c = 0; c < core::kNumCategories; ++c) {
      result.combined_classifier_totals[c] += run.classifier_totals[c];
    }
    result.metrics.Merge(run.metrics);
    result.total_series_records += run.series_records;
    result.total_messages += run.messages;
    result.total_events += run.events;
  }
  return result;
}

}  // namespace iri::workload
