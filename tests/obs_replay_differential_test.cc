// Replay-differential test: the observability layer must be a pure function
// of the update stream. A live scenario run writes an MRT log while its
// monitor classifies and counts; replaying that log offline through a fresh
// ExchangeMonitor::Ingest must land every classifier bin and every
// "monitor."-prefixed instrument on identical values — the software analogue
// of the paper's claim that its offline analysis tools see exactly what the
// route-server taps saw.
#include <gtest/gtest.h>

#include <string>

#include "core/monitor.h"
#include "mrt/log.h"
#include "obs/metrics.h"
#include "workload/scenario.h"

namespace iri::workload {
namespace {

ScenarioConfig SmallConfig() {
  ScenarioConfig cfg;
  cfg.topology.scale = 1.0 / 256;
  cfg.topology.num_providers = 6;
  cfg.topology.seed = 2024;
  cfg.seed = 11;
  cfg.num_exchanges = 1;
  cfg.duration = Duration::Hours(3);
  return cfg;
}

TEST(ReplayDifferential, OfflineReplayReproducesLiveMonitorState) {
  ExchangeScenario scenario(SmallConfig());
  mrt::Writer writer;  // in-memory
  scenario.monitor().SetMrtWriter(&writer);
  scenario.Run();

  const auto& live_monitor = scenario.monitor();
  ASSERT_GT(live_monitor.messages_seen(), 0u) << "scenario produced no taps";
  // The same run also exercises the structured trace layer: session
  // establishment alone must have emitted fsm events.
  EXPECT_GT(scenario.trace().events(), 0u);
  EXPECT_NE(scenario.trace().buffer().find("\"ev\":\"fsm\""), std::string::npos);
  const std::string live_snapshot =
      scenario.metrics().SnapshotText(false, "monitor.");
  ASSERT_NE(live_snapshot.find("counter monitor.messages "), std::string::npos);

  // Offline: a fresh monitor + registry fed only by the MRT log.
  core::ExchangeMonitor replay_monitor;
  obs::Registry replay_metrics;
  replay_monitor.AttachMetrics(&replay_metrics);
  mrt::Reader reader(writer.buffer());
  const std::uint64_t replayed = replay_monitor.Replay(reader);

  EXPECT_EQ(reader.crc_failures(), 0u);
  EXPECT_EQ(replayed, live_monitor.messages_seen());
  EXPECT_EQ(replay_monitor.messages_seen(), live_monitor.messages_seen());
  EXPECT_EQ(replay_monitor.events_seen(), live_monitor.events_seen());

  // Classifier bins, bin by bin.
  const auto live_totals = live_monitor.classifier().totals();
  const auto replay_totals = replay_monitor.classifier().totals();
  for (std::size_t c = 0; c < core::kNumCategories; ++c) {
    EXPECT_EQ(replay_totals[c], live_totals[c])
        << "bin " << core::ToString(static_cast<core::Category>(c))
        << " diverged between live run and replay";
  }

  // Metrics snapshots: everything under "monitor." must match byte for
  // byte. ("mrt.records" sits outside the prefix precisely because the
  // offline path has no MRT writer.)
  EXPECT_EQ(replay_metrics.SnapshotText(false, "monitor."), live_snapshot);
}

TEST(ReplayDifferential, ReplayOfReplayIsAFixedPoint) {
  // Re-logging a replay and replaying it again must not drift: Ingest is
  // deterministic in its input stream.
  ExchangeScenario scenario(SmallConfig());
  mrt::Writer writer;
  scenario.monitor().SetMrtWriter(&writer);
  scenario.Run();

  core::ExchangeMonitor first;
  obs::Registry first_metrics;
  first.AttachMetrics(&first_metrics);
  mrt::Writer relog;
  first.SetMrtWriter(&relog);
  mrt::Reader reader(writer.buffer());
  first.Replay(reader);

  core::ExchangeMonitor second;
  obs::Registry second_metrics;
  second.AttachMetrics(&second_metrics);
  mrt::Reader reader2(relog.buffer());
  second.Replay(reader2);

  EXPECT_EQ(second.messages_seen(), first.messages_seen());
  EXPECT_EQ(second_metrics.SnapshotText(false, "monitor."),
            first_metrics.SnapshotText(false, "monitor."));
}

}  // namespace
}  // namespace iri::workload
