// The partitioned multi-exchange runner: decorrelated sub-seeds, fixed-order
// merge, and thread-count independence (the golden-run suite pins the same
// property against committed digests; these tests explain *why* it holds).
#include "workload/multi_exchange_runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "mrt/log.h"
#include "netbase/crc32.h"
#include "workload/scenario.h"

namespace iri::workload {
namespace {

MultiExchangeConfig SmallConfig(int exchanges) {
  MultiExchangeConfig cfg;
  cfg.scenario.topology.scale = 1.0 / 256;
  cfg.scenario.topology.num_providers = 6;
  cfg.scenario.topology.seed = 3;
  cfg.scenario.seed = 4;
  cfg.scenario.num_exchanges = exchanges;
  cfg.scenario.duration = Duration::Hours(3);
  return cfg;
}

TEST(ExchangeSubSeed, DeterministicAndDecorrelated) {
  std::set<std::uint64_t> seen;
  for (int e = 0; e < 64; ++e) {
    const std::uint64_t s = ExchangeSubSeed(42, e);
    EXPECT_EQ(s, ExchangeSubSeed(42, e)) << "sub-seed must be a pure function";
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 64u) << "sub-seeds must not collide";
  EXPECT_NE(ExchangeSubSeed(42, 0), ExchangeSubSeed(43, 0))
      << "different scenario seeds must shift every partition";
}

TEST(PartitionConfigFn, SingleExchangeWithDerivedSeed) {
  ScenarioConfig cfg;
  cfg.seed = 1234;
  cfg.num_exchanges = 5;
  cfg.patho_enabled = true;
  const ScenarioConfig part = PartitionConfig(cfg, 3);
  EXPECT_EQ(part.num_exchanges, 1);
  EXPECT_EQ(part.seed, ExchangeSubSeed(1234, 3));
  EXPECT_TRUE(part.patho_enabled) << "all other knobs carry over";
}

TEST(MultiExchangeRunner, ThreadCountDoesNotChangeAnyByte) {
  MultiExchangeResult serial = MultiExchangeRunner(SmallConfig(3)).Run();
  for (int threads : {2, 4}) {
    MultiExchangeConfig cfg = SmallConfig(3);
    cfg.threads = threads;
    MultiExchangeResult parallel = MultiExchangeRunner(std::move(cfg)).Run();
    ASSERT_EQ(parallel.exchanges.size(), serial.exchanges.size());
    EXPECT_EQ(parallel.MrtCrc32(), serial.MrtCrc32()) << "threads=" << threads;
    EXPECT_EQ(parallel.MrtBytes(), serial.MrtBytes());
    EXPECT_EQ(parallel.combined_classifier_totals,
              serial.combined_classifier_totals);
    EXPECT_EQ(parallel.Digest("t"), serial.Digest("t"));
    for (std::size_t e = 0; e < serial.exchanges.size(); ++e) {
      EXPECT_EQ(parallel.exchanges[e].mrt, serial.exchanges[e].mrt)
          << "exchange " << e << " threads=" << threads;
    }
  }
}

// Profiling is invisible to the digest: a profiled run resolves the
// profile.* sites and sched.tasks (all kWallClock), an unprofiled run
// leaves them unregistered, and both digests are byte-identical.
TEST(MultiExchangeRunner, ProfilingNeverChangesTheDigest) {
  MultiExchangeConfig plain_cfg = SmallConfig(2);
  plain_cfg.scenario.duration = Duration::Hours(1);
  MultiExchangeConfig profiled_cfg = plain_cfg;
  profiled_cfg.scenario.profile_wall_clock = true;
  MultiExchangeResult plain = MultiExchangeRunner(std::move(plain_cfg)).Run();
  MultiExchangeResult profiled =
      MultiExchangeRunner(std::move(profiled_cfg)).Run();

  EXPECT_EQ(profiled.Digest("t"), plain.Digest("t"));
  const auto count = [](obs::Registry& reg, const char* name) {
    return reg.GetCounter(name, obs::Stability::kWallClock).value();
  };
  EXPECT_GT(count(profiled.metrics, "profile.rib.announce.calls"), 0u);
  EXPECT_GT(count(profiled.metrics, "sched.tasks"), 0u);
  EXPECT_EQ(count(plain.metrics, "profile.rib.announce.calls"), 0u);
  EXPECT_EQ(count(plain.metrics, "sched.tasks"), 0u);
}

TEST(MultiExchangeRunner, MergePreservesFixedExchangeOrder) {
  const MultiExchangeResult result = MultiExchangeRunner(SmallConfig(3)).Run();
  ASSERT_EQ(result.exchanges.size(), 3u);
  // The result's MRT CRC and length are those of the per-exchange streams
  // concatenated in index order — verify by re-assembling them by hand.
  std::vector<std::uint8_t> reassembled;
  std::uint64_t events = 0;
  for (std::size_t e = 0; e < 3; ++e) {
    EXPECT_EQ(result.exchanges[e].exchange, static_cast<int>(e));
    EXPECT_EQ(result.exchanges[e].sub_seed, ExchangeSubSeed(4, static_cast<int>(e)));
    EXPECT_GT(result.exchanges[e].events, 0u);
    reassembled.insert(reassembled.end(), result.exchanges[e].mrt.begin(),
                       result.exchanges[e].mrt.end());
    events += result.exchanges[e].events;
  }
  EXPECT_EQ(result.MrtCrc32(), Crc32(reassembled));
  EXPECT_EQ(result.MrtBytes(), reassembled.size());
  EXPECT_EQ(result.total_events, events);
  EXPECT_EQ(result.combined.Total(), events);
}

// "It is important to note that these results are representative of other
// exchange points": independent collectors over one Internet must see the
// same statistical mix, not the same bytes.
TEST(MultiExchangeRunner, PartitionsAreDecorrelatedButSameUniverse) {
  const MultiExchangeResult result = MultiExchangeRunner(SmallConfig(2)).Run();
  ASSERT_EQ(result.exchanges.size(), 2u);
  // Different sub-seeds ⇒ different event streams...
  EXPECT_NE(result.exchanges[0].mrt, result.exchanges[1].mrt);
  // ...over the same universe, so volumes stay statistically aligned...
  const double e0 = static_cast<double>(result.exchanges[0].events);
  const double e1 = static_cast<double>(result.exchanges[1].events);
  ASSERT_GT(e0, 100.0);
  EXPECT_NEAR(e1 / e0, 1.0, 0.5);
  // ...and so does the pathological share of each collector's stream.
  const double patho0 =
      static_cast<double>(result.exchanges[0].counts.Pathology()) / e0;
  const double patho1 =
      static_cast<double>(result.exchanges[1].counts.Pathology()) / e1;
  EXPECT_NEAR(patho1, patho0, 0.1);
}

TEST(MultiExchangeRunner, PartitionSetupSeesEveryExchangeOnce) {
  MultiExchangeRunner runner(SmallConfig(3));
  std::vector<int> setup_hits(3, 0);
  std::vector<std::uint64_t> sink_events(3, 0);
  runner.SetPartitionSetup([&](int e, ExchangeScenario& scenario) {
    setup_hits[static_cast<std::size_t>(e)] += 1;
    EXPECT_EQ(scenario.config().num_exchanges, 1);
    scenario.monitor().AddSink([&sink_events, e](const core::ClassifiedEvent&) {
      ++sink_events[static_cast<std::size_t>(e)];
    });
  });
  const MultiExchangeResult result = runner.Run();
  for (std::size_t e = 0; e < 3; ++e) {
    EXPECT_EQ(setup_hits[e], 1);
    EXPECT_EQ(sink_events[e], result.exchanges[e].events);
  }
}

// The digest's timeseries section computed from the text itself: record
// count, byte count and CRC-32 of the per-exchange texts concatenated in
// exchange order. The runner derives it from per-exchange running CRCs.
std::string TimeseriesLines(std::uint64_t records, const std::string& text) {
  char crc[32];
  std::snprintf(crc, sizeof(crc), "crc32=0x%08X\n",
                Crc32({reinterpret_cast<const std::uint8_t*>(text.data()),
                       text.size()}));
  return "timeseries.begin\nrecords=" + std::to_string(records) +
         "\nbytes=" + std::to_string(text.size()) + "\n" + crc +
         "timeseries.end\n";
}

TEST(MultiExchangeRunner, SeriesDigestEqualsTheConcatenatedSinkText) {
  for (int threads : {1, 4}) {
    MultiExchangeConfig cfg = SmallConfig(3);
    cfg.threads = threads;
    MultiExchangeRunner runner(std::move(cfg));
    std::vector<std::string> texts(3);
    std::vector<std::uint64_t> lines(3, 0);
    runner.SetPartitionSetup([&](int e, ExchangeScenario& scenario) {
      const auto slot = static_cast<std::size_t>(e);
      scenario.series().SetSink([&, slot](std::string_view flush) {
        texts[slot] += flush;
        lines[slot] += static_cast<std::uint64_t>(
            std::count(flush.begin(), flush.end(), '\n'));
      });
    });
    const MultiExchangeResult result = runner.Run();
    std::string joined;
    std::uint64_t records = 0;
    for (std::size_t e = 0; e < texts.size(); ++e) {
      EXPECT_EQ(result.exchanges[e].series_records, lines[e])
          << "exchange " << e << " threads=" << threads;
      joined += texts[e];
      records += lines[e];
    }
    ASSERT_GT(records, 0u);
    EXPECT_EQ(result.total_series_records, records);
    EXPECT_NE(result.Digest("t").find(TimeseriesLines(records, joined)),
              std::string::npos)
        << "threads=" << threads;
  }
}

TEST(MultiExchangeRunner, MrtSegmentsReplayToTheSameClassification) {
  // The offline path: each exchange's MRT segment replayed through a fresh
  // monitor must reproduce that exchange's live classifier bins exactly.
  const MultiExchangeResult result = MultiExchangeRunner(SmallConfig(2)).Run();
  for (const ExchangeRun& run : result.exchanges) {
    mrt::Reader reader(run.mrt);
    core::ExchangeMonitor offline;
    const std::uint64_t replayed = offline.Replay(reader);
    EXPECT_EQ(replayed, run.messages) << "exchange " << run.exchange;
    EXPECT_EQ(offline.classifier().totals(), run.classifier_totals)
        << "exchange " << run.exchange;
    EXPECT_EQ(reader.crc_failures(), 0u);
  }
}

TEST(MultiExchangeRunner, CaptureMrtOffLeavesStreamEmptyButStatsIntact) {
  MultiExchangeConfig with = SmallConfig(2);
  MultiExchangeConfig without = SmallConfig(2);
  without.capture_mrt = false;
  const MultiExchangeResult a = MultiExchangeRunner(std::move(with)).Run();
  const MultiExchangeResult b = MultiExchangeRunner(std::move(without)).Run();
  EXPECT_EQ(b.MrtBytes(), 0u);
  for (const ExchangeRun& run : b.exchanges) EXPECT_TRUE(run.mrt.empty());
  EXPECT_GT(a.MrtBytes(), 0u);
  EXPECT_EQ(a.combined_classifier_totals, b.combined_classifier_totals)
      << "MRT capture must not perturb the simulation";
}

}  // namespace
}  // namespace iri::workload
