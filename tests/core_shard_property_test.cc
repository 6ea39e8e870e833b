// Shard-merge property suite (DESIGN.md §13): a ShardedClassifier at any
// shard count, driven serially or through the batched fan-out at any thread
// count, is observationally identical to the unsharded classifier — same
// per-event verdict stream, same Table-1 aggregates, same monitor output.
// The golden matrix in golden_run_test.cc pins this end to end at scenario
// scale; this suite pins it at the component level with adversarial random
// streams (differential fuzz) where a divergence is attributable.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "bgp/rib.h"
#include "core/classifier.h"
#include "core/monitor.h"
#include "core/stats.h"
#include "mrt/log.h"
#include "netbase/rng.h"
#include "netbase/shard.h"

namespace iri::core {
namespace {

Prefix P(const std::string& s) { return *Prefix::Parse(s); }

// A deterministic adversarial stream: a small prefix pool (so per-route
// state machines are exercised through many transitions, not just Initial),
// a few peers, and a few attribute shapes so every taxonomy bin is hit.
// The table every stream's ids come from, as a monitor's events all come
// from its own.
bgp::AttrTable& Table() {
  static bgp::AttrTable table;
  return table;
}

std::vector<UpdateEvent> RandomStream(std::uint64_t seed, std::size_t n,
                                      std::uint32_t num_prefixes = 64,
                                      std::uint32_t num_peers = 3) {
  Rng rng(seed);
  std::vector<UpdateEvent> events;
  events.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    UpdateEvent ev;
    ev.time = TimePoint::Origin() + Duration::Seconds(static_cast<double>(i));
    ev.peer = static_cast<bgp::PeerId>(rng.Below(num_peers));
    ev.peer_asn = 100 + ev.peer;
    const std::uint32_t p = static_cast<std::uint32_t>(rng.Below(num_prefixes));
    ev.prefix = Prefix(IPv4Address(10, static_cast<std::uint8_t>(p >> 8),
                                   static_cast<std::uint8_t>(p & 0xff), 0),
                       24);
    ev.is_withdraw = rng.Below(5) < 2;  // withdrawal-heavy, like the paper
    if (!ev.is_withdraw) {
      bgp::PathAttributes attrs;
      attrs.as_path =
          bgp::AsPath::Sequence({static_cast<bgp::Asn>(701 + rng.Below(3))});
      attrs.next_hop =
          IPv4Address(192, 0, 2, static_cast<std::uint8_t>(1 + rng.Below(2)));
      if (rng.Below(4) == 0) attrs.med = 10 * rng.Below(3);
      ev.attr_id = Table().Intern(attrs);
      ev.fwd_id = Table().Forwarding(ev.attr_id);
    }
    events.push_back(ev);
  }
  return events;
}

TEST(ShardMap, AssignmentIsStableAndInRange) {
  const ShardMap map(7);
  for (const auto& ev : RandomStream(1, 500)) {
    const int s = map.ShardOf(ev.prefix);
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 7);
    EXPECT_EQ(s, map.ShardOf(ev.prefix)) << "assignment must be stable";
  }
  // A single-shard map routes everything to shard 0.
  const ShardMap one(1);
  EXPECT_EQ(one.ShardOf(P("10.1.2.0/24")), 0);
}

TEST(ShardMap, SpreadsPrefixSpace) {
  const ShardMap map(4);
  std::vector<int> hits(4, 0);
  for (const auto& ev : RandomStream(2, 2000, /*num_prefixes=*/1024)) {
    ++hits[static_cast<std::size_t>(map.ShardOf(ev.prefix))];
  }
  for (int h : hits) {
    EXPECT_GT(h, 0) << "a shard received no prefixes at all";
  }
}

// The core property: per-event verdicts from the batched sharded path are
// identical to the unsharded classifier's, for every (shards, threads)
// cell, and the fixed-order aggregate merge reproduces the unsharded
// totals exactly.
TEST(ShardedClassifier, MatchesUnshardedAtEveryShardAndThreadCount) {
  const auto events = RandomStream(3, 4000);

  Classifier reference;
  std::vector<ShardVerdict> expected;
  expected.reserve(events.size());
  for (const auto& ev : events) expected.push_back(reference.ClassifyVerdict(ev));

  for (const int shards : {1, 2, 4, 7}) {
    for (const int threads : {1, 2, 4}) {
      ShardedClassifier sharded(shards);
      std::vector<ShardVerdict> verdicts(events.size());
      // Feed in several batches: batching boundaries must not matter.
      const std::size_t half = events.size() / 2;
      sharded.ClassifyBatch({events.data(), half}, {verdicts.data(), half},
                            threads);
      sharded.ClassifyBatch({events.data() + half, events.size() - half},
                            {verdicts.data() + half, events.size() - half},
                            threads);
      for (std::size_t i = 0; i < events.size(); ++i) {
        ASSERT_EQ(verdicts[i].category, expected[i].category)
            << "event " << i << " at shards=" << shards
            << " threads=" << threads;
        ASSERT_EQ(verdicts[i].policy_fluctuation,
                  expected[i].policy_fluctuation)
            << "event " << i << " at shards=" << shards
            << " threads=" << threads;
      }
      EXPECT_EQ(sharded.totals(), reference.totals());
      EXPECT_EQ(sharded.total_events(), reference.total_events());
      EXPECT_EQ(sharded.TrackedRoutes(), reference.TrackedRoutes());
    }
  }
}

TEST(ShardedClassifier, SerialPathMatchesBatchPath) {
  const auto events = RandomStream(4, 1000);
  ShardedClassifier serial(4);
  ShardedClassifier batched(4);
  std::vector<ShardVerdict> verdicts(events.size());
  batched.ClassifyBatch({events.data(), events.size()},
                        {verdicts.data(), events.size()}, /*threads=*/2);
  ClassifiedEvent out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    serial.ClassifyInto(events[i], out);
    EXPECT_EQ(out.category, verdicts[i].category) << "event " << i;
    EXPECT_EQ(out.policy_fluctuation, verdicts[i].policy_fluctuation);
  }
  EXPECT_EQ(serial.totals(), batched.totals());
}

TEST(ShardedClassifier, LastBatchShardCountsPartitionTheBatch) {
  const auto events = RandomStream(5, 512);
  ShardedClassifier sharded(4);
  std::vector<ShardVerdict> verdicts(events.size());
  sharded.ClassifyBatch({events.data(), events.size()},
                        {verdicts.data(), events.size()}, 1);
  const auto& counts = sharded.last_batch_shard_counts();
  ASSERT_EQ(counts.size(), 4u);
  std::uint64_t sum = 0;
  for (std::size_t s = 0; s < counts.size(); ++s) {
    sum += counts[s];
    // Each count must agree with the shard map's own assignment.
    std::uint64_t own = 0;
    for (const auto& ev : events) {
      if (sharded.map().ShardOf(ev.prefix) == static_cast<int>(s)) ++own;
    }
    EXPECT_EQ(counts[s], own) << "shard " << s;
  }
  EXPECT_EQ(sum, events.size());
}

// Differential fuzz at monitor level: a sharded, batch-capped monitor must
// produce byte-identical output (MRT stream, Table-1 counts, sink order) to
// an unconfigured drain-per-message monitor over the same message stream.
TEST(ExchangeMonitor, ShardedPipelineIsObservationallyIdentical) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    Rng rng(seed);

    ExchangeMonitor plain;
    ExchangeMonitor sharded;
    sharded.ConfigureSharding(/*shards=*/4, /*shard_threads=*/2,
                              /*batch_cap=*/64);

    mrt::Writer plain_mrt, sharded_mrt;
    plain.SetMrtWriter(&plain_mrt);
    sharded.SetMrtWriter(&sharded_mrt);

    CategoryCounts plain_counts, sharded_counts;
    std::vector<std::pair<Prefix, Category>> plain_order, sharded_order;
    plain.AddSink([&](const ClassifiedEvent& ev) {
      plain_counts.Add(ev);
      plain_order.emplace_back(ev.event.prefix, ev.category);
    });
    sharded.AddSink([&](const ClassifiedEvent& ev) {
      sharded_counts.Add(ev);
      sharded_order.emplace_back(ev.event.prefix, ev.category);
    });

    for (int m = 0; m < 300; ++m) {
      bgp::UpdateMessage msg;
      const int nw = static_cast<int>(rng.Below(3));
      for (int i = 0; i < nw; ++i) {
        msg.withdrawn.push_back(Prefix(
            IPv4Address(10, 0, static_cast<std::uint8_t>(rng.Below(32)), 0),
            24));
      }
      const int na = static_cast<int>(rng.Below(3));
      for (int i = 0; i < na; ++i) {
        msg.nlri.push_back(Prefix(
            IPv4Address(10, 0, static_cast<std::uint8_t>(rng.Below(32)), 0),
            24));
      }
      if (!msg.nlri.empty()) {
        msg.attributes.as_path =
            bgp::AsPath::Sequence({static_cast<bgp::Asn>(701 + rng.Below(2))});
        msg.attributes.next_hop = IPv4Address(192, 0, 2, 1);
      }
      const TimePoint t = TimePoint::Origin() + Duration::Seconds(m);
      const bgp::PeerId peer = static_cast<bgp::PeerId>(rng.Below(3));
      plain.Ingest(t, peer, 100 + peer, msg);
      sharded.Ingest(t, peer, 100 + peer, msg);
    }
    sharded.Drain();  // flush the tail of the last partial batch

    EXPECT_EQ(plain.events_seen(), sharded.events_seen()) << "seed " << seed;
    EXPECT_EQ(plain.messages_seen(), sharded.messages_seen());
    EXPECT_EQ(plain.classifier().totals(), sharded.classifier().totals());
    EXPECT_EQ(plain_counts.Total(), sharded_counts.Total());
    EXPECT_EQ(plain_order, sharded_order)
        << "seed " << seed << ": sink order must be arrival order";
    EXPECT_EQ(plain_mrt.buffer(), sharded_mrt.buffer())
        << "seed " << seed << ": MRT streams must be byte-identical";
  }
}

// Shard coverage on the RIB side: the union of VisitBestSharded over all
// shards is exactly VisitBest, with no prefix visited twice.
TEST(Rib, VisitBestShardedPartitionsVisitBest) {
  bgp::Rib rib;
  rib.AddPeer(1, IPv4Address(192, 0, 2, 1));
  for (std::uint32_t i = 0; i < 200; ++i) {
    bgp::PathAttributes attrs;
    attrs.as_path = bgp::AsPath::Sequence({701});
    attrs.next_hop = IPv4Address(192, 0, 2, 1);
    rib.Announce(1,
                 Prefix(IPv4Address(10, static_cast<std::uint8_t>(i >> 8),
                                    static_cast<std::uint8_t>(i & 0xff), 0),
                        24),
                 rib.attrs().Intern(attrs));
  }
  std::set<Prefix> all;
  rib.VisitBest([&](const Prefix& p, const bgp::Candidate&) { all.insert(p); });
  ASSERT_EQ(all.size(), 200u);

  const ShardMap map(5);
  std::set<Prefix> sharded;
  for (int s = 0; s < 5; ++s) {
    rib.VisitBestSharded(map, s, [&](const Prefix& p, const bgp::Candidate&) {
      EXPECT_EQ(map.ShardOf(p), s);
      EXPECT_TRUE(sharded.insert(p).second)
          << "prefix visited by two shards";
    });
  }
  EXPECT_EQ(sharded, all);
}

TEST(ExchangeMonitor, DrainOnEmptyPendingIsANoOp) {
  ExchangeMonitor monitor;
  monitor.ConfigureSharding(2, 1, 16);
  monitor.Drain();
  EXPECT_EQ(monitor.events_seen(), 0u);
  EXPECT_EQ(monitor.pending_events(), 0u);
}

}  // namespace
}  // namespace iri::core
