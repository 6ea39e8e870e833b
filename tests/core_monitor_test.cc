#include "core/monitor.h"

#include <gtest/gtest.h>

#include "core/stats.h"

namespace iri::core {
namespace {

Prefix P(const std::string& s) { return *Prefix::Parse(s); }

bgp::UpdateMessage Announce(const std::string& prefix,
                            std::vector<bgp::Asn> path) {
  bgp::UpdateMessage u;
  u.attributes.as_path = bgp::AsPath::Sequence(std::move(path));
  u.attributes.next_hop = IPv4Address(10, 0, 0, 1);
  u.nlri = {P(prefix)};
  return u;
}

bgp::UpdateMessage Withdraw(const std::string& prefix) {
  bgp::UpdateMessage u;
  u.withdrawn = {P(prefix)};
  return u;
}

TimePoint T(double s) { return TimePoint::Origin() + Duration::Seconds(s); }

TEST(ExchangeMonitor, IngestClassifiesAndFansOut) {
  ExchangeMonitor monitor;
  std::vector<Category> seen_a, seen_b;
  monitor.AddSink([&seen_a](const ClassifiedEvent& ev) {
    seen_a.push_back(ev.category);
  });
  monitor.AddSink([&seen_b](const ClassifiedEvent& ev) {
    seen_b.push_back(ev.category);
  });

  monitor.Ingest(T(0), 1, 701, Announce("10.0.0.0/8", {701}));
  monitor.Ingest(T(1), 1, 701, Withdraw("10.0.0.0/8"));
  monitor.Ingest(T(2), 1, 701, Withdraw("10.0.0.0/8"));

  const std::vector<Category> expected = {
      Category::kInitial, Category::kWithdraw, Category::kWWDup};
  EXPECT_EQ(seen_a, expected);
  EXPECT_EQ(seen_b, expected);
  EXPECT_EQ(monitor.events_seen(), 3u);
  EXPECT_EQ(monitor.messages_seen(), 3u);
}

TEST(ExchangeMonitor, MixedUpdateExplodesInWireOrder) {
  ExchangeMonitor monitor;
  std::vector<bool> withdraw_flags;
  monitor.AddSink([&withdraw_flags](const ClassifiedEvent& ev) {
    withdraw_flags.push_back(ev.event.is_withdraw);
  });
  bgp::UpdateMessage u = Announce("11.0.0.0/8", {9});
  u.withdrawn = {P("10.0.0.0/8"), P("12.0.0.0/8")};
  monitor.Ingest(T(0), 2, 1239, u);
  EXPECT_EQ(withdraw_flags, (std::vector<bool>{true, true, false}));
}

// Ingest classifies and analyses every event of the UPDATE before it
// returns: callers may read the sinks, counters and classifier at any
// observation boundary without draining first.
TEST(ExchangeMonitor, IngestDeliversEveryEventBeforeReturning) {
  ExchangeMonitor monitor;
  std::vector<Prefix> delivered;
  monitor.AddSink([&delivered](const ClassifiedEvent& ev) {
    delivered.push_back(ev.event.prefix);
  });
  bgp::UpdateMessage u = Announce("11.0.0.0/8", {9});
  u.nlri.push_back(P("13.0.0.0/8"));
  u.nlri.push_back(P("14.1.0.0/16"));
  u.withdrawn = {P("10.0.0.0/8"), P("12.0.0.0/8")};
  monitor.Ingest(T(0), 2, 1239, u);

  const std::vector<Prefix> wire_order = {P("10.0.0.0/8"), P("12.0.0.0/8"),
                                          P("11.0.0.0/8"), P("13.0.0.0/8"),
                                          P("14.1.0.0/16")};
  EXPECT_EQ(delivered, wire_order);
  EXPECT_EQ(monitor.events_seen(), wire_order.size());
  EXPECT_EQ(monitor.classifier().total_events(), wire_order.size());

  monitor.Drain();
  EXPECT_EQ(delivered, wire_order) << "Drain after Ingest delivered events";
  EXPECT_EQ(monitor.events_seen(), wire_order.size());
  EXPECT_EQ(monitor.classifier().total_events(), wire_order.size());
}

TEST(ExchangeMonitor, DrainOnEmptyPendingIsANoOp) {
  ExchangeMonitor monitor;
  int delivered = 0;
  monitor.AddSink([&delivered](const ClassifiedEvent&) { ++delivered; });
  monitor.Drain();
  EXPECT_EQ(monitor.events_seen(), 0u);
  EXPECT_EQ(monitor.classifier().total_events(), 0u);
  EXPECT_EQ(delivered, 0);
}

TEST(ExchangeMonitor, MrtMirrorAndReplayAgree) {
  mrt::Writer writer;

  ExchangeMonitor live;
  live.SetMrtWriter(&writer);
  CategoryCounts live_counts;
  live.AddSink([&live_counts](const ClassifiedEvent& ev) {
    live_counts.Add(ev);
  });

  // A small churny stream across two peers.
  for (int i = 0; i < 50; ++i) {
    const auto peer = static_cast<bgp::PeerId>(i % 2);
    const bgp::Asn asn = 701 + peer;
    if (i % 5 == 4) {
      live.Ingest(T(i), peer, asn, Withdraw("10.0.0.0/8"));
    } else {
      live.Ingest(T(i), peer, asn,
                  Announce("10.0.0.0/8", {asn, static_cast<bgp::Asn>(9 + i % 3)}));
    }
  }

  mrt::Reader reader(writer.buffer());
  ExchangeMonitor offline;
  CategoryCounts replay_counts;
  offline.AddSink([&replay_counts](const ClassifiedEvent& ev) {
    replay_counts.Add(ev);
  });
  const std::uint64_t updates = offline.Replay(reader);

  EXPECT_EQ(updates, 50u);
  EXPECT_EQ(replay_counts.by_category, live_counts.by_category);
  EXPECT_EQ(replay_counts.announcements, live_counts.announcements);
  EXPECT_EQ(replay_counts.withdrawals, live_counts.withdrawals);
}

TEST(ExchangeMonitor, ReplaySkipsNonUpdateRecords) {
  mrt::Writer writer;
  writer.LogMessage(T(0), 0, 701, 7, bgp::KeepAliveMessage{});
  bgp::OpenMessage open;
  open.asn = 701;
  writer.LogMessage(T(1), 0, 701, 7, open);
  writer.LogMessage(T(2), 0, 701, 7, Announce("10.0.0.0/8", {701}));

  mrt::Reader reader(writer.buffer());
  ExchangeMonitor monitor;
  EXPECT_EQ(monitor.Replay(reader), 1u);
  EXPECT_EQ(monitor.events_seen(), 1u);
}

TEST(ExchangeMonitor, ClassifierStateVisibleThroughAccessor) {
  ExchangeMonitor monitor;
  monitor.Ingest(T(0), 1, 701, Announce("10.0.0.0/8", {701}));
  monitor.Ingest(T(1), 2, 702, Announce("10.0.0.0/8", {702}));
  EXPECT_EQ(monitor.classifier().TrackedRoutes(), 2u);
}

}  // namespace
}  // namespace iri::core
