#include "bgp/update_packer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

#include "bgp/rib.h"

namespace iri::bgp {
namespace {

Prefix P(const std::string& s) { return *Prefix::Parse(s); }

// Every op's attribute id comes from this one table, as a router's ops all
// come from its RIB's table.
AttrTable& Table() {
  static AttrTable table;
  return table;
}

AttrSetId Attrs(std::vector<Asn> path) {
  PathAttributes a;
  a.as_path = AsPath::Sequence(std::move(path));
  a.next_hop = IPv4Address(10, 0, 0, 1);
  return Table().Intern(a);
}

constexpr AttrSetId kWithdraw = kInvalidAttrSetId;

// What UpdatePacker put on the wire for one batch: each message's bytes,
// the same bytes decoded, and its cause sideband.
struct WireBatch {
  std::vector<std::vector<std::uint8_t>> wire;
  std::vector<UpdateMessage> msgs;
  std::vector<obs::CauseVec> causes;
};

WireBatch Pack(std::span<const RouteOp> ops, AttrTable& table) {
  UpdatePacker packer;
  WireBatch out;
  for (const UpdatePacker::Packed& m : packer.Pack(ops, table)) {
    out.wire.push_back(packer.Wire(m, table));
    const std::optional<Message> decoded = Decode(out.wire.back());
    EXPECT_TRUE(decoded.has_value());
    out.msgs.push_back(decoded ? std::get<UpdateMessage>(*decoded)
                               : UpdateMessage{});
    const auto causes = packer.Causes(m);
    out.causes.emplace_back(causes.begin(), causes.end());
  }
  return out;
}

// Queued ops carry the prefix's slot, minted here by one Rib as a router's
// ops are by its own.
Rib& Slots() {
  static Rib rib;
  return rib;
}

RouteOp Op(const Prefix& prefix, AttrSetId attr_id) {
  return RouteOp{prefix, attr_id, false, {}, Slots().Slot(prefix)};
}

std::vector<RouteOp> FlushOps(OutboundQueue& q, TimePoint now) {
  std::vector<RouteOp> out;
  q.Flush(now, out);
  return out;
}

TimePoint T(double seconds) {
  return TimePoint::Origin() + Duration::Seconds(seconds);
}

TEST(PackUpdates, GroupsAnnouncementsByAttributes) {
  std::vector<RouteOp> ops = {
      {P("10.0.0.0/8"), Attrs({701})},
      {P("11.0.0.0/8"), Attrs({701})},
      {P("12.0.0.0/8"), Attrs({1239})},
  };
  auto msgs = Pack(ops, Table()).msgs;
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(msgs[0].nlri.size(), 2u);
  EXPECT_EQ(msgs[1].nlri.size(), 1u);
}

TEST(PackUpdates, WithdrawalsPackedTogetherAndFirst) {
  std::vector<RouteOp> ops = {
      {P("10.0.0.0/8"), Attrs({701})},
      {P("11.0.0.0/8"), kWithdraw},
      {P("12.0.0.0/8"), kWithdraw},
  };
  auto msgs = Pack(ops, Table()).msgs;
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(msgs[0].withdrawn.size(), 2u);
  EXPECT_TRUE(msgs[0].nlri.empty());
  EXPECT_EQ(msgs[1].nlri.size(), 1u);
}

TEST(PackUpdates, SplitsBelowMaxMessageSize) {
  std::vector<RouteOp> ops;
  for (std::uint32_t i = 0; i < 3000; ++i) {
    ops.push_back({Prefix(IPv4Address((10u << 24) | (i << 8)), 24),
                   kWithdraw});
  }
  const WireBatch batch = Pack(ops, Table());
  EXPECT_GT(batch.msgs.size(), 1u);
  std::size_t total = 0;
  for (std::size_t m = 0; m < batch.msgs.size(); ++m) {
    EXPECT_LE(batch.wire[m].size(), kMaxMessageSize);
    total += batch.msgs[m].withdrawn.size();
  }
  EXPECT_EQ(total, 3000u);
}

TEST(PackUpdates, LargeAnnouncementBatchSplits) {
  std::vector<RouteOp> ops;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    ops.push_back({Prefix(IPv4Address((10u << 24) | (i << 8)), 24),
                   Attrs({701, 1239})});
  }
  const WireBatch batch = Pack(ops, Table());
  EXPECT_GT(batch.msgs.size(), 1u);
  std::size_t total = 0;
  for (std::size_t m = 0; m < batch.msgs.size(); ++m) {
    EXPECT_LE(batch.wire[m].size(), kMaxMessageSize);
    total += batch.msgs[m].nlri.size();
  }
  EXPECT_EQ(total, 2000u);
}

TEST(PackUpdates, EmptyInputYieldsNothing) {
  UpdatePacker packer;
  EXPECT_TRUE(packer.Pack({}, Table()).empty());
}

TEST(OutboundQueue, LatestWinsPerPrefix) {
  OutboundQueue q({}, 1);
  q.Enqueue(T(1), Op(P("10.0.0.0/8"), Attrs({701})));
  q.Enqueue(T(2), Op(P("10.0.0.0/8"), kWithdraw));
  q.Enqueue(T(3), Op(P("10.0.0.0/8"), Attrs({1239})));
  auto ops = FlushOps(q, T(100));
  ASSERT_EQ(ops.size(), 1u);
  ASSERT_FALSE(ops[0].IsWithdraw());
  EXPECT_EQ(Table().Get(ops[0].attr_id).as_path.ToString(), "1239");
}

TEST(OutboundQueue, PreservesFirstEnqueueOrder) {
  OutboundQueue q({}, 1);
  q.Enqueue(T(1), Op(P("12.0.0.0/8"), Attrs({1})));
  q.Enqueue(T(1), Op(P("10.0.0.0/8"), Attrs({2})));
  q.Enqueue(T(1), Op(P("11.0.0.0/8"), Attrs({3})));
  q.Enqueue(T(2), Op(P("12.0.0.0/8"), Attrs({4})));  // replaces, keeps position 0
  auto ops = FlushOps(q, T(100));
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].prefix, P("12.0.0.0/8"));
  EXPECT_EQ(ops[1].prefix, P("10.0.0.0/8"));
  EXPECT_EQ(ops[2].prefix, P("11.0.0.0/8"));
}

TEST(OutboundQueue, FlushBeforeDeadlineReturnsNothing) {
  PackerConfig cfg;
  cfg.interval = Duration::Seconds(30);
  OutboundQueue q(cfg, 1);
  q.Enqueue(T(1), Op(P("10.0.0.0/8"), Attrs({701})));
  EXPECT_TRUE(FlushOps(q, T(2)).empty());
  EXPECT_EQ(q.pending_ops(), 1u);
  EXPECT_FALSE(FlushOps(q, T(31)).empty());
  EXPECT_TRUE(q.empty());
}

TEST(OutboundQueue, UnjitteredFlushesOnFixedPhase) {
  PackerConfig cfg;
  cfg.interval = Duration::Seconds(30);
  cfg.discipline = TimerDiscipline::kUnjittered;
  // Two queues with different seeds and different enqueue times must still
  // share the same flush phase — the self-synchronization substrate.
  OutboundQueue q1(cfg, 1), q2(cfg, 999);
  q1.Enqueue(T(3), Op(P("10.0.0.0/8"), Attrs({701})));
  q2.Enqueue(T(17.5), Op(P("11.0.0.0/8"), Attrs({9})));
  EXPECT_EQ(q1.NextFlush(), T(30));
  EXPECT_EQ(q2.NextFlush(), T(30));

  // An enqueue exactly on the boundary goes to the *next* boundary.
  OutboundQueue q3(cfg, 5);
  q3.Enqueue(T(30), Op(P("12.0.0.0/8"), Attrs({9})));
  EXPECT_EQ(q3.NextFlush(), T(60));
}

TEST(OutboundQueue, JitteredSpreadsDeadlines) {
  PackerConfig cfg;
  cfg.interval = Duration::Seconds(30);
  cfg.discipline = TimerDiscipline::kJittered;
  std::vector<TimePoint> deadlines;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    OutboundQueue q(cfg, seed);
    q.Enqueue(T(0), Op(P("10.0.0.0/8"), Attrs({701})));
    deadlines.push_back(q.NextFlush());
    // All within interval*(1±0.25).
    EXPECT_GE(deadlines.back(), T(30 * 0.75));
    EXPECT_LE(deadlines.back(), T(30 * 1.25));
  }
  // Not all identical.
  const bool all_same = std::all_of(
      deadlines.begin(), deadlines.end(),
      [&deadlines](TimePoint t) { return t == deadlines.front(); });
  EXPECT_FALSE(all_same);
}

TEST(OutboundQueue, DeadlineRearmsAfterFlush) {
  PackerConfig cfg;
  cfg.interval = Duration::Seconds(30);
  cfg.discipline = TimerDiscipline::kUnjittered;
  OutboundQueue q(cfg, 1);
  q.Enqueue(T(3), Op(P("10.0.0.0/8"), Attrs({701})));
  (void)FlushOps(q, T(30));
  EXPECT_EQ(q.NextFlush(), TimePoint::Max());
  q.Enqueue(T(42), Op(P("10.0.0.0/8"), kWithdraw));
  EXPECT_EQ(q.NextFlush(), T(60));
}

// The paper's A1-A2-A1 sequence inside one flush window: the queue emits
// the net A1 — which a stateless router then sends as a duplicate (AADup).
TEST(OutboundQueue, OscillationWithinWindowCoalescesToFinalState) {
  PackerConfig cfg;
  cfg.interval = Duration::Seconds(30);
  cfg.discipline = TimerDiscipline::kUnjittered;
  OutboundQueue q(cfg, 1);
  const auto a1 = Attrs({701, 9});
  const auto a2 = Attrs({701, 1239, 9});
  q.Enqueue(T(1), Op(P("10.0.0.0/8"), a1));
  q.Enqueue(T(5), Op(P("10.0.0.0/8"), a2));
  q.Enqueue(T(9), Op(P("10.0.0.0/8"), a1));
  auto ops = FlushOps(q, T(30));
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].attr_id, a1);
}

// W-A-W within one window nets to a withdrawal (WWDup engine when the
// route was never announced to the peer).
TEST(OutboundQueue, WithdrawAnnounceWithdrawNetsToWithdraw) {
  PackerConfig cfg;
  cfg.discipline = TimerDiscipline::kUnjittered;
  OutboundQueue q(cfg, 1);
  q.Enqueue(T(1), Op(P("10.0.0.0/8"), kWithdraw));
  q.Enqueue(T(5), Op(P("10.0.0.0/8"), Attrs({701})));
  q.Enqueue(T(9), Op(P("10.0.0.0/8"), kWithdraw));
  auto ops = FlushOps(q, T(30));
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_TRUE(ops[0].IsWithdraw());
}

// The slot index's positions are reset on every flush: a prefix re-enqueued
// in the next window must get a fresh position reflecting the new window's
// enqueue sequence, not its position in the previous one.
TEST(OutboundQueue, IndexResetsAcrossFlushWindows) {
  PackerConfig cfg;
  cfg.discipline = TimerDiscipline::kUnjittered;
  OutboundQueue q(cfg, 1);
  q.Enqueue(T(1), Op(P("10.0.0.0/8"), Attrs({1})));
  q.Enqueue(T(2), Op(P("11.0.0.0/8"), Attrs({2})));
  (void)FlushOps(q, T(30));
  // Second window: reversed enqueue order, plus an interleaved withdraw.
  q.Enqueue(T(31), Op(P("11.0.0.0/8"), kWithdraw));
  q.Enqueue(T(32), Op(P("10.0.0.0/8"), Attrs({3})));
  q.Enqueue(T(33), Op(P("11.0.0.0/8"), Attrs({4})));
  auto ops = FlushOps(q, T(60));
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].prefix, P("11.0.0.0/8"));  // new window's first enqueue
  EXPECT_TRUE(ops[0].withdraw_preceded);
  EXPECT_EQ(ops[1].prefix, P("10.0.0.0/8"));
  EXPECT_FALSE(ops[1].withdraw_preceded);
}

// withdraw_preceded survives any number of in-window supersessions once a
// withdrawal has been queued for the prefix: W-A-A must still transmit the
// W,A train through a stateless sender.
TEST(OutboundQueue, WithdrawPrecededStickyAcrossReenqueues) {
  PackerConfig cfg;
  cfg.discipline = TimerDiscipline::kUnjittered;
  OutboundQueue q(cfg, 1);
  q.Enqueue(T(1), Op(P("10.0.0.0/8"), kWithdraw));
  q.Enqueue(T(2), Op(P("10.0.0.0/8"), Attrs({701})));
  q.Enqueue(T(3), Op(P("10.0.0.0/8"), Attrs({1239})));
  auto ops = FlushOps(q, T(30));
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_TRUE(ops[0].withdraw_preceded);
  // ...but it does not leak into the next window.
  q.Enqueue(T(31), Op(P("10.0.0.0/8"), Attrs({701})));
  ops = FlushOps(q, T(60));
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_FALSE(ops[0].withdraw_preceded);
}

// Differential check of the slot index against a naive reference model
// under a randomized re-enqueue/withdraw interleaving: flush order is the
// first-enqueue order of each window and the net op is latest-wins. The 48
// prefixes' slots recur in every window at new positions, so a position
// left over from an earlier window would misplace or overwrite an op.
TEST(OutboundQueue, RandomInterleavingMatchesReferenceModel) {
  PackerConfig cfg;
  cfg.discipline = TimerDiscipline::kUnjittered;
  cfg.interval = Duration::Seconds(30);
  OutboundQueue q(cfg, 1);
  Rng rng(2024);
  // One warmed-up drain buffer for every window, as a router reuses its
  // own: the swapped buffers keep their capacity, so a stale position lands
  // inside it and shows as a wrong op instead of a fault.
  std::vector<RouteOp> ops;
  ops.reserve(64);
  for (int window = 0; window < 8; ++window) {
    std::vector<RouteOp> reference;  // net ops in first-enqueue order
    const double base = window * 30.0;
    for (int i = 0; i < 200; ++i) {
      RouteOp op = Op(
          Prefix(IPv4Address(10, 0, static_cast<std::uint8_t>(rng.Below(48)),
                             0),
                 24),
          kWithdraw);
      if (rng.Below(3) != 0) {
        op.attr_id = Attrs({static_cast<Asn>(701 + rng.Below(4))});
      }
      q.Enqueue(T(base + 0.1 * i), op);
      auto it = std::find_if(
          reference.begin(), reference.end(),
          [&op](const RouteOp& r) { return r.prefix == op.prefix; });
      if (it == reference.end()) {
        reference.push_back(op);
      } else {
        if (!op.IsWithdraw() && (it->IsWithdraw() || it->withdraw_preceded)) {
          op.withdraw_preceded = true;
        }
        *it = op;
      }
    }
    q.Flush(T(base + 30.0), ops);
    ASSERT_EQ(ops.size(), reference.size()) << "window " << window;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      EXPECT_EQ(ops[i], reference[i]) << "window " << window << " op " << i;
      EXPECT_EQ(ops[i].slot, reference[i].slot);
    }
  }
}

// ---------------------------------------------------------------------------
// Differential check of the id-grouping packer against a deep-equality
// reference: the packing rules of PackUpdates (withdrawals first, packed
// densely; announcements grouped by equal attribute sets, groups in order of
// first appearance, a group closed once its size estimate reaches the cap),
// restated over PathAttributes values instead of interned ids.

struct DeepOp {
  Prefix prefix;
  std::optional<PathAttributes> attributes;  // nullopt == withdrawal
  obs::CauseTag cause{};
};

std::vector<UpdateMessage> ReferencePack(const std::vector<DeepOp>& ops,
                                         std::vector<obs::CauseVec>& causes) {
  std::vector<UpdateMessage> out;
  UpdateMessage withdrawals;
  obs::CauseVec withdrawal_causes;
  for (const DeepOp& op : ops) {
    if (op.attributes) continue;
    withdrawals.withdrawn.push_back(op.prefix);
    withdrawal_causes.push_back(op.cause);
    if (EstimateUpdateSize(withdrawals) > kMaxMessageSize - 64) {
      out.push_back(std::move(withdrawals));
      causes.push_back(std::move(withdrawal_causes));
      withdrawals = {};
      withdrawal_causes = {};
    }
  }
  if (!withdrawals.withdrawn.empty()) {
    out.push_back(std::move(withdrawals));
    causes.push_back(std::move(withdrawal_causes));
  }
  std::vector<UpdateMessage> groups;
  std::vector<obs::CauseVec> group_causes;
  for (const DeepOp& op : ops) {
    if (!op.attributes) continue;
    std::size_t g = 0;
    while (g < groups.size() &&
           !(groups[g].attributes == *op.attributes &&
             EstimateUpdateSize(groups[g]) < kMaxMessageSize - 64)) {
      ++g;
    }
    if (g == groups.size()) {
      groups.emplace_back().attributes = *op.attributes;
      group_causes.emplace_back();
    }
    groups[g].nlri.push_back(op.prefix);
    group_causes[g].push_back(op.cause);
  }
  for (std::size_t g = 0; g < groups.size(); ++g) {
    out.push_back(std::move(groups[g]));
    causes.push_back(std::move(group_causes[g]));
  }
  return out;
}

PathAttributes RandomPackerAttributes(Rng& rng) {
  PathAttributes a;
  std::vector<Asn> path;
  const std::size_t len = 1 + rng.Below(12);  // long paths fill messages
  for (std::size_t i = 0; i < len; ++i) {
    path.push_back(static_cast<Asn>(700 + rng.Below(4)));
  }
  a.as_path = AsPath::Sequence(std::move(path));
  a.next_hop = IPv4Address(10, 0, 0, static_cast<std::uint8_t>(rng.Below(2)));
  if (rng.Bernoulli(0.5)) a.med = static_cast<std::uint32_t>(rng.Below(2));
  const std::size_t communities = rng.Below(6);
  for (std::size_t i = 0; i < communities; ++i) {
    a.communities.push_back(static_cast<Community>(rng.Below(1000)));
  }
  std::sort(a.communities.begin(), a.communities.end());
  a.communities.erase(std::unique(a.communities.begin(), a.communities.end()),
                      a.communities.end());
  return a;
}

// Packs `ops` with UpdatePacker and checks every message's bytes against
// Encode of the reference grouping of `deep` (the same ops, by value), and
// every cause sideband against the reference's.
void ExpectMatchesReference(const std::vector<RouteOp>& ops,
                            const std::vector<DeepOp>& deep, AttrTable& table,
                            const std::string& label) {
  const WireBatch got = Pack(ops, table);
  std::vector<obs::CauseVec> want_causes;
  const std::vector<UpdateMessage> want = ReferencePack(deep, want_causes);
  ASSERT_EQ(got.wire.size(), want.size()) << label;
  for (std::size_t m = 0; m < want.size(); ++m) {
    EXPECT_EQ(got.wire[m], Encode(Message(want[m])))
        << label << " message " << m;
    ASSERT_EQ(got.causes[m].size(), want_causes[m].size())
        << label << " message " << m;
    for (std::size_t i = 0; i < want_causes[m].size(); ++i) {
      EXPECT_TRUE(got.causes[m][i] == want_causes[m][i])
          << label << " message " << m << " slot " << i;
    }
  }
}

std::size_t EncodedSize(const PathAttributes& attrs) {
  ByteWriter out;
  EncodeAttributes(attrs, out);
  return out.size();
}

// A /24 under 10.0.0.0/8 (up to 65536 distinct).
Prefix Slash24(std::uint32_t i) {
  return Prefix(IPv4Address((10u << 24) | ((i & 0xFFFF) << 8)), 24);
}

TEST(PackUpdates, IdGroupingMatchesDeepEqualityReference) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    AttrTable table;
    obs::ProvenanceContext prov;
    // A small palette, each entry interned from its own copy: equal values
    // built separately must land in one group, as decoded UPDATEs do.
    std::vector<PathAttributes> palette;
    const std::size_t palette_size = 1 + rng.Below(5);
    for (std::size_t i = 0; i < palette_size; ++i) {
      palette.push_back(RandomPackerAttributes(rng));
    }
    std::vector<RouteOp> ops;
    std::vector<DeepOp> deep;
    // Up to 1500 ops, so withdrawals and large groups both split.
    const std::size_t n = 1 + rng.Below(1500);
    for (std::size_t i = 0; i < n; ++i) {
      const Prefix prefix = Slash24(static_cast<std::uint32_t>(rng.Below(4096)));
      const obs::CauseTag cause =
          prov.Allocate(obs::CauseKind::kCustomerFlap, TimePoint::Origin());
      if (rng.Bernoulli(0.4)) {
        ops.push_back(RouteOp{prefix, kInvalidAttrSetId, false, cause});
        deep.push_back(DeepOp{prefix, std::nullopt, cause});
      } else {
        const PathAttributes copy = palette[rng.Below(palette.size())];
        ops.push_back(RouteOp{prefix, table.Intern(copy), false, cause});
        deep.push_back(DeepOp{prefix, copy, cause});
      }
    }
    ExpectMatchesReference(ops, deep, table, "seed " + std::to_string(seed));
  }
}

// Two ids interleaved over 2000 announcements: each id's group crosses the
// split boundary (795 prefixes fill a message under either set), so an op
// must find its id's newest group with the other id's groups in between.
TEST(PackUpdates, LargeGroupsSplitLikeTheReference) {
  AttrTable table;
  obs::ProvenanceContext prov;
  PathAttributes a;
  a.as_path = AsPath::Sequence({701});
  a.next_hop = IPv4Address(10, 0, 0, 1);
  PathAttributes b = a;
  b.as_path = AsPath::Sequence({1239, 701});
  std::vector<RouteOp> ops;
  std::vector<DeepOp> deep;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    const PathAttributes& attrs = (i % 2 == 0) ? b : a;
    const obs::CauseTag cause =
        prov.Allocate(obs::CauseKind::kPathChange, TimePoint::Origin());
    ops.push_back(RouteOp{Slash24(i), table.Intern(attrs), false, cause});
    deep.push_back(DeepOp{Slash24(i), attrs, cause});
  }
  const WireBatch batch = Pack(ops, table);
  ASSERT_EQ(batch.msgs.size(), 4u);
  for (std::size_t m = 0; m < 4; ++m) {
    EXPECT_EQ(batch.msgs[m].nlri.size(), m < 2 ? 795u : 205u);
    EXPECT_EQ(batch.msgs[m].attributes, m % 2 == 0 ? b : a);
  }
  ExpectMatchesReference(ops, deep, table, "two ids");
}

// Hundreds of distinct ids in one batch, with withdrawals mixed in: the
// open-group index must keep every id's group apart.
TEST(PackUpdates, HundredsOfDistinctIdsMatchTheReference) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    AttrTable table;
    obs::ProvenanceContext prov;
    std::vector<PathAttributes> palette;
    for (int i = 0; i < 400; ++i) {
      PathAttributes attrs = RandomPackerAttributes(rng);
      attrs.med = static_cast<std::uint32_t>(i);  // all distinct
      palette.push_back(std::move(attrs));
    }
    std::vector<RouteOp> ops;
    std::vector<DeepOp> deep;
    for (std::uint32_t i = 0; i < 3000; ++i) {
      const obs::CauseTag cause =
          prov.Allocate(obs::CauseKind::kCustomerFlap, TimePoint::Origin());
      if (rng.Bernoulli(0.2)) {
        ops.push_back(RouteOp{Slash24(i), kInvalidAttrSetId, false, cause});
        deep.push_back(DeepOp{Slash24(i), std::nullopt, cause});
      } else {
        const PathAttributes& attrs = palette[rng.Below(palette.size())];
        ops.push_back(RouteOp{Slash24(i), table.Intern(attrs), false, cause});
        deep.push_back(DeepOp{Slash24(i), attrs, cause});
      }
    }
    ExpectMatchesReference(ops, deep, table, "seed " + std::to_string(seed));
  }
}

// The worst case for EstimateUpdateSize, which undercounts a set carrying
// every optional attribute with extended-length AS_PATH and COMMUNITY: the
// 64-byte margin still keeps every packed message within kMaxMessageSize,
// and each message is one exact-size allocation.
TEST(PackUpdates, WorstCaseSetsStayWithinMaxMessageSize) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    AttrTable table;
    std::vector<AttrSetId> ids;
    for (int i = 0; i < 4; ++i) {
      PathAttributes attrs;
      std::vector<Asn> path;
      const std::size_t len = 130 + rng.Below(120);  // > 255 bytes
      for (std::size_t k = 0; k < len; ++k) {
        path.push_back(static_cast<Asn>(1 + rng.Below(kMaxAsn)));
      }
      attrs.as_path = AsPath::Sequence(std::move(path));
      attrs.next_hop = IPv4Address(192, 41, 177, static_cast<std::uint8_t>(i));
      attrs.med = static_cast<std::uint32_t>(rng.Next());
      attrs.local_pref = static_cast<std::uint32_t>(rng.Next());
      attrs.atomic_aggregate = true;
      attrs.aggregator = Aggregator{static_cast<Asn>(1 + rng.Below(kMaxAsn)),
                                    IPv4Address(10, 0, 0, 1)};
      const std::size_t communities = 64 + rng.Below(64);  // > 255 bytes
      for (std::size_t k = 0; k < communities; ++k) {
        attrs.communities.push_back(static_cast<Community>(rng.Next()));
      }
      std::sort(attrs.communities.begin(), attrs.communities.end());
      ids.push_back(table.Intern(attrs));
      // The estimate undercounts this set: the margin is what holds.
      ASSERT_GT(EncodedSize(table.Get(ids.back())),
                EstimateAttributesSize(table.Get(ids.back())));
    }
    std::vector<RouteOp> ops;
    for (std::uint32_t i = 0; i < 2500; ++i) {
      const auto length = static_cast<std::uint8_t>(rng.Range(8, 32));
      const Prefix prefix(IPv4Address(static_cast<std::uint32_t>(rng.Next())),
                          length);
      const AttrSetId id =
          rng.Bernoulli(0.3) ? kInvalidAttrSetId : ids[rng.Below(ids.size())];
      ops.push_back(RouteOp{prefix, id});
    }
    UpdatePacker packer;
    std::size_t prefixes = 0;
    for (const UpdatePacker::Packed& m : packer.Pack(ops, table)) {
      const std::vector<std::uint8_t> wire = packer.Wire(m, table);
      EXPECT_LE(wire.size(), kMaxMessageSize) << "seed " << seed;
      EXPECT_EQ(wire.capacity(), wire.size()) << "seed " << seed;
      ASSERT_TRUE(Decode(wire).has_value()) << "seed " << seed;
      prefixes += m.count;
    }
    EXPECT_EQ(prefixes, ops.size());
  }
}

}  // namespace
}  // namespace iri::bgp
