#include "bgp/rib.h"

#include <gtest/gtest.h>

#include "netbase/radix_trie.h"

namespace iri::bgp {
namespace {

Prefix P(const std::string& s) { return *Prefix::Parse(s); }

Route R(const std::string& prefix, std::vector<Asn> path,
        std::uint32_t next_hop_octet = 1) {
  Route r;
  r.prefix = P(prefix);
  r.attributes.as_path = AsPath::Sequence(std::move(path));
  r.attributes.next_hop = IPv4Address(10, 0, 0, static_cast<std::uint8_t>(next_hop_octet));
  return r;
}

class RibTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rib.AddPeer(1, IPv4Address(1, 1, 1, 1));
    rib.AddPeer(2, IPv4Address(2, 2, 2, 2));
    rib.AddPeer(3, IPv4Address(3, 3, 3, 3));
  }
  Rib rib;
};

TEST_F(RibTest, AnnounceInstallsBest) {
  auto change = rib.Announce(1, R("10.0.0.0/8", {701}));
  EXPECT_TRUE(change.best_changed);
  ASSERT_NE(change.new_best, nullptr);
  EXPECT_EQ(change.new_best->peer, 1u);
  EXPECT_EQ(rib.NumPrefixes(), 1u);
  EXPECT_EQ(rib.NumRoutes(), 1u);
}

TEST_F(RibTest, SecondWorsePathDoesNotChangeBest) {
  rib.Announce(1, R("10.0.0.0/8", {701}));
  auto change = rib.Announce(2, R("10.0.0.0/8", {1239, 3561}));
  EXPECT_FALSE(change.best_changed);
  EXPECT_EQ(rib.Best(P("10.0.0.0/8"))->peer, 1u);
  EXPECT_EQ(rib.NumRoutes(), 2u);
  EXPECT_EQ(rib.NumPrefixes(), 1u);
}

TEST_F(RibTest, BetterPathTakesOver) {
  rib.Announce(1, R("10.0.0.0/8", {701, 1239}));
  auto change = rib.Announce(2, R("10.0.0.0/8", {3561}));
  EXPECT_TRUE(change.best_changed);
  EXPECT_EQ(change.new_best->peer, 2u);
}

TEST_F(RibTest, ImplicitWithdrawalReplacesSameePeerRoute) {
  rib.Announce(1, R("10.0.0.0/8", {701}));
  auto change = rib.Announce(1, R("10.0.0.0/8", {701, 1239}));
  EXPECT_TRUE(change.best_changed);  // same peer, different attributes
  EXPECT_EQ(rib.NumRoutes(), 1u);   // replaced, not added
  EXPECT_EQ(rib.CandidatesFor(P("10.0.0.0/8")).size(), 1u);
}

TEST_F(RibTest, IdenticalReannouncementIsNotAChange) {
  rib.Announce(1, R("10.0.0.0/8", {701}));
  auto change = rib.Announce(1, R("10.0.0.0/8", {701}));
  EXPECT_FALSE(change.best_changed);
}

TEST_F(RibTest, WithdrawBestFailsOverToAlternate) {
  rib.Announce(1, R("10.0.0.0/8", {701}));
  rib.Announce(2, R("10.0.0.0/8", {1239, 3561}));
  auto change = rib.Withdraw(1, P("10.0.0.0/8"));
  EXPECT_TRUE(change.best_changed);
  ASSERT_NE(change.new_best, nullptr);
  EXPECT_EQ(change.new_best->peer, 2u);
}

TEST_F(RibTest, WithdrawNonBestIsSilent) {
  rib.Announce(1, R("10.0.0.0/8", {701}));
  rib.Announce(2, R("10.0.0.0/8", {1239, 3561}));
  auto change = rib.Withdraw(2, P("10.0.0.0/8"));
  EXPECT_FALSE(change.best_changed);
  EXPECT_EQ(rib.Best(P("10.0.0.0/8"))->peer, 1u);
}

TEST_F(RibTest, WithdrawOfNonBestCanMoveBestUnderMed) {
  // MED compares only routes from one neighbour AS, so the ladder is not
  // transitive: B beats A on MED, C beats B on router id, A beats C on
  // router id. With all three the scan picks C; without B it picks A.
  Route a = R("10.0.0.0/8", {701});
  a.attributes.med = 10;
  Route b = R("10.0.0.0/8", {701});
  b.attributes.med = 5;
  Route c = R("10.0.0.0/8", {1239});
  rib.Announce(1, a);  // router id 1.1.1.1
  rib.Announce(3, b);  // router id 3.3.3.3
  rib.Announce(2, c);  // router id 2.2.2.2
  ASSERT_EQ(rib.Best(P("10.0.0.0/8"))->peer, 2u);
  auto change = rib.Withdraw(3, P("10.0.0.0/8"));
  EXPECT_TRUE(change.best_changed);
  ASSERT_NE(change.new_best, nullptr);
  EXPECT_EQ(change.new_best->peer, 1u);
  EXPECT_EQ(rib.Best(P("10.0.0.0/8"))->peer, 1u);
}

TEST_F(RibTest, WithdrawLastRouteEmptiesPrefix) {
  rib.Announce(1, R("10.0.0.0/8", {701}));
  auto change = rib.Withdraw(1, P("10.0.0.0/8"));
  EXPECT_TRUE(change.best_changed);
  EXPECT_EQ(change.new_best, nullptr);
  EXPECT_EQ(rib.NumPrefixes(), 0u);
  EXPECT_EQ(rib.Best(P("10.0.0.0/8")), nullptr);
}

TEST_F(RibTest, PathologicalWithdrawalIsNoOp) {
  // A WWDup at the receiving router: withdrawal for a route never held.
  auto change = rib.Withdraw(1, P("192.42.113.0/24"));
  EXPECT_FALSE(change.best_changed);
  rib.Announce(2, R("192.42.113.0/24", {9}));
  // Withdrawal from a peer that never announced it: also a no-op, and it
  // still reports the prefix's standing best.
  change = rib.Withdraw(1, P("192.42.113.0/24"));
  EXPECT_FALSE(change.best_changed);
  ASSERT_NE(change.new_best, nullptr);
  EXPECT_EQ(change.new_best->peer, 2u);
  EXPECT_EQ(change.new_best, rib.Best(P("192.42.113.0/24")));
  EXPECT_EQ(rib.Best(P("192.42.113.0/24"))->peer, 2u);
}

TEST_F(RibTest, ClearPeerWithdrawsEverything) {
  rib.Announce(1, R("10.0.0.0/8", {701}));
  rib.Announce(1, R("11.0.0.0/8", {701}));
  rib.Announce(2, R("10.0.0.0/8", {1239, 9}));
  auto changes = rib.ClearPeer(1);
  // 10/8 fails over (change), 11/8 disappears (change), in address order.
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_EQ(rib.PrefixOf(changes[0]), P("10.0.0.0/8"));
  EXPECT_EQ(rib.PrefixOf(changes[1]), P("11.0.0.0/8"));
  EXPECT_EQ(rib.PeerRouteCount(1), 0u);
  EXPECT_EQ(rib.Best(P("10.0.0.0/8"))->peer, 2u);
  EXPECT_EQ(rib.Best(P("11.0.0.0/8")), nullptr);
}

TEST_F(RibTest, ClearPeerReportsOnlyBestChanges) {
  rib.Announce(1, R("10.0.0.0/8", {701}));
  rib.Announce(2, R("10.0.0.0/8", {1239}));  // peer 2 loses the tie (id)
  ASSERT_EQ(rib.Best(P("10.0.0.0/8"))->peer, 1u);
  auto changes = rib.ClearPeer(2);
  EXPECT_TRUE(changes.empty());
}

TEST_F(RibTest, PeerRouteCountTracksState) {
  rib.Announce(1, R("10.0.0.0/8", {701}));
  rib.Announce(1, R("11.0.0.0/8", {701}));
  EXPECT_EQ(rib.PeerRouteCount(1), 2u);
  rib.Withdraw(1, P("10.0.0.0/8"));
  EXPECT_EQ(rib.PeerRouteCount(1), 1u);
  // Locally originated routes are counted apart from the peer ids.
  rib.AddPeer(kLocalPeer, IPv4Address(0));
  rib.Announce(kLocalPeer, R("11.0.0.0/8", {}));
  EXPECT_EQ(rib.PeerRouteCount(kLocalPeer), 1u);
  EXPECT_EQ(rib.PeerRouteCount(1), 1u);
  EXPECT_TRUE(rib.AuditInvariants());
  rib.ClearPeer(kLocalPeer);
  EXPECT_EQ(rib.PeerRouteCount(kLocalPeer), 0u);
  EXPECT_EQ(rib.NumRoutes(), 1u);
}

TEST_F(RibTest, AnnounceFromAnUnregisteredPeerFailsTheCheck) {
  // Registered ids are 1..3: id 0 is inside the table but never added,
  // 99 is past it, and the fixture never registers kLocalPeer.
  EXPECT_DEATH(rib.Announce(0, R("10.0.0.0/8", {701})), "never registered");
  EXPECT_DEATH(rib.Announce(99, R("10.0.0.0/8", {701})), "never registered");
  EXPECT_DEATH(rib.Announce(kLocalPeer, R("10.0.0.0/8", {})),
               "never registered");
}

TEST_F(RibTest, VisitBestIsAddressOrdered) {
  // Nested and sibling prefixes announced out of order: the Loc-RIB walk
  // must be exactly a radix trie's pre-order (covering prefix, then its
  // lower half, then its upper half).
  const char* prefixes[] = {"10.128.0.0/9", "192.0.0.0/8", "10.0.0.0/24",
                            "0.0.0.0/0",    "10.0.0.0/8",  "10.0.0.0/9",
                            "10.0.0.0/16",  "9.0.0.0/8",   "10.0.1.0/24"};
  RadixTrie<int> trie;
  for (const char* s : prefixes) {
    rib.Announce(1, R(s, {701}));
    trie.Insert(P(s), 0);
  }
  rib.Withdraw(1, P("10.0.0.0/9"));  // a tombstone is skipped
  trie.Erase(P("10.0.0.0/9"));
  std::vector<Prefix> want;
  trie.Visit([&want](const Prefix& p, int) { want.push_back(p); });
  std::vector<Prefix> got;
  rib.VisitBest([&got](const Prefix& p, const Candidate&, PrefixSlot) {
    got.push_back(p);
  });
  EXPECT_EQ(got, want);
  rib.Announce(1, R("10.0.0.0/9", {701}));  // tombstone revived in place
  trie.Insert(P("10.0.0.0/9"), 0);
  want.clear();
  trie.Visit([&want](const Prefix& p, int) { want.push_back(p); });
  got.clear();
  rib.VisitPathCounts([&got](const Prefix& p, std::size_t) {
    got.push_back(p);
  });
  EXPECT_EQ(got, want);
  EXPECT_TRUE(rib.AuditInvariants());
}

TEST_F(RibTest, VisitPathCountsForMultihomingCensus) {
  rib.Announce(1, R("10.0.0.0/8", {701}));
  rib.Announce(2, R("10.0.0.0/8", {1239}));
  rib.Announce(3, R("10.0.0.0/8", {3561}));
  rib.Announce(1, R("11.0.0.0/8", {701}));
  std::size_t multihomed = 0;
  rib.VisitPathCounts([&multihomed](const Prefix&, std::size_t paths) {
    if (paths > 1) ++multihomed;
  });
  EXPECT_EQ(multihomed, 1u);
}

// A slot minted for a prefix that was never announced (a stateless router
// mints one for a prefix it only withdraws or sprays) is a tombstone:
// nothing that reads the table sees it, and the first announcement reuses
// it. A withdrawal by prefix mints nothing.
TEST_F(RibTest, MintedSlotOfANeverAnnouncedPrefixIsATombstone) {
  rib.Announce(1, R("10.0.0.0/8", {701}));
  const RibChange unseen = rib.Withdraw(2, P("8.0.0.0/8"));
  EXPECT_FALSE(unseen.best_changed);
  EXPECT_EQ(unseen.new_best, nullptr);
  EXPECT_EQ(unseen.slot, kNoSlot);
  EXPECT_EQ(rib.FindSlot(P("8.0.0.0/8")), kNoSlot);
  EXPECT_EQ(rib.Best(kNoSlot), nullptr);

  const PrefixSlot minted = rib.Slot(P("9.0.0.0/8"));
  EXPECT_EQ(rib.PrefixOf(minted), P("9.0.0.0/8"));
  EXPECT_EQ(rib.FindSlot(P("9.0.0.0/8")), minted);
  EXPECT_EQ(rib.Slot(P("9.0.0.0/8")), minted);
  const RibChange spray = rib.Withdraw(2, minted);
  EXPECT_FALSE(spray.best_changed);
  EXPECT_EQ(spray.new_best, nullptr);
  EXPECT_EQ(spray.slot, minted);
  EXPECT_EQ(rib.Best(minted), nullptr);

  const PrefixSlot held = rib.Announce(2, R("12.0.0.0/8", {1239})).slot;
  EXPECT_EQ(rib.NumPrefixes(), 2u);
  std::vector<Prefix> got;
  rib.VisitBest([&got](const Prefix& p, const Candidate&, PrefixSlot) {
    got.push_back(p);
  });
  rib.VisitPathCounts([&got](const Prefix& p, std::size_t) {
    got.push_back(p);
  });
  EXPECT_EQ(got, (std::vector<Prefix>{P("10.0.0.0/8"), P("12.0.0.0/8"),
                                      P("10.0.0.0/8"), P("12.0.0.0/8")}));
  EXPECT_TRUE(rib.AuditInvariants());
  // The walk passes the tombstone (first in address order) before 12/8.
  EXPECT_EQ(rib.ClearPeer(2), std::vector<PrefixSlot>{held});
  EXPECT_EQ(rib.NumPrefixes(), 1u);
  EXPECT_TRUE(rib.AuditInvariants());

  const RibChange revived = rib.Announce(2, R("9.0.0.0/8", {1239}));
  EXPECT_TRUE(revived.best_changed);
  EXPECT_EQ(revived.slot, minted);
  EXPECT_EQ(rib.Best(minted), revived.new_best);
  EXPECT_EQ(rib.NumPrefixes(), 2u);
  const std::vector<PrefixSlot> cleared = rib.ClearPeer(2);
  EXPECT_EQ(cleared, std::vector<PrefixSlot>{minted});
  EXPECT_EQ(rib.NumPrefixes(), 1u);
  EXPECT_TRUE(rib.AuditInvariants());
}

TEST_F(RibTest, AttributeOnlyChangeIsBestChange) {
  rib.Announce(1, R("10.0.0.0/8", {701}));
  Route r = R("10.0.0.0/8", {701});
  r.attributes.med = 30;  // policy-relevant change, same forwarding tuple
  auto change = rib.Announce(1, r);
  EXPECT_TRUE(change.best_changed);
}

}  // namespace
}  // namespace iri::bgp
