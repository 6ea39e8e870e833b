// Randomized model-check of the Rib against a straightforward reference
// implementation: after any sequence of announce/withdraw/clear operations,
// the RIB's best route must equal SelectBest over the reference's candidate
// set, and the reported change flags must be consistent.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_map>

#include "bgp/rib.h"
#include "netbase/rng.h"

namespace iri::bgp {
namespace {

class RibModelCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RibModelCheck, MatchesReferenceUnderRandomOps) {
  Rng rng(GetParam());
  Rib rib;
  constexpr int kPeers = 6;
  for (PeerId p = 0; p < kPeers; ++p) {
    rib.AddPeer(p, IPv4Address(10, 0, 0, static_cast<std::uint8_t>(p + 1)));
  }

  // Reference: prefix -> peer -> attributes.
  std::map<Prefix, std::map<PeerId, PathAttributes>> model;

  struct RefBest {
    PeerId peer;
    PathAttributes attributes;
  };
  // SelectBest over the model's routes for `prefix` from the peers in
  // `order`. MED is comparable only between routes from one neighbour AS,
  // so the decision ladder is not transitive and the winner can depend on
  // candidate order.
  auto reference_best_in =
      [&model](const Prefix& prefix,
               const std::vector<PeerId>& order) -> std::optional<RefBest> {
    auto it = model.find(prefix);
    if (it == model.end()) return std::nullopt;
    std::vector<Candidate> candidates;
    std::vector<const PathAttributes*> attrs_of;  // parallel to candidates
    for (const PeerId peer : order) {
      auto route = it->second.find(peer);
      if (route == it->second.end()) continue;
      candidates.push_back(
          {peer, IPv4Address(10, 0, 0, static_cast<std::uint8_t>(peer + 1)),
           kInvalidAttrSetId, DecisionFields::Of(route->second)});
      attrs_of.push_back(&route->second);
    }
    if (candidates.empty()) return std::nullopt;
    const auto best = static_cast<std::size_t>(SelectBest(candidates));
    return RefBest{candidates[best].peer, *attrs_of[best]};
  };
  // The RIB's own candidate order for `prefix`, then any model route the
  // RIB lost (it still competes, last). Every check picks the reference
  // best in this order: a fixed order (peer id, say) can crown a different
  // winner than a correct RIB does.
  auto rib_order = [&](const Prefix& prefix) {
    std::vector<PeerId> order;
    for (const Candidate& c : rib.CandidatesFor(prefix)) {
      order.push_back(c.peer);
    }
    if (auto it = model.find(prefix); it != model.end()) {
      for (const auto& [q, attrs] : it->second) {
        if (std::find(order.begin(), order.end(), q) == order.end()) {
          order.push_back(q);
        }
      }
    }
    return order;
  };
  auto reference_best = [&](const Prefix& prefix) {
    return reference_best_in(prefix, rib_order(prefix));
  };

  auto random_prefix = [&rng] {
    return Prefix(IPv4Address((10u << 24) |
                              (static_cast<std::uint32_t>(rng.Below(24)) << 8)),
                  24);
  };
  auto random_attrs = [&rng] {
    PathAttributes a;
    std::vector<Asn> path;
    const int len = 1 + static_cast<int>(rng.Below(3));
    for (int i = 0; i < len; ++i) {
      path.push_back(static_cast<Asn>(100 + rng.Below(6)));
    }
    a.as_path = AsPath::Sequence(std::move(path));
    a.next_hop = IPv4Address(static_cast<std::uint32_t>(rng.Below(4) + 1));
    if (rng.Bernoulli(0.3)) a.med = static_cast<std::uint32_t>(rng.Below(10));
    return a;
  };

  for (int step = 0; step < 3000; ++step) {
    const auto peer = static_cast<PeerId>(rng.Below(kPeers));
    const Prefix prefix = random_prefix();
    const auto before = reference_best(prefix);

    switch (rng.Below(5)) {
      case 0:
      case 1:
      case 2: {  // announce
        Route route{prefix, random_attrs()};
        const RibChange change = rib.Announce(peer, route);
        model[prefix][peer] = route.attributes;
        const auto after = reference_best(prefix);
        ASSERT_TRUE(after.has_value());
        EXPECT_EQ(change.best_changed,
                  !before.has_value() || before->peer != after->peer ||
                      !(before->attributes == after->attributes));
        break;
      }
      case 3: {  // withdraw
        const RibChange change = rib.Withdraw(peer, prefix);
        auto it = model.find(prefix);
        if (it != model.end()) {
          it->second.erase(peer);
          if (it->second.empty()) model.erase(it);
        }
        const auto after = reference_best(prefix);
        const bool expect_change =
            before.has_value() != after.has_value() ||
            (before && after &&
             (before->peer != after->peer ||
              !(before->attributes == after->attributes)));
        EXPECT_EQ(change.best_changed, expect_change);
        // A withdrawal of a prefix no op announces (the upper half of a
        // random /24), by a minted slot as a stateless router sprays one:
        // a tombstone between the live slots that the full-state checks
        // below must never see.
        const Prefix never(IPv4Address((10u << 24) |
                                       (static_cast<std::uint32_t>(
                                            rng.Below(24)) << 8) |
                                       128),
                           25);
        const RibChange spray = rib.Withdraw(peer, rib.Slot(never));
        EXPECT_FALSE(spray.best_changed);
        EXPECT_EQ(spray.new_best, nullptr);
        EXPECT_EQ(rib.PrefixOf(spray.slot), never);
        break;
      }
      default: {  // session loss
        // The candidate orders from before the clear (the clear keeps the
        // survivors' relative order).
        std::map<Prefix, std::vector<PeerId>> orders;
        for (const auto& [p, peers] : model) orders[p] = rib_order(p);
        std::vector<Prefix> cleared;
        for (const PrefixSlot slot : rib.ClearPeer(peer)) {
          cleared.push_back(rib.PrefixOf(slot));
        }
        // Exactly the prefixes whose best changed, in ascending address
        // order (std::map order): that order reaches the wire.
        std::vector<Prefix> want_cleared;
        for (auto it = model.begin(); it != model.end();) {
          const std::vector<PeerId>& order = orders[it->first];
          const auto was = reference_best_in(it->first, order);
          it->second.erase(peer);
          const auto now = reference_best_in(it->first, order);
          if (was.has_value() != now.has_value() ||
              (was && now &&
               (was->peer != now->peer ||
                !(was->attributes == now->attributes)))) {
            want_cleared.push_back(it->first);
          }
          it = it->second.empty() ? model.erase(it) : std::next(it);
        }
        EXPECT_EQ(cleared, want_cleared) << "step " << step;
        break;
      }
    }

    // Full-state cross-check every 100 steps (cheap enough at this size).
    if (step % 100 == 99) {
      std::size_t model_routes = 0;
      for (const auto& [p, peers] : model) {
        model_routes += peers.size();
        const Candidate* got = rib.Best(p);
        const auto want = reference_best(p);
        ASSERT_NE(got, nullptr) << p.ToString();
        ASSERT_TRUE(want.has_value());
        EXPECT_EQ(got->peer, want->peer) << p.ToString();
        EXPECT_EQ(rib.AttributesOf(*got), want->attributes);
      }
      EXPECT_EQ(rib.NumPrefixes(), model.size());
      EXPECT_EQ(rib.NumRoutes(), model_routes);
      // The Loc-RIB walk visits exactly the model's prefixes in std::map
      // order.
      std::vector<Prefix> visited;
      rib.VisitBest([&visited](const Prefix& p, const Candidate&, PrefixSlot) {
        visited.push_back(p);
      });
      std::vector<Prefix> want_visited;
      for (const auto& [p, peers] : model) want_visited.push_back(p);
      EXPECT_EQ(visited, want_visited);
      ASSERT_TRUE(rib.AuditInvariants());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RibModelCheck,
                         ::testing::Range<std::uint64_t>(1, 101));

// Invariant: per-peer route counts always sum to NumRoutes.
class RibCountInvariant : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RibCountInvariant, CountsAlwaysConsistent) {
  Rng rng(GetParam());
  Rib rib;
  constexpr int kPeers = 4;
  for (PeerId p = 0; p < kPeers; ++p) {
    rib.AddPeer(p, IPv4Address(1, 1, 1, static_cast<std::uint8_t>(p + 1)));
  }
  for (int step = 0; step < 2000; ++step) {
    const auto peer = static_cast<PeerId>(rng.Below(kPeers));
    const Prefix prefix(
        IPv4Address((172u << 24) |
                    (static_cast<std::uint32_t>(rng.Below(40)) << 8)),
        24);
    if (rng.Bernoulli(0.6)) {
      Route r{prefix, {}};
      r.attributes.as_path = AsPath::Sequence({static_cast<Asn>(peer + 1)});
      rib.Announce(peer, r);
    } else {
      rib.Withdraw(peer, prefix);
    }
    std::size_t sum = 0;
    for (PeerId p = 0; p < kPeers; ++p) sum += rib.PeerRouteCount(p);
    ASSERT_EQ(sum, rib.NumRoutes());
  }
  ASSERT_TRUE(rib.AuditInvariants());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RibCountInvariant, ::testing::Values(7, 8, 9));

// Invariant: every candidate names an id of the Rib's own attribute table
// and caches exactly that set's decision fields, across replacements that
// change only a decision field (LOCAL_PREF, MED, ORIGIN), replacements that
// change none, withdrawals and session clears.
class RibAttrIdAudit : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RibAttrIdAudit, CandidatesMatchTheAttributeTable) {
  Rng rng(GetParam());
  Rib rib;
  constexpr int kPeers = 4;
  for (PeerId p = 0; p < kPeers; ++p) {
    rib.AddPeer(p, IPv4Address(1, 1, 1, static_cast<std::uint8_t>(p + 1)));
  }
  for (int step = 0; step < 1500; ++step) {
    const auto peer = static_cast<PeerId>(rng.Below(kPeers));
    const Prefix prefix(
        IPv4Address((172u << 24) |
                    (static_cast<std::uint32_t>(rng.Below(8)) << 8)),
        24);
    const std::uint64_t op = rng.Below(10);
    if (op < 7) {
      PathAttributes attrs;
      attrs.as_path = AsPath::Sequence({static_cast<Asn>(100 + rng.Below(3))});
      if (rng.Bernoulli(0.5)) {
        attrs.local_pref = static_cast<std::uint32_t>(90 + 10 * rng.Below(3));
      }
      if (rng.Bernoulli(0.5)) attrs.med = static_cast<std::uint32_t>(rng.Below(3));
      attrs.origin = static_cast<Origin>(rng.Below(3));
      const RibChange change = rib.Announce(peer, rib.Slot(prefix),
                                           rib.attrs().Intern(attrs));
      ASSERT_NE(change.new_best, nullptr);
      EXPECT_EQ(change.new_best->decision,
                DecisionFields::Of(rib.AttributesOf(*change.new_best)));
    } else if (op < 9) {
      rib.Withdraw(peer, prefix);
    } else {
      rib.ClearPeer(peer);
    }
    ASSERT_TRUE(rib.AuditInvariants()) << "step " << step;
  }
  EXPECT_GT(rib.attrs().size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RibAttrIdAudit, ::testing::Values(3, 4, 5));

}  // namespace
}  // namespace iri::bgp
