#include "bgp/policy.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace iri::bgp {
namespace {

constexpr Community kTag = (65000u << 16) | 7;

PathAttributes MakeAttrs(std::vector<Asn> path,
                         std::vector<Community> communities = {}) {
  PathAttributes a;
  a.as_path = AsPath::Sequence(std::move(path));
  a.communities = std::move(communities);
  std::sort(a.communities.begin(), a.communities.end());
  return a;
}

TEST(Policy, AcceptAllPassesUnmodified) {
  const auto policy = Policy::AcceptAll();
  EXPECT_TRUE(policy.IsIdentity());
  const PathAttributes in = MakeAttrs({701}, {kTag});
  PathAttributes out = in;
  EXPECT_TRUE(policy.Apply(out));
  EXPECT_EQ(out, in);
}

TEST(Policy, DenyAllDropsEverything) {
  const auto policy = Policy::DenyAll();
  EXPECT_FALSE(policy.IsIdentity());
  PathAttributes a = MakeAttrs({701});
  EXPECT_FALSE(policy.Apply(a));
}

TEST(Policy, FirstMatchWins) {
  auto policy = Policy::AcceptAll();
  PolicyRule deny;
  deny.match.has_community = kTag;
  deny.action.deny = true;
  policy.Add(deny);
  PolicyRule prefer;  // would match too, but comes later
  prefer.match.has_community = kTag;
  prefer.action.set_local_pref = 200;
  policy.Add(prefer);
  EXPECT_FALSE(policy.IsIdentity());

  PathAttributes tagged = MakeAttrs({701}, {kTag});
  EXPECT_FALSE(policy.Apply(tagged));
  PathAttributes plain = MakeAttrs({701});
  EXPECT_TRUE(policy.Apply(plain));
  EXPECT_FALSE(plain.local_pref.has_value());
}

TEST(Policy, NeighborAsMatch) {
  auto policy = Policy::DenyAll();
  PolicyRule rule;
  rule.match.neighbor_as = 701;
  policy.Add(rule);
  PathAttributes via_701 = MakeAttrs({701, 1239, 9});
  EXPECT_TRUE(policy.Apply(via_701));
  PathAttributes ends_in_701 = MakeAttrs({1239, 701});
  EXPECT_FALSE(policy.Apply(ends_in_701));
}

TEST(Policy, CommunityMatch) {
  auto policy = Policy::DenyAll();
  PolicyRule rule;
  rule.match.has_community = kTag;
  policy.Add(rule);
  PathAttributes tagged = MakeAttrs({9}, {1, kTag});
  EXPECT_TRUE(policy.Apply(tagged));
  PathAttributes plain = MakeAttrs({9}, {1});
  EXPECT_FALSE(policy.Apply(plain));
}

TEST(Policy, MatchersAreAConjunction) {
  auto policy = Policy::DenyAll();
  PolicyRule rule;
  rule.match.neighbor_as = 701;
  rule.match.has_community = kTag;
  policy.Add(rule);
  PathAttributes both = MakeAttrs({701, 9}, {kTag});
  EXPECT_TRUE(policy.Apply(both));
  PathAttributes neighbor_only = MakeAttrs({701, 9});
  EXPECT_FALSE(policy.Apply(neighbor_only));
  PathAttributes community_only = MakeAttrs({1239, 9}, {kTag});
  EXPECT_FALSE(policy.Apply(community_only));
}

TEST(Policy, SetLocalPref) {
  auto policy = Policy::AcceptAll();
  PolicyRule rule;
  rule.match.neighbor_as = 701;
  rule.action.set_local_pref = 250;
  policy.Add(rule);
  PathAttributes a = MakeAttrs({701, 9});
  EXPECT_TRUE(policy.Apply(a));
  EXPECT_EQ(a.local_pref, 250u);
}

TEST(Policy, StripCommunities) {
  auto policy = Policy::AcceptAll();
  PolicyRule rule;
  rule.action.strip_communities = true;
  policy.Add(rule);
  PathAttributes a = MakeAttrs({9}, {1, 2, 3});
  EXPECT_TRUE(policy.Apply(a));
  EXPECT_TRUE(a.communities.empty());
}

TEST(Policy, DenyLeavesAttributesUnmodified) {
  auto policy = Policy::AcceptAll();
  PolicyRule rule;
  rule.match.has_community = kTag;
  rule.action.deny = true;
  rule.action.set_local_pref = 9;  // never runs: deny short-circuits
  rule.action.strip_communities = true;
  policy.Add(rule);
  const PathAttributes in = MakeAttrs({9}, {kTag});
  PathAttributes out = in;
  EXPECT_FALSE(policy.Apply(out));
  EXPECT_EQ(out, in);
}

}  // namespace
}  // namespace iri::bgp
