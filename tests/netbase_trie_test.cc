#include "netbase/radix_trie.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "netbase/rng.h"

namespace iri {
namespace {

Prefix P(const std::string& s) { return *Prefix::Parse(s); }

TEST(RadixTrie, InsertFindErase) {
  RadixTrie<int> trie;
  EXPECT_TRUE(trie.Insert(P("10.0.0.0/8"), 1));
  EXPECT_TRUE(trie.Insert(P("10.1.0.0/16"), 2));
  EXPECT_FALSE(trie.Insert(P("10.0.0.0/8"), 3));  // overwrite
  EXPECT_EQ(trie.size(), 2u);
  EXPECT_EQ(*trie.Find(P("10.0.0.0/8")), 3);
  EXPECT_EQ(*trie.Find(P("10.1.0.0/16")), 2);
  EXPECT_EQ(trie.Find(P("10.2.0.0/16")), nullptr);
  EXPECT_TRUE(trie.Erase(P("10.0.0.0/8")));
  EXPECT_FALSE(trie.Erase(P("10.0.0.0/8")));
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(trie.Find(P("10.0.0.0/8")), nullptr);
}

TEST(RadixTrie, ExactMatchDistinguishesLengths) {
  RadixTrie<int> trie;
  trie.Insert(P("10.0.0.0/8"), 8);
  trie.Insert(P("10.0.0.0/16"), 16);
  trie.Insert(P("10.0.0.0/24"), 24);
  EXPECT_EQ(*trie.Find(P("10.0.0.0/8")), 8);
  EXPECT_EQ(*trie.Find(P("10.0.0.0/16")), 16);
  EXPECT_EQ(*trie.Find(P("10.0.0.0/24")), 24);
  EXPECT_EQ(trie.Find(P("10.0.0.0/12")), nullptr);
}

TEST(RadixTrie, DefaultRoute) {
  RadixTrie<int> trie;
  trie.Insert(P("0.0.0.0/0"), 42);
  auto match = trie.LongestMatch(IPv4Address(203, 0, 113, 9));
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->first, P("0.0.0.0/0"));
  EXPECT_EQ(*match->second, 42);
}

TEST(RadixTrie, LongestMatchPrefersMostSpecific) {
  RadixTrie<int> trie;
  trie.Insert(P("10.0.0.0/8"), 8);
  trie.Insert(P("10.1.0.0/16"), 16);
  trie.Insert(P("10.1.2.0/24"), 24);

  EXPECT_EQ(*trie.LongestMatch(IPv4Address(10, 1, 2, 3))->second, 24);
  EXPECT_EQ(*trie.LongestMatch(IPv4Address(10, 1, 9, 9))->second, 16);
  EXPECT_EQ(*trie.LongestMatch(IPv4Address(10, 9, 9, 9))->second, 8);
  EXPECT_FALSE(trie.LongestMatch(IPv4Address(11, 0, 0, 1)).has_value());
}

TEST(RadixTrie, HostRoutes) {
  RadixTrie<int> trie;
  trie.Insert(P("10.0.0.1/32"), 1);
  EXPECT_EQ(*trie.LongestMatch(IPv4Address(10, 0, 0, 1))->second, 1);
  EXPECT_FALSE(trie.LongestMatch(IPv4Address(10, 0, 0, 2)).has_value());
}

TEST(RadixTrie, VisitInAddressOrder) {
  RadixTrie<int> trie;
  trie.Insert(P("192.0.0.0/8"), 3);
  trie.Insert(P("10.0.0.0/8"), 1);
  trie.Insert(P("10.128.0.0/9"), 2);
  std::vector<Prefix> order;
  trie.Visit([&order](const Prefix& p, const int&) { order.push_back(p); });
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], P("10.0.0.0/8"));
  EXPECT_EQ(order[1], P("10.128.0.0/9"));
  EXPECT_EQ(order[2], P("192.0.0.0/8"));
}

TEST(RadixTrie, ErasePrunesBranches) {
  RadixTrie<int> trie;
  trie.Insert(P("10.1.2.0/24"), 1);
  trie.Erase(P("10.1.2.0/24"));
  // After pruning, nothing under 10/8 remains.
  EXPECT_TRUE(trie.empty());
  int visited = 0;
  trie.Visit([&visited](const Prefix&, const int&) { ++visited; });
  EXPECT_EQ(visited, 0);
}

TEST(RadixTrie, EraseKeepsAncestorsAndDescendants) {
  RadixTrie<int> trie;
  trie.Insert(P("10.0.0.0/8"), 8);
  trie.Insert(P("10.1.0.0/16"), 16);
  trie.Insert(P("10.1.2.0/24"), 24);
  trie.Erase(P("10.1.0.0/16"));
  EXPECT_EQ(*trie.Find(P("10.0.0.0/8")), 8);
  EXPECT_EQ(*trie.Find(P("10.1.2.0/24")), 24);
  EXPECT_EQ(*trie.LongestMatch(IPv4Address(10, 1, 9, 9))->second, 8);
}

TEST(RadixTrie, Clear) {
  RadixTrie<int> trie;
  trie.Insert(P("10.0.0.0/8"), 1);
  trie.Clear();
  EXPECT_TRUE(trie.empty());
  EXPECT_EQ(trie.Find(P("10.0.0.0/8")), nullptr);
}

TEST(RadixTrie, MoveSemantics) {
  RadixTrie<std::string> trie;
  trie.Insert(P("10.0.0.0/8"), "a");
  RadixTrie<std::string> moved = std::move(trie);
  EXPECT_EQ(*moved.Find(P("10.0.0.0/8")), "a");
}

// Property test: the trie agrees with a std::map reference model across a
// randomized workload of inserts, erases, exact lookups and LPM queries.
class TrieModelCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrieModelCheck, AgreesWithReferenceModel) {
  Rng rng(GetParam());
  RadixTrie<int> trie;
  std::map<Prefix, int> model;

  auto random_prefix = [&rng] {
    const auto len = static_cast<std::uint8_t>(rng.Range(8, 28));
    // Confine to 10.0.0.0/8 to force dense overlap.
    const std::uint32_t addr =
        (10u << 24) | static_cast<std::uint32_t>(rng.Below(1u << 24));
    return Prefix(IPv4Address(addr), len);
  };

  for (int step = 0; step < 4000; ++step) {
    const Prefix p = random_prefix();
    switch (rng.Below(3)) {
      case 0: {
        const int v = static_cast<int>(rng.Below(1000));
        const bool fresh_trie = trie.Insert(p, v);
        const bool fresh_model = model.insert_or_assign(p, v).second;
        EXPECT_EQ(fresh_trie, fresh_model);
        break;
      }
      case 1: {
        EXPECT_EQ(trie.Erase(p), model.erase(p) > 0);
        break;
      }
      default: {
        const int* found = trie.Find(p);
        auto it = model.find(p);
        if (it == model.end()) {
          EXPECT_EQ(found, nullptr);
        } else {
          ASSERT_NE(found, nullptr);
          EXPECT_EQ(*found, it->second);
        }
        break;
      }
    }
    EXPECT_EQ(trie.size(), model.size());
  }

  // Longest-prefix-match cross-check on random addresses.
  for (int q = 0; q < 500; ++q) {
    const IPv4Address addr(
        (10u << 24) | static_cast<std::uint32_t>(rng.Below(1u << 24)));
    auto got = trie.LongestMatch(addr);
    // Reference: scan the model for the longest covering prefix.
    const std::pair<const Prefix, int>* best = nullptr;
    for (const auto& entry : model) {
      if (entry.first.Contains(addr) &&
          (best == nullptr || entry.first.length() > best->first.length())) {
        best = &entry;
      }
    }
    if (best == nullptr) {
      EXPECT_FALSE(got.has_value());
    } else {
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->first, best->first);
      EXPECT_EQ(*got->second, best->second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieModelCheck,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace iri
