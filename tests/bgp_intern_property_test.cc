// Property tests for the hash-consed attribute-set table (bgp/intern.h):
// interning is a bijection between distinct sets and ids, the forwarding id
// partitions sets exactly by PathAttributes::ForwardingEquivalent, id 0 is
// the empty set, and every precomputed decision field agrees with the deep
// computation it replaces. The RIB, packer, Adj-RIB-Out and classifier
// compare ids instead of values, so these properties are what keeps the id
// paths semantically invisible.
#include "bgp/intern.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "bgp/attributes.h"
#include "netbase/rng.h"

namespace iri::bgp {
namespace {

// Random AS path over a deliberately tiny ASN pool so the generator
// produces plenty of exact collisions (the interesting case for interning).
AsPath RandomPath(Rng& rng) {
  std::vector<Asn> asns;
  const std::size_t len = rng.Below(4);  // 0..3 hops
  for (std::size_t i = 0; i < len; ++i) {
    asns.push_back(static_cast<Asn>(701 + rng.Below(5)));
  }
  return AsPath::Sequence(std::move(asns));
}

PathAttributes RandomAttributes(Rng& rng) {
  PathAttributes attrs;
  attrs.as_path = RandomPath(rng);
  attrs.next_hop = IPv4Address(198, 32, 1, static_cast<std::uint8_t>(rng.Below(3)));
  if (rng.Bernoulli(0.5)) attrs.med = static_cast<std::uint32_t>(rng.Below(3));
  if (rng.Bernoulli(0.3)) {
    attrs.local_pref = static_cast<std::uint32_t>(100 + rng.Below(2));
  }
  if (rng.Bernoulli(0.2)) {
    attrs.communities.push_back(
        Community{static_cast<std::uint32_t>(rng.Below(2))});
  }
  return attrs;
}

TEST(AttrTableProperty, EmptySetIsIdZero) {
  AttrTable table;
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table.Get(kEmptyAttrSetId), PathAttributes{});
  EXPECT_EQ(table.Intern(PathAttributes{}), kEmptyAttrSetId);
  EXPECT_EQ(table.Forwarding(kEmptyAttrSetId), 0u);
  // Anything else gets a fresh id; a set forwarding-equivalent to the empty
  // one (no NEXT_HOP, empty AS_PATH) shares its forwarding class.
  PathAttributes med_only;
  med_only.med = 5;
  const AttrSetId id = table.Intern(med_only);
  EXPECT_NE(id, kEmptyAttrSetId);
  EXPECT_TRUE(table.ForwardingEquivalent(id, kEmptyAttrSetId));
  EXPECT_EQ(table.NumForwardingClasses(), 1u);
}

TEST(AttrTableProperty, InternIsBijectionAndMetadataAgrees) {
  Rng rng(20260808);
  AttrTable table;
  std::map<std::string, AttrSetId> seen;  // canonical text -> id
  seen.emplace(PathAttributes{}.ToString(), kEmptyAttrSetId);
  for (int i = 0; i < 2000; ++i) {
    const PathAttributes attrs = RandomAttributes(rng);
    const AttrSetId id = table.Intern(attrs);

    // Same value <=> same id: intern(a) == intern(b) iff a == b.
    auto [it, fresh] = seen.emplace(attrs.ToString(), id);
    EXPECT_EQ(it->second, id) << "same set re-interned to a different id";
    if (fresh) {
      // First sight: ids are dense and insertion-ordered.
      EXPECT_EQ(id, seen.size() - 1);
    }

    // The canonical copy is byte-equal to the input.
    EXPECT_EQ(table.Get(id), attrs);
    // Precomputed decision fields match the deep computation.
    const DecisionFields& d = table.Decision(id);
    EXPECT_EQ(d.local_pref, attrs.local_pref.value_or(kDefaultLocalPref));
    EXPECT_EQ(d.path_length, attrs.as_path.DecisionLength());
    EXPECT_EQ(d.med, attrs.med.value_or(0));
    EXPECT_EQ(d.first_asn, attrs.as_path.FirstAsn());
    EXPECT_EQ(d.origin, attrs.origin);
  }
  EXPECT_EQ(table.size(), seen.size());
  EXPECT_GT(table.size(), 1u);
  EXPECT_LT(table.size(), 2000u) << "generator never collided; pool too big";
}

TEST(AttrTableProperty, IdCompareMatchesDeepCompare) {
  Rng rng(42);
  AttrTable table;
  std::vector<PathAttributes> originals;
  std::vector<AttrSetId> ids;
  for (int i = 0; i < 400; ++i) {
    originals.push_back(RandomAttributes(rng));
    ids.push_back(table.Intern(originals.back()));
    EXPECT_EQ(table.Get(ids.back()), originals.back());
  }
  // Pairwise: id equality <=> deep equality, and forwarding-id equality <=>
  // PathAttributes::ForwardingEquivalent.
  for (std::size_t a = 0; a < ids.size(); ++a) {
    for (std::size_t b = 0; b < ids.size(); ++b) {
      EXPECT_EQ(ids[a] == ids[b], originals[a] == originals[b])
          << "id compare diverged from deep compare at (" << a << "," << b
          << ")";
      EXPECT_EQ(table.Forwarding(ids[a]) == table.Forwarding(ids[b]),
                originals[a].ForwardingEquivalent(originals[b]))
          << "forwarding id compare diverged at (" << a << "," << b << ")";
    }
  }
  EXPECT_LT(table.NumForwardingClasses(), table.size())
      << "generator never produced a policy-only difference";
}

TEST(AttrTableProperty, CanonicalPointersStableAcrossGrowth) {
  Rng rng(7);
  AttrTable table;
  // Grab a reference early, then grow the table by thousands of sets; the
  // Rib and monitor hold ids across the whole run, so Get() must keep
  // returning the same storage.
  const PathAttributes first = RandomAttributes(rng);
  const AttrSetId first_id = table.Intern(first);
  const PathAttributes* first_ptr = &table.Get(first_id);
  for (int i = 0; i < 5000; ++i) {
    PathAttributes attrs = RandomAttributes(rng);
    // Widen the value space so most inserts are fresh.
    attrs.med = static_cast<std::uint32_t>(i);
    table.Intern(attrs);
  }
  EXPECT_EQ(first_ptr, &table.Get(first_id));
  EXPECT_EQ(*first_ptr, first);
}

}  // namespace
}  // namespace iri::bgp
