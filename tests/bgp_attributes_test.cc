#include "bgp/attributes.h"

#include <gtest/gtest.h>

namespace iri::bgp {
namespace {

PathAttributes RoundTrip(const PathAttributes& attrs) {
  ByteWriter w;
  EncodeAttributes(attrs, w);
  ByteReader r(w.data());
  PathAttributes decoded = DecodeAttributes(r, w.size());
  EXPECT_TRUE(r.ok());
  return decoded;
}

TEST(Attributes, MandatoryOnlyRoundTrip) {
  PathAttributes a;
  a.origin = Origin::kEgp;
  a.as_path = AsPath::Sequence({174});
  a.next_hop = IPv4Address(192, 41, 177, 1);
  EXPECT_EQ(RoundTrip(a), a);
}

TEST(Attributes, FullAttributeSetRoundTrip) {
  PathAttributes a;
  a.origin = Origin::kIncomplete;
  a.as_path = AsPath::Sequence({701, 701, 701, 1239});  // with prepending
  a.next_hop = IPv4Address(198, 32, 1, 99);
  a.med = 4090;
  a.local_pref = 200;
  a.atomic_aggregate = true;
  a.aggregator = Aggregator{701, IPv4Address(137, 39, 1, 1)};
  a.communities = {(701u << 16) | 120, (701u << 16) | 1};
  PathAttributes got = RoundTrip(a);
  // Codec sorts communities canonically.
  PathAttributes expect = a;
  std::sort(expect.communities.begin(), expect.communities.end());
  EXPECT_EQ(got, expect);
}

TEST(Attributes, AsSetSegmentRoundTrip) {
  PathAttributes a;
  a.as_path = AsPath::Sequence({701});
  AsPathSegment set_seg;
  set_seg.type = AsPathSegment::Type::kSet;
  set_seg.asns = {1239, 3561};
  a.as_path.segments().push_back(set_seg);
  a.next_hop = IPv4Address(1, 2, 3, 4);
  EXPECT_EQ(RoundTrip(a), a);
}

TEST(Attributes, EmptyAsPathRoundTrip) {
  PathAttributes a;  // locally originated: zero segments
  a.next_hop = IPv4Address(10, 0, 0, 1);
  EXPECT_EQ(RoundTrip(a), a);
  EXPECT_TRUE(a.as_path.empty());
}

TEST(Attributes, DecodeRejectsBadOrigin) {
  PathAttributes a;
  a.next_hop = IPv4Address(1, 2, 3, 4);
  ByteWriter w;
  EncodeAttributes(a, w);
  auto bytes = w.data();
  // ORIGIN is the first attribute: flags, type, len, value.
  ASSERT_EQ(bytes[1], 1);  // type == ORIGIN
  bytes[3] = 7;            // invalid origin value
  ByteReader r(bytes);
  DecodeAttributes(r, bytes.size());
  EXPECT_FALSE(r.ok());
}

TEST(Attributes, DecodeRejectsTruncatedCommunity) {
  // COMMUNITY length not a multiple of 4.
  ByteWriter w;
  w.U8(0xC0);  // optional transitive
  w.U8(8);     // COMMUNITY
  w.U8(3);     // bad length
  w.U8(1);
  w.U8(2);
  w.U8(3);
  ByteReader r(w.data());
  DecodeAttributes(r, w.size());
  EXPECT_FALSE(r.ok());
}

TEST(Attributes, DecodeSkipsUnknownOptional) {
  ByteWriter w;
  PathAttributes a;
  a.next_hop = IPv4Address(9, 9, 9, 9);
  EncodeAttributes(a, w);
  // Append an unknown optional attribute (type 200).
  w.U8(0x80);
  w.U8(200);
  w.U8(2);
  w.U16(0xBEEF);
  ByteReader r(w.data());
  PathAttributes decoded = DecodeAttributes(r, w.size());
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(decoded.next_hop, a.next_hop);
}

TEST(Attributes, ForwardingEquivalence) {
  PathAttributes a;
  a.as_path = AsPath::Sequence({701, 1239});
  a.next_hop = IPv4Address(1, 1, 1, 1);
  PathAttributes b = a;
  b.med = 99;            // non-forwarding change
  b.communities = {42};  // non-forwarding change
  EXPECT_TRUE(a.ForwardingEquivalent(b));
  EXPECT_FALSE(a == b);

  PathAttributes c = a;
  c.next_hop = IPv4Address(2, 2, 2, 2);
  EXPECT_FALSE(a.ForwardingEquivalent(c));

  PathAttributes d = a;
  d.as_path = AsPath::Sequence({701, 3561});
  EXPECT_FALSE(a.ForwardingEquivalent(d));
}

TEST(AsPath, PrependExtendsLeadingSequence) {
  AsPath p = AsPath::Sequence({1239});
  p.Prepend(701);
  EXPECT_EQ(p.ToString(), "701 1239");
  EXPECT_EQ(p.FirstAsn(), 701u);
}

TEST(AsPath, PrependOntoEmptyCreatesSequence) {
  AsPath p;
  p.Prepend(701);
  EXPECT_EQ(p.ToString(), "701");
  EXPECT_EQ(p.DecisionLength(), 1u);
}

TEST(AsPath, PrependBeforeSetCreatesNewSegment) {
  AsPath p;
  AsPathSegment set_seg;
  set_seg.type = AsPathSegment::Type::kSet;
  set_seg.asns = {1, 2};
  p.segments().push_back(set_seg);
  p.Prepend(701);
  ASSERT_EQ(p.segments().size(), 2u);
  EXPECT_EQ(p.segments()[0].type, AsPathSegment::Type::kSequence);
}

TEST(AsPath, ContainsSearchesAllSegments) {
  AsPath p = AsPath::Sequence({701});
  AsPathSegment set_seg;
  set_seg.type = AsPathSegment::Type::kSet;
  set_seg.asns = {1239, 3561};
  p.segments().push_back(set_seg);
  EXPECT_TRUE(p.Contains(701));
  EXPECT_TRUE(p.Contains(3561));
  EXPECT_FALSE(p.Contains(64512));
}

TEST(AsPath, DecisionLengthCountsSetAsOne) {
  AsPath p = AsPath::Sequence({701, 1239});
  AsPathSegment set_seg;
  set_seg.type = AsPathSegment::Type::kSet;
  set_seg.asns = {1, 2, 3, 4};
  p.segments().push_back(set_seg);
  EXPECT_EQ(p.DecisionLength(), 3u);
}

TEST(AsPath, ToStringWithSet) {
  AsPath p = AsPath::Sequence({701});
  AsPathSegment set_seg;
  set_seg.type = AsPathSegment::Type::kSet;
  set_seg.asns = {2, 3};
  p.segments().push_back(set_seg);
  EXPECT_EQ(p.ToString(), "701 {2,3}");
}

TEST(Attributes, ToStringSmoke) {
  PathAttributes a;
  a.as_path = AsPath::Sequence({701});
  a.next_hop = IPv4Address(1, 2, 3, 4);
  a.local_pref = 150;
  a.communities = {(65000u << 16) | 2};
  const std::string s = a.ToString();
  EXPECT_NE(s.find("nh=1.2.3.4"), std::string::npos);
  EXPECT_NE(s.find("lp=150"), std::string::npos);
  EXPECT_NE(s.find("65000:2"), std::string::npos);
}

}  // namespace
}  // namespace iri::bgp
