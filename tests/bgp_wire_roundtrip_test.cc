// Fuzz-style property test over the BGP wire codec: a seeded random message
// generator drives UpdatePacker, then for every packed message asserts the
// wire bytes decode to exactly the packed prefixes and attribute set, and
// that decode → re-encode reproduces them byte for byte (so the packer's
// cached attribute bytes and Encode's fresh ones agree). 10,000 cases; the
// failing case's seed is printed so any counterexample replays exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "bgp/message.h"
#include "bgp/update_packer.h"
#include "netbase/rng.h"

namespace iri::bgp {
namespace {

constexpr std::uint64_t kBaseSeed = 0x1997'5160'C0DE;
constexpr int kCases = 10'000;

Prefix RandomPrefix(Rng& rng) {
  // Lengths biased toward the realistic /8../28 band with occasional /0
  // and /32 edge cases.
  std::uint8_t length;
  const std::uint64_t roll = rng.Below(20);
  if (roll == 0) {
    length = 0;
  } else if (roll == 1) {
    length = 32;
  } else {
    length = static_cast<std::uint8_t>(rng.Range(8, 28));
  }
  return Prefix(IPv4Address(static_cast<std::uint32_t>(rng.Next())), length);
}

AsPath RandomAsPath(Rng& rng) {
  AsPath path;
  const int segments = static_cast<int>(rng.Below(3));  // 0..2
  for (int s = 0; s < segments; ++s) {
    AsPathSegment seg;
    // SET segments appear on aggregated routes; keep them the minority.
    seg.type = rng.Bernoulli(0.2) ? AsPathSegment::Type::kSet
                                  : AsPathSegment::Type::kSequence;
    const int len = static_cast<int>(rng.Range(1, 6));
    for (int i = 0; i < len; ++i) {
      seg.asns.push_back(static_cast<Asn>(rng.Range(1, kMaxAsn)));
    }
    path.segments().push_back(std::move(seg));
  }
  return path;
}

PathAttributes RandomAttributes(Rng& rng) {
  PathAttributes attrs;
  attrs.origin = static_cast<Origin>(rng.Below(3));
  attrs.as_path = RandomAsPath(rng);
  attrs.next_hop = IPv4Address(static_cast<std::uint32_t>(rng.Next()));
  if (rng.Bernoulli(0.4)) {
    attrs.med = static_cast<std::uint32_t>(rng.Next());
  }
  if (rng.Bernoulli(0.3)) {
    attrs.local_pref = static_cast<std::uint32_t>(rng.Next());
  }
  attrs.atomic_aggregate = rng.Bernoulli(0.1);
  if (rng.Bernoulli(0.15)) {
    attrs.aggregator = Aggregator{
        static_cast<Asn>(rng.Range(1, kMaxAsn)),
        IPv4Address(static_cast<std::uint32_t>(rng.Next()))};
  }
  // The codec keeps communities sorted; generate them canonical (sorted,
  // deduplicated) so decoded == original is a fair equality.
  const int n_comms = static_cast<int>(rng.Below(4));
  for (int i = 0; i < n_comms; ++i) {
    attrs.communities.push_back(static_cast<Community>(rng.Next()));
  }
  std::sort(attrs.communities.begin(), attrs.communities.end());
  attrs.communities.erase(
      std::unique(attrs.communities.begin(), attrs.communities.end()),
      attrs.communities.end());
  return attrs;
}

// A random batch of route ops — the shape OutboundQueue::Flush hands to
// the packer — with attribute ids interned into `table`.
std::vector<RouteOp> RandomOps(Rng& rng, AttrTable& table) {
  std::vector<RouteOp> ops;
  const int n = static_cast<int>(rng.Range(1, 40));
  // A few shared attribute sets so the packer's group-by-attributes path is
  // exercised (identical sets must pack into one UPDATE).
  std::vector<PathAttributes> palette;
  const int palette_size = static_cast<int>(rng.Range(1, 4));
  for (int i = 0; i < palette_size; ++i) palette.push_back(RandomAttributes(rng));
  for (int i = 0; i < n; ++i) {
    RouteOp op;
    op.prefix = RandomPrefix(rng);
    if (!rng.Bernoulli(0.4)) {  // 60% announcements
      op.attr_id = table.Intern(palette[rng.Below(palette.size())]);
    }
    ops.push_back(op);
  }
  return ops;
}

void CheckMessageRoundTrip(const Message& msg, std::uint64_t seed) {
  const std::vector<std::uint8_t> first = Encode(msg);
  ASSERT_LE(first.size(), kMaxMessageSize) << "seed=" << seed;
  const std::optional<Message> decoded = Decode(first);
  ASSERT_TRUE(decoded.has_value()) << "decode failed, seed=" << seed;
  EXPECT_EQ(*decoded, msg) << "decoded message differs, seed=" << seed;
  const std::vector<std::uint8_t> second = Encode(*decoded);
  EXPECT_EQ(first, second) << "re-encode not byte-identical, seed=" << seed;
}

TEST(BgpWireRoundTrip, TenThousandRandomUpdateBatches) {
  UpdatePacker packer;  // reused across batches, as a router reuses its own
  for (int c = 0; c < kCases; ++c) {
    const std::uint64_t seed = kBaseSeed + static_cast<std::uint64_t>(c);
    Rng rng(seed);
    AttrTable table;
    const std::vector<RouteOp> ops = RandomOps(rng, table);
    const auto packed = packer.Pack(ops, table);
    ASSERT_FALSE(packed.empty()) << "seed=" << seed;
    for (const UpdatePacker::Packed& m : packed) {
      const std::vector<std::uint8_t> wire = packer.Wire(m, table);
      ASSERT_LE(wire.size(), kMaxMessageSize) << "seed=" << seed;
      const std::optional<Message> decoded = Decode(wire);
      ASSERT_TRUE(decoded.has_value()) << "decode failed, seed=" << seed;
      EXPECT_EQ(Encode(*decoded), wire)
          << "re-encode not byte-identical, seed=" << seed;
      ASSERT_NO_FATAL_FAILURE(CheckMessageRoundTrip(*decoded, seed));
      // Field-level equality with what was packed, spelled out so a
      // failure names the divergent part directly.
      const auto* u = std::get_if<UpdateMessage>(&*decoded);
      ASSERT_NE(u, nullptr) << "seed=" << seed;
      const auto prefixes = packer.Prefixes(m);
      const std::vector<Prefix> want(prefixes.begin(), prefixes.end());
      if (m.IsWithdrawal()) {
        EXPECT_EQ(u->withdrawn, want) << "seed=" << seed;
        EXPECT_TRUE(u->nlri.empty()) << "seed=" << seed;
      } else {
        EXPECT_TRUE(u->withdrawn.empty()) << "seed=" << seed;
        EXPECT_EQ(u->nlri, want) << "seed=" << seed;
        EXPECT_EQ(u->attributes, table.Get(m.attr_id)) << "seed=" << seed;
      }
    }
  }
}

TEST(BgpWireRoundTrip, NonUpdateMessageTypes) {
  for (int c = 0; c < 200; ++c) {
    const std::uint64_t seed = kBaseSeed ^ static_cast<std::uint64_t>(c);
    Rng rng(seed);
    OpenMessage open;
    open.asn = static_cast<Asn>(rng.Range(1, kMaxAsn));
    open.hold_time_s = static_cast<std::uint16_t>(rng.Below(1 << 16));
    open.bgp_identifier = IPv4Address(static_cast<std::uint32_t>(rng.Next()));
    CheckMessageRoundTrip(Message(open), seed);

    NotificationMessage notify;
    notify.code = static_cast<NotifyCode>(rng.Range(1, 6));
    notify.subcode = static_cast<std::uint8_t>(rng.Below(16));
    CheckMessageRoundTrip(Message(notify), seed);

    CheckMessageRoundTrip(Message(KeepAliveMessage{}), seed);
  }
}

}  // namespace
}  // namespace iri::bgp
