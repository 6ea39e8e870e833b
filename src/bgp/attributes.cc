#include "bgp/attributes.h"

#include <algorithm>

namespace iri::bgp {
namespace {

// Attribute flag bits (high nibble of the flags octet).
constexpr std::uint8_t kFlagOptional = 0x80;
constexpr std::uint8_t kFlagTransitive = 0x40;
constexpr std::uint8_t kFlagExtendedLength = 0x10;

// Emits one attribute's flags, type and length (1 byte, or 2 with the
// extended-length flag when the body exceeds 255 bytes); the caller writes
// the `len`-byte body straight after.
void EmitAttrHeader(ByteWriter& out, std::uint8_t flags, AttrType type,
                    std::size_t len) {
  if (len > 255) flags |= kFlagExtendedLength;
  out.U8(flags);
  out.U8(static_cast<std::uint8_t>(type));
  if (flags & kFlagExtendedLength) {
    out.U16(static_cast<std::uint16_t>(len));
  } else {
    out.U8(static_cast<std::uint8_t>(len));
  }
}

// Decodes an AS_PATH body into `path`, reusing its segments and their AS
// buffers: the receive path decodes every UPDATE into one scratch message,
// so in steady state this allocates nothing.
void DecodeAsPathInto(ByteReader& in, std::size_t len, AsPath& path) {
  std::vector<AsPathSegment>& segments = path.segments();
  std::size_t used = 0;
  const std::size_t end = in.position() + len;
  while (in.ok() && in.position() < end) {
    const std::uint8_t type = in.U8();
    if (type != static_cast<std::uint8_t>(AsPathSegment::Type::kSet) &&
        type != static_cast<std::uint8_t>(AsPathSegment::Type::kSequence)) {
      in.MarkBad();
      break;
    }
    if (used == segments.size()) segments.emplace_back();
    AsPathSegment& seg = segments[used++];
    seg.type = static_cast<AsPathSegment::Type>(type);
    seg.asns.clear();
    const std::uint8_t count = in.U8();
    seg.asns.reserve(count);
    for (std::uint8_t i = 0; i < count; ++i) seg.asns.push_back(in.U16());
  }
  segments.resize(used);
  if (in.position() != end) in.MarkBad();
}

}  // namespace

void EncodeAttributes(const PathAttributes& attrs, ByteWriter& out) {
  // ORIGIN: well-known mandatory.
  EmitAttrHeader(out, kFlagTransitive, AttrType::kOrigin, 1);
  out.U8(static_cast<std::uint8_t>(attrs.origin));
  {  // AS_PATH: well-known mandatory (may be zero segments for local routes).
    std::size_t len = 0;
    for (const auto& seg : attrs.as_path.segments()) {
      len += 2 + 2 * seg.asns.size();
    }
    EmitAttrHeader(out, kFlagTransitive, AttrType::kAsPath, len);
    for (const auto& seg : attrs.as_path.segments()) {
      out.U8(static_cast<std::uint8_t>(seg.type));
      out.U8(static_cast<std::uint8_t>(seg.asns.size()));
      for (Asn asn : seg.asns) out.U16(static_cast<std::uint16_t>(asn));
    }
  }
  // NEXT_HOP: well-known mandatory.
  EmitAttrHeader(out, kFlagTransitive, AttrType::kNextHop, 4);
  out.U32(attrs.next_hop.bits());
  if (attrs.med) {  // optional non-transitive
    EmitAttrHeader(out, kFlagOptional, AttrType::kMultiExitDisc, 4);
    out.U32(*attrs.med);
  }
  if (attrs.local_pref) {  // well-known discretionary
    EmitAttrHeader(out, kFlagTransitive, AttrType::kLocalPref, 4);
    out.U32(*attrs.local_pref);
  }
  if (attrs.atomic_aggregate) {  // well-known discretionary, empty body
    EmitAttrHeader(out, kFlagTransitive, AttrType::kAtomicAggregate, 0);
  }
  if (attrs.aggregator) {  // optional transitive
    EmitAttrHeader(out, kFlagOptional | kFlagTransitive, AttrType::kAggregator,
                   6);
    out.U16(static_cast<std::uint16_t>(attrs.aggregator->asn));
    out.U32(attrs.aggregator->router_id.bits());
  }
  if (!attrs.communities.empty()) {  // optional transitive (RFC 1997)
    EmitAttrHeader(out, kFlagOptional | kFlagTransitive, AttrType::kCommunity,
                   4 * attrs.communities.size());
    if (std::is_sorted(attrs.communities.begin(), attrs.communities.end())) {
      for (Community c : attrs.communities) out.U32(c);
    } else {
      std::vector<Community> sorted = attrs.communities;
      std::sort(sorted.begin(), sorted.end());
      for (Community c : sorted) out.U32(c);
    }
  }
}

PathAttributes DecodeAttributes(ByteReader& in, std::size_t total_len) {
  PathAttributes attrs;
  DecodeAttributesInto(in, total_len, attrs);
  return attrs;
}

void DecodeAttributesInto(ByteReader& in, std::size_t total_len,
                          PathAttributes& attrs) {
  attrs.origin = Origin::kIgp;
  attrs.next_hop = IPv4Address{};
  attrs.med.reset();
  attrs.local_pref.reset();
  attrs.atomic_aggregate = false;
  attrs.aggregator.reset();
  attrs.communities.clear();
  bool saw_as_path = false;  // else the stale path is cleared at the end
  const std::size_t end = in.position() + total_len;
  while (in.ok() && in.position() < end) {
    const std::uint8_t flags = in.U8();
    const std::uint8_t type = in.U8();
    const std::size_t len =
        (flags & kFlagExtendedLength) ? in.U16() : in.U8();
    if (!in.ok()) break;
    const std::size_t body_end = in.position() + len;
    switch (static_cast<AttrType>(type)) {
      case AttrType::kOrigin: {
        const std::uint8_t o = in.U8();
        if (o > 2) { in.MarkBad(); return; }
        attrs.origin = static_cast<Origin>(o);
        break;
      }
      case AttrType::kAsPath:
        DecodeAsPathInto(in, len, attrs.as_path);
        saw_as_path = true;
        break;
      case AttrType::kNextHop:
        attrs.next_hop = IPv4Address(in.U32());
        break;
      case AttrType::kMultiExitDisc:
        attrs.med = in.U32();
        break;
      case AttrType::kLocalPref:
        attrs.local_pref = in.U32();
        break;
      case AttrType::kAtomicAggregate:
        attrs.atomic_aggregate = true;
        break;
      case AttrType::kAggregator: {
        Aggregator agg;
        agg.asn = in.U16();
        agg.router_id = IPv4Address(in.U32());
        attrs.aggregator = agg;
        break;
      }
      case AttrType::kCommunity: {
        if (len % 4 != 0) { in.MarkBad(); return; }
        for (std::size_t i = 0; i < len / 4; ++i) {
          attrs.communities.push_back(in.U32());
        }
        break;
      }
      default:
        // Unknown optional attributes are skipped (transitive semantics are
        // out of scope: the monitor only classifies, it does not re-announce
        // unknown attributes).
        in.Skip(len);
        break;
    }
    if (in.position() != body_end) {
      in.MarkBad();
      return;
    }
  }
  if (!saw_as_path) attrs.as_path.segments().clear();
  if (in.position() != end) in.MarkBad();
}

std::string PathAttributes::ToString() const {
  std::string out = "nh=" + next_hop.ToString() + " path=[" +
                    as_path.ToString() + "] origin=" + bgp::ToString(origin);
  if (local_pref) out += " lp=" + std::to_string(*local_pref);
  if (med) out += " med=" + std::to_string(*med);
  if (atomic_aggregate) out += " atomic";
  if (!communities.empty()) {
    out += " comm=";
    for (std::size_t i = 0; i < communities.size(); ++i) {
      if (i) out.push_back(',');
      out += std::to_string(communities[i] >> 16) + ":" +
             std::to_string(communities[i] & 0xFFFF);
    }
  }
  return out;
}

}  // namespace iri::bgp
