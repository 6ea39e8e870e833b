// Fundamental BGP-4 value types: AS numbers, AS paths, communities, origins.
//
// These model the protocol as deployed in 1996/97 (RFC 1163 / RFC 1771 era):
// 16-bit AS numbers on the wire, AS_PATH with SEQUENCE and SET segments
// (SET appears when routes are aggregated), and RFC 1997 communities.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <string>
#include <vector>

namespace iri::bgp {

// AS numbers were 16-bit in the measurement period; we keep a 32-bit carrier
// for arithmetic convenience but the codec enforces the 16-bit range.
using Asn = std::uint32_t;
inline constexpr Asn kMaxAsn = 0xFFFF;

// RFC 1997 community value (high 16 bits: AS, low 16 bits: local tag).
using Community = std::uint32_t;

enum class Origin : std::uint8_t {
  kIgp = 0,         // NLRI is interior to the originating AS
  kEgp = 1,         // learned via EGP
  kIncomplete = 2,  // learned by some other means (typically redistribution)
};

// One segment of an AS_PATH. kSequence is an ordered traversal; kSet is an
// unordered bag produced by route aggregation.
struct AsPathSegment {
  enum class Type : std::uint8_t { kSet = 1, kSequence = 2 };

  Type type = Type::kSequence;
  std::vector<Asn> asns;

  friend bool operator==(const AsPathSegment&, const AsPathSegment&) = default;
  friend auto operator<=>(const AsPathSegment&, const AsPathSegment&) = default;
};

// A full AS_PATH attribute: a list of segments. Provides the operations the
// decision process and loop detection need.
class AsPath {
 public:
  AsPath() = default;

  // Convenience: builds a single-SEQUENCE path (the overwhelmingly common
  // shape in practice and in our simulations).
  static AsPath Sequence(std::vector<Asn> asns) {
    AsPath p;
    if (!asns.empty()) {
      p.segments_.push_back(
          {AsPathSegment::Type::kSequence, std::move(asns)});
    }
    return p;
  }

  // Prepends `asn` to the path, as a border router does when advertising to
  // an external peer. Extends the leading SEQUENCE segment or creates one.
  void Prepend(Asn asn) {
    if (segments_.empty() ||
        segments_.front().type != AsPathSegment::Type::kSequence) {
      segments_.insert(segments_.begin(),
                       {AsPathSegment::Type::kSequence, {asn}});
    } else {
      auto& seq = segments_.front().asns;
      seq.insert(seq.begin(), asn);
    }
  }

  // RFC 1163 loop detection: true if `asn` appears anywhere in the path.
  bool Contains(Asn asn) const {
    for (const auto& seg : segments_) {
      if (std::find(seg.asns.begin(), seg.asns.end(), asn) != seg.asns.end()) {
        return true;
      }
    }
    return false;
  }

  // Path length as used by the decision process: each SEQUENCE AS counts 1,
  // each SET segment counts 1 regardless of size (RFC 4271 9.1.2.2 rule,
  // which matches deployed behaviour in the measurement period).
  std::size_t DecisionLength() const {
    std::size_t n = 0;
    for (const auto& seg : segments_) {
      n += (seg.type == AsPathSegment::Type::kSequence) ? seg.asns.size() : 1;
    }
    return n;
  }

  // The neighboring AS (first AS of the first SEQUENCE), or 0 if none.
  Asn FirstAsn() const {
    for (const auto& seg : segments_) {
      if (seg.type == AsPathSegment::Type::kSequence && !seg.asns.empty()) {
        return seg.asns.front();
      }
    }
    return 0;
  }

  bool empty() const { return segments_.empty(); }
  const std::vector<AsPathSegment>& segments() const { return segments_; }
  std::vector<AsPathSegment>& segments() { return segments_; }

  // "174 3561 701" or "174 {701,1239}" for SET segments.
  std::string ToString() const;

  friend bool operator==(const AsPath&, const AsPath&) = default;
  friend auto operator<=>(const AsPath&, const AsPath&) = default;

 private:
  std::vector<AsPathSegment> segments_;
};

std::string ToString(Origin origin);

}  // namespace iri::bgp
