#include "bgp/intern.h"

namespace iri::bgp {
namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * kFnvPrime;
}

std::uint64_t HashPath(const AsPath& path) {
  std::uint64_t h = kFnvOffset;
  for (const auto& seg : path.segments()) {
    h = Mix(h, static_cast<std::uint64_t>(seg.type));
    h = Mix(h, seg.asns.size());
    for (Asn asn : seg.asns) h = Mix(h, asn);
  }
  return h;
}

}  // namespace

DecisionFields DecisionFields::Of(const PathAttributes& attrs) {
  DecisionFields d;
  d.local_pref = attrs.local_pref.value_or(kDefaultLocalPref);
  d.path_length = static_cast<std::uint32_t>(attrs.as_path.DecisionLength());
  d.med = attrs.med.value_or(0);
  d.first_asn = attrs.as_path.FirstAsn();
  d.origin = attrs.origin;
  return d;
}

std::size_t HashAttributes(const PathAttributes& attrs) {
  std::uint64_t h = HashPath(attrs.as_path);
  h = Mix(h, static_cast<std::uint64_t>(attrs.origin));
  h = Mix(h, attrs.next_hop.bits());
  h = Mix(h, attrs.med ? (1ULL << 32) | *attrs.med : 0);
  h = Mix(h, attrs.local_pref ? (1ULL << 32) | *attrs.local_pref : 0);
  h = Mix(h, attrs.atomic_aggregate ? 1 : 0);
  if (attrs.aggregator) {
    h = Mix(h, attrs.aggregator->asn);
    h = Mix(h, attrs.aggregator->router_id.bits());
  }
  for (Community c : attrs.communities) h = Mix(h, c);
  return static_cast<std::size_t>(h);
}

std::size_t AttrTable::FwdHash::operator()(const FwdKey& k) const {
  return static_cast<std::size_t>(Mix(HashPath(*k.path), k.next_hop.bits()));
}

AttrTable::AttrTable() {
  // Pre-size the probe tables: a border router at paper scale sees a few
  // hundred to a few thousand distinct sets, and rehashing mid-run is pure
  // overhead (bucket order is inert either way).
  lookup_.reserve(1024);
  fwd_lookup_.reserve(1024);
  const AttrSetId empty = Intern(PathAttributes{});
  IRI_ASSERT(empty == kEmptyAttrSetId && Forwarding(empty) == 0,
             "the empty attribute set must intern first, as id 0");
}

AttrSetId AttrTable::Intern(const PathAttributes& attrs) {
  auto it = lookup_.find(&attrs);
  if (it != lookup_.end()) return it->second;
  IRI_ASSERT(entries_.size() < kInvalidAttrSetId,
             "AttrTable id space exhausted");
  const PathAttributes* canonical = &canonical_.emplace_back(attrs);
  const AttrSetId id = static_cast<AttrSetId>(entries_.size());
  const ForwardingId fwd_id =
      fwd_lookup_
          .emplace(FwdKey{canonical->next_hop, &canonical->as_path},
                   static_cast<ForwardingId>(fwd_lookup_.size()))
          .first->second;
  entries_.push_back(Entry{canonical, DecisionFields::Of(*canonical), fwd_id});
  lookup_.emplace(canonical, id);
  return id;
}

}  // namespace iri::bgp
