#include "bgp/intern.h"

#include "bgp/message.h"

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

// Structural hash (FNV-1a over the set's canonical fields). Process-local
// only — never emitted, so the constants can change freely.
std::uint64_t HashAttributes(const PathAttributes& attrs) {
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
  return h;
}

// Folds a 64-bit FNV hash to the 32 bits a probe slot keeps. FNV's low
// bits depend only on the inputs' low bits, so the high half is mixed in
// (the murmur3 finaliser) before truncation.
std::uint32_t SlotHash(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return static_cast<std::uint32_t>(h);
}

std::uint32_t ForwardingHash(const PathAttributes& attrs) {
  return SlotHash(Mix(HashPath(attrs.as_path), attrs.next_hop.bits()));
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

AttrTable::Slots::Slots() : slots_(1024), mask_(1023) {}

void AttrTable::Slots::Insert(Slot& empty, std::uint32_t hash,
                              std::uint32_t id) {
  empty = Slot{hash, id};
  if (++size_ * 8 <= slots_.size() * 7) return;
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  mask_ = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.id == kInvalidAttrSetId) continue;
    std::size_t i = s.hash & mask_;
    while (slots_[i].id != kInvalidAttrSetId) i = (i + 1) & mask_;
    slots_[i] = s;
  }
}

AttrTable::AttrTable() {
  // The probe tables start at 1024 slots: a border router at paper scale
  // sees a few hundred to a few thousand distinct sets.
  const AttrSetId empty = Intern(PathAttributes{});
  IRI_ASSERT(empty == kEmptyAttrSetId && Forwarding(empty) == 0,
             "the empty attribute set must intern first, as id 0");
}

AttrSetId AttrTable::Intern(const PathAttributes& attrs) {
  const std::uint32_t hash = SlotHash(HashAttributes(attrs));
  Slot& slot = lookup_.Probe(
      hash, [&](AttrSetId id) { return *entries_[id].attrs == attrs; });
  if (slot.id != kInvalidAttrSetId) return slot.id;
  IRI_ASSERT(entries_.size() < kInvalidAttrSetId,
             "AttrTable id space exhausted");
  const PathAttributes* canonical = &canonical_.emplace_back(attrs);
  const AttrSetId id = static_cast<AttrSetId>(entries_.size());

  const std::uint32_t fwd_hash = ForwardingHash(attrs);
  Slot& fwd_slot = fwd_lookup_.Probe(fwd_hash, [&](ForwardingId fwd) {
    return entries_[fwd_rep_[fwd]].attrs->ForwardingEquivalent(attrs);
  });
  ForwardingId fwd_id = fwd_slot.id;
  if (fwd_id == kInvalidAttrSetId) {
    fwd_id = static_cast<ForwardingId>(fwd_rep_.size());
    fwd_rep_.push_back(id);
    fwd_lookup_.Insert(fwd_slot, fwd_hash, fwd_id);
  }
  entries_.push_back(Entry{canonical, DecisionFields::Of(*canonical), fwd_id,
                           static_cast<std::uint32_t>(
                               EstimateAttributesSize(*canonical)),
                           0, 0});
  lookup_.Insert(slot, hash, id);
  return id;
}

std::span<const std::uint8_t> AttrTable::Encoded(AttrSetId id) {
  IRI_ASSERT(id < entries_.size(), "AttrSetId out of range");
  Entry& e = entries_[id];
  if (e.wire_len == 0) {
    const std::size_t offset = wire_.size();
    EncodeAttributes(*e.attrs, wire_);
    IRI_ASSERT(wire_.size() <= 0xFFFFFFFFu, "attribute arena exceeds 4 GiB");
    e.wire_offset = static_cast<std::uint32_t>(offset);
    e.wire_len = static_cast<std::uint32_t>(wire_.size() - offset);
  }
  return std::span<const std::uint8_t>(wire_.data()).subspan(e.wire_offset,
                                                             e.wire_len);
}

}  // namespace iri::bgp
