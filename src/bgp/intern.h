// The hash-consed attribute-set table (interning).
//
// At full paper scale (scale_denominator = 1: 42 k prefixes, millions of
// updates per simulated day) the simulator sees the same few thousand
// distinct attribute sets over and over. Each distinct set is interned once
// — at UPDATE decode, import-policy output, origination and export — and
// from then on the pipeline carries its AttrSetId: RIB candidates, outbound
// queue slots, Adj-RIB-Out entries, the packer's grouping key and the
// classifier's per-route state are all integers. Each entry precomputes the
// decision-process fields and a forwarding id, so the decision ladder, the
// exact-duplicate test and the paper's forwarding-tuple test
// (ForwardingEquivalent) are integer reads and compares.
//
// Each id's wire encoding (EncodeAttributes) is cached too, made on first
// use by the update packer: every UPDATE a router sends carries one cached
// attribute field instead of a fresh serialisation.
//
// Determinism argument (see DESIGN.md §12): ids are assigned in insertion
// order, so for a fixed update stream the (value → id) mapping is a pure
// function of the stream. Ids are only ever compared for equality and used
// to look up the canonical value; no id, and no order derived from one,
// reaches any output. The flat lookup slots are only ever probed; nothing
// iterates them, so their hash order can never reach a digest either.
// Canonical values live in a std::deque owned by the table: push_back
// never moves an existing element, which is what lets entries hold plain
// pointers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "bgp/attributes.h"
#include "bgp/types.h"
#include "core/invariants.h"
#include "netbase/ipv4.h"

namespace iri::bgp {

inline constexpr std::uint32_t kDefaultLocalPref = 100;

// Handle into an AttrTable: equal ids ⟺ byte-equal attribute sets. Ids are
// table-local and insertion-ordered; id 0 is always the default-constructed
// (empty) set.
using AttrSetId = std::uint32_t;
inline constexpr AttrSetId kEmptyAttrSetId = 0;
inline constexpr AttrSetId kInvalidAttrSetId = 0xFFFFFFFF;

// Forwarding-class id: two sets of one table share a ForwardingId exactly
// when PathAttributes::ForwardingEquivalent holds (same NEXT_HOP and
// AS_PATH). The empty set's class is 0.
using ForwardingId = std::uint32_t;

// The decision-process inputs of one attribute set (bgp/decision.h ladder
// steps 1–4), with the absent-attribute defaults already applied.
struct DecisionFields {
  std::uint32_t local_pref = kDefaultLocalPref;  // absent => 100
  std::uint32_t path_length = 0;  // AsPath::DecisionLength (SET counts 1)
  std::uint32_t med = 0;          // absent => 0
  Asn first_asn = 0;              // neighbor AS: the MED comparability gate
  Origin origin = Origin::kIgp;

  static DecisionFields Of(const PathAttributes& attrs);

  friend bool operator==(const DecisionFields&, const DecisionFields&) = default;
};

// One table per Rib (i.e. per router) and one per ExchangeMonitor: no
// sharing across partitions, no locks.
class AttrTable {
 public:
  AttrTable();
  AttrTable(const AttrTable&) = delete;
  AttrTable& operator=(const AttrTable&) = delete;

  // Returns the id for `attrs`, inserting a canonical copy on first sight.
  AttrSetId Intern(const PathAttributes& attrs);

  const PathAttributes& Get(AttrSetId id) const { return *At(id).attrs; }
  const DecisionFields& Decision(AttrSetId id) const { return At(id).decision; }
  ForwardingId Forwarding(AttrSetId id) const { return At(id).fwd_id; }

  // Get(a).ForwardingEquivalent(Get(b)), as one integer compare.
  bool ForwardingEquivalent(AttrSetId a, AttrSetId b) const {
    return Forwarding(a) == Forwarding(b);
  }

  // EstimateAttributesSize(Get(id)), computed once at insertion: the
  // update packer's split decisions read it per prefix.
  std::uint32_t PackingEstimate(AttrSetId id) const {
    return At(id).estimate;
  }

  // EncodeAttributes(Get(id)): encoded into the table's byte arena on the
  // first call, a view of the cached bytes afterwards. The view is valid
  // until the next call for an id not yet encoded (the arena may grow).
  std::span<const std::uint8_t> Encoded(AttrSetId id);

  bool Contains(AttrSetId id) const { return id < entries_.size(); }
  std::size_t size() const { return entries_.size(); }
  std::size_t NumForwardingClasses() const { return fwd_rep_.size(); }

 private:
  struct Entry {
    const PathAttributes* attrs;  // canonical copy, owned by canonical_
    DecisionFields decision;
    ForwardingId fwd_id;
    std::uint32_t estimate;     // EstimateAttributesSize(*attrs)
    std::uint32_t wire_offset;  // into wire_, valid when wire_len > 0
    std::uint32_t wire_len;     // 0 until encoded (an encoding never is)
  };
  // One open-addressing probe table: (hash, id) slots, power-of-two sized,
  // linear probing, doubled at 7/8 load. The stored hash lets a rehash move
  // slots without rehashing sets, and rejects most mismatches without a
  // deep compare.
  struct Slot {
    std::uint32_t hash = 0;
    std::uint32_t id = kInvalidAttrSetId;  // kInvalidAttrSetId == empty
  };
  class Slots {
   public:
    Slots();
    // The id stored under `hash` for which `same(id)` holds, or the empty
    // slot where it belongs (id == kInvalidAttrSetId), to be filled by
    // Insert before the next probe.
    template <typename Same>
    Slot& Probe(std::uint32_t hash, Same same) {
      for (std::size_t i = hash & mask_;; i = (i + 1) & mask_) {
        Slot& s = slots_[i];
        if (s.id == kInvalidAttrSetId || (s.hash == hash && same(s.id))) {
          return s;
        }
      }
    }
    // Fills the empty slot Probe returned, growing the table if needed.
    void Insert(Slot& empty, std::uint32_t hash, std::uint32_t id);

   private:
    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
  };

  const Entry& At(AttrSetId id) const {
    IRI_ASSERT(id < entries_.size(), "AttrSetId out of range");
    return entries_[id];
  }

  std::vector<Entry> entries_;  // id-indexed, insertion order
  Slots lookup_;                // set hash -> id
  Slots fwd_lookup_;            // (NEXT_HOP, AS_PATH) hash -> forwarding id
  std::vector<AttrSetId> fwd_rep_;  // forwarding id -> its first set's id
  // Id-ordered canonical sets; references stay valid across push_back.
  std::deque<PathAttributes> canonical_;
  // Every encoded set's bytes, back to back, in first-encoding order.
  ByteWriter wire_;
};

}  // namespace iri::bgp
