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
// Determinism argument (see DESIGN.md §12): ids are assigned in insertion
// order, so for a fixed update stream the (value → id) mapping is a pure
// function of the stream. Ids are only ever compared for equality and used
// to look up the canonical value; no id, and no order derived from one,
// reaches any output. The unordered lookup maps are only ever probed
// (find/emplace); nothing iterates them, so their bucket order can never
// reach a digest either. Canonical values live in a std::deque owned by the
// table: push_back never moves an existing element, which is what lets
// entries and the lookup maps hold plain pointers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
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

// Structural hash (FNV-1a over the set's canonical fields). Process-local
// only — never emitted, so the constants can change freely.
std::size_t HashAttributes(const PathAttributes& attrs);

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

  bool Contains(AttrSetId id) const { return id < entries_.size(); }
  std::size_t size() const { return entries_.size(); }
  std::size_t NumForwardingClasses() const { return fwd_lookup_.size(); }

 private:
  struct Entry {
    const PathAttributes* attrs;  // canonical copy, owned by canonical_
    DecisionFields decision;
    ForwardingId fwd_id;
  };
  // The forwarding half of a canonical set: its NEXT_HOP and (a pointer to)
  // its AS_PATH.
  struct FwdKey {
    IPv4Address next_hop;
    const AsPath* path;
  };
  struct PtrHash {
    std::size_t operator()(const PathAttributes* p) const {
      return HashAttributes(*p);
    }
  };
  struct PtrEq {
    bool operator()(const PathAttributes* a, const PathAttributes* b) const {
      return *a == *b;
    }
  };
  struct FwdHash {
    std::size_t operator()(const FwdKey& k) const;
  };
  struct FwdEq {
    bool operator()(const FwdKey& a, const FwdKey& b) const {
      return a.next_hop == b.next_hop && *a.path == *b.path;
    }
  };

  const Entry& At(AttrSetId id) const {
    IRI_ASSERT(id < entries_.size(), "AttrSetId out of range");
    return entries_[id];
  }

  std::vector<Entry> entries_;  // id-indexed, insertion order
  // Probed only (find/emplace) — never iterated, so bucket order is inert.
  std::unordered_map<const PathAttributes*, AttrSetId, PtrHash, PtrEq> lookup_;
  std::unordered_map<FwdKey, ForwardingId, FwdHash, FwdEq> fwd_lookup_;
  // Id-ordered canonical sets; references stay valid across push_back.
  std::deque<PathAttributes> canonical_;
};

}  // namespace iri::bgp
