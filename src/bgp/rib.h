// Routing Information Base: per-peer Adj-RIBs-In merged into a Loc-RIB by
// the decision process.
//
// The Rib is a pure routing-table machine with no notion of time or I/O;
// the simulator's Router owns one and feeds it decoded UPDATEs. Every
// mutation reports whether the *best* route for the prefix changed, which is
// exactly the signal the export machinery (and the paper's notion of
// forwarding instability) cares about.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bgp/decision.h"
#include "bgp/intern.h"
#include "bgp/route.h"
#include "netbase/probe_map.h"
#include "obs/profile.h"

namespace iri::bgp {

// Outcome of applying one route event to the RIB.
struct RibChange {
  PrefixSlot slot = kNoSlot;  // the prefix's (Rib::Slot), or kNoSlot
  // True if the Loc-RIB entry for the prefix changed (new best, different
  // best attributes, or loss of all routes).
  bool best_changed = false;
  // The prefix's best route after the event (whether or not it changed), or
  // nullptr if the prefix is now unreachable: always equal to Best(slot),
  // no-op withdrawals included, so callers need no second lookup. Points
  // into the RIB's own storage, not a copy (Announce/Withdraw are the
  // hottest calls in the full-paper-scale run): valid only until the next
  // mutation of this Rib.
  const Candidate* new_best = nullptr;
};

class Rib {
 public:
  // Registers a peer before routes from it can be accepted. `router_id` is
  // used for the final decision tie-break.
  void AddPeer(PeerId peer, IPv4Address router_id);

  // Resolves the rib.announce / rib.withdraw / rib.lookup profile sites
  // against a (partition-private) registry. Null detaches.
  void AttachProfile(obs::Registry* registry) {
    if (registry == nullptr) {
      announce_site_ = withdraw_site_ = lookup_site_ = obs::ProfileSite{};
      return;
    }
    announce_site_ = obs::MakeProfileSite(*registry, "rib.announce");
    withdraw_site_ = obs::MakeProfileSite(*registry, "rib.withdraw");
    lookup_site_ = obs::MakeProfileSite(*registry, "rib.lookup");
  }

  // The Rib's attribute-set table: callers intern an attribute set once and
  // hand the id to Announce. Ids are only meaningful against this table.
  // The table never shrinks; its footprint is part of what perfbench's
  // peak_rss_mb and rss_growth_mb_per_simday measure.
  AttrTable& attrs() { return attrs_; }
  const AttrTable& attrs() const { return attrs_; }

  // The attribute set a candidate carries.
  const PathAttributes& AttributesOf(const Candidate& c) const {
    return attrs_.Get(c.attr_id);
  }

  // The slot of `prefix`, minted on first sight as a tombstone (no paths)
  // that NumPrefixes, the visitors and ClearPeer skip until it is announced.
  // FindSlot, Withdraw and Best by prefix mint nothing (kNoSlot if unseen).
  PrefixSlot Slot(const Prefix& prefix);
  PrefixSlot FindSlot(const Prefix& prefix) const {
    const PrefixSlot* slot = index_.Find(prefix);
    return slot == nullptr ? kNoSlot : *slot;
  }
  const Prefix& PrefixOf(PrefixSlot s) const { return entries_[s].prefix; }

  // Applies an announcement from `peer` of the interned set `attrs` (an id
  // of attrs()). Replaces any previous route from the same peer for the
  // same prefix (implicit withdrawal).
  RibChange Announce(PeerId peer, PrefixSlot slot, AttrSetId attrs);

  // Interns route.attributes, then announces it.
  RibChange Announce(PeerId peer, const Route& route) {
    return Announce(peer, Slot(route.prefix), attrs_.Intern(route.attributes));
  }

  // Applies an explicit withdrawal. A withdrawal for a route the peer never
  // announced is a no-op (this is how WWDup pathologies look to a receiver)
  // that still reports the prefix's current best (none for kNoSlot).
  RibChange Withdraw(PeerId peer, PrefixSlot slot);
  RibChange Withdraw(PeerId peer, const Prefix& prefix) {
    return Withdraw(peer, FindSlot(prefix));
  }

  // Drops every route learned from `peer` (session loss). Returns the slots
  // whose best route changed, in ascending address order of their prefixes
  // (that order reaches the wire through Router::OnSessionDown); callers
  // re-read Best() for the new state.
  std::vector<PrefixSlot> ClearPeer(PeerId peer);

  // Current best route, or nullptr if unreachable or kNoSlot.
  const Candidate* Best(PrefixSlot slot) const;
  const Candidate* Best(const Prefix& p) const { return Best(FindSlot(p)); }

  // All candidates currently held for `prefix` (used by the multihoming
  // census and by tests).
  std::vector<Candidate> CandidatesFor(const Prefix& prefix) const;

  // Number of distinct prefixes with at least one path. (Tombstones, slots
  // with no path, keep their storage so a flap cycle reuses it; they are
  // excluded here and skipped by every visitor.)
  std::size_t NumPrefixes() const { return num_prefixes_; }

  // Number of routes (prefix, peer) pairs in all Adj-RIBs-In.
  std::size_t NumRoutes() const { return num_routes_; }

  // Number of prefixes learned from `peer`.
  std::size_t PeerRouteCount(PeerId peer) const;

  // Full O(routes) structural audit of the Adj-RIB-In bookkeeping: the
  // prefix index and the entries agree both ways, every per-peer route
  // count equals that peer's candidate tally, num_routes_ equals the
  // table's candidate count, num_prefixes_ equals the live entry count,
  // every live entry has a valid best index (tombstones have none), no
  // entry holds two routes from the same peer, and every candidate's
  // attribute id is in range of attrs() with cached decision fields equal
  // to the table's.
  // Returns true when consistent (and IRI_ASSERTs each clause, so under the
  // default abort policy a false return is unreachable). Called by tests and
  // by debug builds after every ClearPeer.
  bool AuditInvariants() const;

  // Visits (prefix, best, slot) over the whole Loc-RIB in address order.
  template <typename Fn>
  void VisitBest(Fn&& fn) const {
    for (const std::uint32_t slot : AddressOrder()) {
      const Entry& e = entries_[slot];
      if (e.best >= 0) {
        fn(e.prefix, e.candidates[static_cast<std::size_t>(e.best)], slot);
      }
    }
  }

  // Visits (prefix, number of distinct paths) in address order — Figure
  // 10's multihoming census runs on this.
  template <typename Fn>
  void VisitPathCounts(Fn&& fn) const {
    for (const std::uint32_t slot : AddressOrder()) {
      const Entry& e = entries_[slot];
      if (!e.candidates.empty()) fn(e.prefix, e.candidates.size());
    }
  }

 private:
  struct Entry {
    Prefix prefix;
    std::vector<Candidate> candidates;
    int best = -1;  // index into candidates, -1 when empty
  };

  // Routes held from `peer` (kLocalPeer included).
  std::size_t& RouteCount(PeerId peer) {
    return peer == kLocalPeer ? local_route_count_ : peer_route_counts_[peer];
  }

  // Every entry slot, tombstones included, sorted by prefix. Prefix's
  // (bits, length) ordering is the address order of a radix-trie pre-order
  // walk (a covering prefix first, then its lower half, then its upper
  // half). Slots minted since the last call are sorted and merged in.
  const std::vector<std::uint32_t>& AddressOrder() const;

  // Entries are never erased: a prefix withdrawn to empty keeps its slot as
  // a tombstone, so slots (and index_) stay valid for the Rib's lifetime.
  // index_ is probed only (ProbeMap has no iteration API), so its layout
  // cannot reach any output; ordered walks go through address_order_, which
  // a const walk may extend (so one Rib is walked from one thread at a time,
  // as each partition's routers are).
  std::vector<Entry> entries_;
  ProbeMap<Prefix, std::uint32_t> index_;
  mutable std::vector<std::uint32_t> address_order_;
  // Router ids (the decision's final tie-break) of the peers registered by
  // AddPeer, indexed by PeerId, and of kLocalPeer; nullopt until registered.
  // Announce reads one per call, so this is an index, not a hash lookup.
  std::vector<std::optional<IPv4Address>> peer_router_ids_;
  std::optional<IPv4Address> local_router_id_;
  static constexpr std::optional<IPv4Address> kUnregistered{};
  // Routes held per registered peer id, and from kLocalPeer.
  std::vector<std::size_t> peer_route_counts_;
  std::size_t local_route_count_ = 0;
  AttrTable attrs_;
  std::size_t num_routes_ = 0;
  std::size_t num_prefixes_ = 0;  // live (non-tombstone) entries
  obs::ProfileSite announce_site_;
  obs::ProfileSite withdraw_site_;
  obs::ProfileSite lookup_site_;
};

}  // namespace iri::bgp
