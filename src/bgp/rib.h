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
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bgp/decision.h"
#include "bgp/intern.h"
#include "bgp/route.h"
#include "netbase/probe_map.h"
#include "netbase/radix_trie.h"
#include "obs/profile.h"

namespace iri::bgp {

// Outcome of applying one route event to the RIB.
struct RibChange {
  // True if the Loc-RIB entry for the prefix changed (new best, different
  // best attributes, or loss of all routes).
  bool best_changed = false;
  // The new best route, or nullptr if the prefix is now unreachable. Points
  // into the RIB's own storage: valid only until the next mutation of this
  // Rib (the allocation-free replacement for the std::optional<Candidate>
  // deep copy this used to be — Announce/Withdraw are the hottest calls in
  // the full-paper-scale run).
  const Candidate* new_best = nullptr;
};

class Rib {
 public:
  // Pre-size the probed-only exact-match index: a border router at paper
  // scale tracks tens of thousands of prefixes, and the early rehash
  // cascade shows up in the full-paper profile.
  Rib() { index_.Reserve(1 << 12); }

  // Registers a peer before routes from it can be accepted. `router_id` is
  // used for the final decision tie-break.
  void AddPeer(PeerId peer, IPv4Address router_id);

  bool HasPeer(PeerId peer) const { return peers_.contains(peer); }

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

  // Applies an announcement from `peer` of the interned set `attrs` (an id
  // of attrs()). Replaces any previous route from the same peer for the
  // same prefix (implicit withdrawal).
  RibChange Announce(PeerId peer, const Prefix& prefix, AttrSetId attrs);

  // Interns route.attributes, then announces it.
  RibChange Announce(PeerId peer, const Route& route) {
    return Announce(peer, route.prefix, attrs_.Intern(route.attributes));
  }

  // Applies an explicit withdrawal. A withdrawal for a route the peer never
  // announced is a no-op (this is how WWDup pathologies look to a receiver).
  RibChange Withdraw(PeerId peer, const Prefix& prefix);

  // Drops every route learned from `peer` (session loss). Returns the
  // prefixes whose best route changed; callers re-read Best() for the new
  // state (every existing caller only needed the prefix list).
  std::vector<Prefix> ClearPeer(PeerId peer);

  // Current best route for `prefix`, or nullptr if unreachable.
  const Candidate* Best(const Prefix& prefix) const;

  // All candidates currently held for `prefix` (used by the multihoming
  // census and by tests).
  std::vector<Candidate> CandidatesFor(const Prefix& prefix) const;

  // Number of distinct prefixes with at least one path. (Withdrawn-to-empty
  // entries linger in the trie as tombstones so a flap cycle reuses their
  // storage; they are excluded here and skipped by every visitor.)
  std::size_t NumPrefixes() const { return num_prefixes_; }

  // Number of routes (prefix, peer) pairs in all Adj-RIBs-In.
  std::size_t NumRoutes() const { return num_routes_; }

  // Number of prefixes learned from `peer`.
  std::size_t PeerRouteCount(PeerId peer) const;

  // Full O(routes) structural audit of the Adj-RIB-In bookkeeping:
  // num_routes_ equals both the per-peer index total and the table's
  // candidate count, num_prefixes_ equals the live entry count, every live
  // entry has a valid best index (tombstones have none), no entry holds
  // two routes from the same peer, and every candidate's attribute id is in
  // range of attrs() with cached decision fields equal to the table's.
  // Returns true when consistent (and IRI_ASSERTs each clause, so under the
  // default abort policy a false return is unreachable). Called by tests and
  // by debug builds after every ClearPeer.
  bool AuditInvariants() const;

  // Visits (prefix, best candidate) over the whole Loc-RIB in address order.
  template <typename Fn>
  void VisitBest(Fn&& fn) const {
    table_.Visit([&fn](const Prefix& p, const Entry& e) {
      if (e.best >= 0) fn(p, e.candidates[static_cast<std::size_t>(e.best)]);
    });
  }

  // Visits (prefix, number of distinct paths) — Figure 10's multihoming
  // census runs on this.
  template <typename Fn>
  void VisitPathCounts(Fn&& fn) const {
    table_.Visit([&fn](const Prefix& p, const Entry& e) {
      if (!e.candidates.empty()) fn(p, e.candidates.size());
    });
  }

 private:
  struct Entry {
    std::vector<Candidate> candidates;
    int best = -1;  // index into candidates, -1 when empty
  };

  RadixTrie<Entry> table_;
  // Exact-match accelerator over the trie: one flat probe instead of a
  // length()-deep pointer chase, on every Announce/Withdraw/Best. Entry
  // pointers are stable because entries are never erased (tombstones), and
  // ProbeMap has no iteration API, so its slot order cannot reach any
  // output. Address-order visitation stays on the trie.
  ProbeMap<Prefix, Entry*> index_;
  std::unordered_map<PeerId, IPv4Address> peers_;
  std::unordered_map<PeerId, std::unordered_set<Prefix>> peer_prefixes_;
  AttrTable attrs_;
  std::size_t num_routes_ = 0;
  std::size_t num_prefixes_ = 0;  // live (non-tombstone) entries
  obs::ProfileSite announce_site_;
  obs::ProfileSite withdraw_site_;
  obs::ProfileSite lookup_site_;
};

}  // namespace iri::bgp
