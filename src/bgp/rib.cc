#include "bgp/rib.h"

#include <algorithm>

#include "core/invariants.h"

namespace iri::bgp {

void Rib::AddPeer(PeerId peer, IPv4Address router_id) {
  if (peer == kLocalPeer) {
    local_router_id_ = router_id;
    return;
  }
  if (peer >= peer_route_counts_.size()) {
    peer_route_counts_.resize(static_cast<std::size_t>(peer) + 1, 0);
    peer_router_ids_.resize(peer_route_counts_.size());
  }
  peer_router_ids_[peer] = router_id;
}

PrefixSlot Rib::Slot(const Prefix& prefix) {
  auto [slot, fresh] = index_.TryEmplace(prefix);
  if (fresh) {
    *slot = static_cast<PrefixSlot>(entries_.size());
    entries_.push_back(Entry{prefix, {}, -1});
  }
  return *slot;
}

RibChange Rib::Announce(PeerId peer, PrefixSlot slot, AttrSetId attrs) {
  obs::ScopedTimer timer(&announce_site_, 1);
  const std::optional<IPv4Address>& router_id =
      peer == kLocalPeer               ? local_router_id_
      : peer < peer_router_ids_.size() ? peer_router_ids_[peer]
                                       : kUnregistered;
  IRI_ASSERT(router_id.has_value(),
             "Announce from a peer never registered with AddPeer");
  IRI_ASSERT(attrs_.Contains(attrs), "Announce of an id not from attrs()");
  Entry* entry = &entries_[slot];
  if (entry->candidates.empty()) ++num_prefixes_;  // tombstone revived
  const bool had_best = entry->best >= 0;
  const PeerId old_best_peer =
      had_best ? entry->candidates[static_cast<std::size_t>(entry->best)].peer
               : kLocalPeer;

  // Only the announcing peer's candidate can mutate, so change detection
  // needs exactly one id compare, made before the overwrite.
  Candidate* own = nullptr;
  for (auto& cand : entry->candidates) {
    if (cand.peer == peer) {  // implicit withdrawal of the previous path
      own = &cand;
      break;
    }
  }
  const bool same_attrs = own != nullptr && own->attr_id == attrs;
  if (own == nullptr) {
    own = &entry->candidates.emplace_back();
    own->peer = peer;
    own->peer_router_id = *router_id;
    ++RouteCount(peer);
    ++num_routes_;
  }
  own->attr_id = attrs;
  own->decision = attrs_.Decision(attrs);

  entry->best = SelectBest(entry->candidates);
  IRI_DCHECK(entry->best >= 0 && static_cast<std::size_t>(entry->best) <
                                     entry->candidates.size(),
             "decision process must pick a best route from the candidates");
  const Candidate& new_best =
      entry->candidates[static_cast<std::size_t>(entry->best)];
  RibChange change;
  change.slot = slot;
  change.new_best = &new_best;
  if (!had_best || old_best_peer != new_best.peer) {
    change.best_changed = true;
  } else {
    // Same peer stayed best. If it is the announcing peer its attributes may
    // have changed (compared above); any other candidate is untouched.
    change.best_changed = new_best.peer == peer && !same_attrs;
  }
  return change;
}

RibChange Rib::Withdraw(PeerId peer, PrefixSlot slot) {
  obs::ScopedTimer timer(&withdraw_site_, 1);
  if (slot == kNoSlot) return {};
  Entry* entry = &entries_[slot];
  const bool had_best = entry->best >= 0;
  const PeerId old_best_peer =
      had_best ? entry->candidates[static_cast<std::size_t>(entry->best)].peer
               : kLocalPeer;

  RibChange change;
  change.slot = slot;
  auto own = std::find_if(
      entry->candidates.begin(), entry->candidates.end(),
      [peer](const Candidate& c) { return c.peer == peer; });
  if (own == entry->candidates.end()) {
    // Pathological withdrawal: nothing to do, the best stands.
    if (had_best) {
      change.new_best =
          &entry->candidates[static_cast<std::size_t>(entry->best)];
    }
    return change;
  }
  entry->candidates.erase(own);
  IRI_ASSERT(num_routes_ > 0 && RouteCount(peer) > 0,
             "Adj-RIB-In count underflow: removed a route while num_routes_ "
             "or the peer's route count was already zero");
  --RouteCount(peer);
  --num_routes_;

  if (entry->candidates.empty()) {
    // Tombstone: the entry (and its candidate buffer) keeps its slot so the
    // next announcement of this prefix reuses it wholesale.
    entry->best = -1;
    --num_prefixes_;
    change.best_changed = had_best;
    return change;
  }
  entry->best = SelectBest(entry->candidates);
  change.new_best = &entry->candidates[static_cast<std::size_t>(entry->best)];
  // The entry was live, so it had a best. Removing a non-best candidate can
  // still move the best: MED compares only routes from one neighbour AS, so
  // the ladder is not transitive and SelectBest's pairwise scan depends on
  // which candidates it meets. An unchanged best peer is the same candidate,
  // attributes included.
  change.best_changed = change.new_best->peer != old_best_peer;
  return change;
}

std::vector<PrefixSlot> Rib::ClearPeer(PeerId peer) {
  std::vector<PrefixSlot> changed;
  // Address-order scan, stopping once the peer holds nothing: withdrawing
  // by slot mints nothing, so the order list is stable across the loop.
  for (const std::uint32_t slot : AddressOrder()) {
    if (PeerRouteCount(peer) == 0) break;
    const Entry& e = entries_[slot];
    const bool held = std::any_of(
        e.candidates.begin(), e.candidates.end(),
        [peer](const Candidate& c) { return c.peer == peer; });
    if (held && Withdraw(peer, slot).best_changed) changed.push_back(slot);
  }
  IRI_DCHECK(PeerRouteCount(peer) == 0,
             "ClearPeer must drop every route learned from the peer");
  IRI_DCHECK(AuditInvariants(), "RIB bookkeeping inconsistent after ClearPeer");
  return changed;
}

const Candidate* Rib::Best(PrefixSlot slot) const {
  obs::ScopedTimer timer(&lookup_site_, 1);
  if (slot == kNoSlot || entries_[slot].best < 0) return nullptr;
  const Entry& entry = entries_[slot];
  return &entry.candidates[static_cast<std::size_t>(entry.best)];
}

std::vector<Candidate> Rib::CandidatesFor(const Prefix& prefix) const {
  const PrefixSlot slot = FindSlot(prefix);
  if (slot == kNoSlot) return {};
  return entries_[slot].candidates;
}

std::size_t Rib::PeerRouteCount(PeerId peer) const {
  if (peer == kLocalPeer) return local_route_count_;
  return peer < peer_route_counts_.size() ? peer_route_counts_[peer] : 0;
}

const std::vector<std::uint32_t>& Rib::AddressOrder() const {
  const std::size_t sorted = address_order_.size();
  if (sorted == entries_.size()) return address_order_;
  for (std::size_t i = sorted; i < entries_.size(); ++i) {
    address_order_.push_back(static_cast<std::uint32_t>(i));
  }
  const auto by_prefix = [this](std::uint32_t a, std::uint32_t b) {
    return entries_[a].prefix < entries_[b].prefix;
  };
  const auto mid = address_order_.begin() + static_cast<std::ptrdiff_t>(sorted);
  std::sort(mid, address_order_.end(), by_prefix);
  std::inplace_merge(address_order_.begin(), mid, address_order_.end(),
                     by_prefix);
  return address_order_;
}

bool Rib::AuditInvariants() const {
  std::size_t candidate_total = 0;
  std::size_t live_prefixes = 0;
  std::size_t malformed_entries = 0;   // best index out of range, or a
                                       // tombstone still claiming a best
  std::size_t duplicate_peer_routes = 0;
  std::size_t stale_index_entries = 0; // index_ disagrees with entries_
  std::size_t bad_attr_ids = 0;        // id out of range, or cached decision
                                       // fields that disagree with attrs_
  // Candidate tally per peer, beside the counts it must equal.
  std::vector<std::size_t> tally(peer_route_counts_.size(), 0);
  std::size_t local_tally = 0;
  std::size_t uncounted_routes = 0;  // from a peer id with no count
  for (std::size_t slot = 0; slot < entries_.size(); ++slot) {
    const Entry& e = entries_[slot];
    const std::uint32_t* idx = index_.Find(e.prefix);
    if (idx == nullptr || *idx != slot) ++stale_index_entries;
    candidate_total += e.candidates.size();
    if (e.candidates.empty()) {
      if (e.best != -1) ++malformed_entries;
      continue;  // tombstone: parked storage only, invisible to readers
    }
    ++live_prefixes;
    if (e.best < 0 ||
        static_cast<std::size_t>(e.best) >= e.candidates.size()) {
      ++malformed_entries;
    }
    for (std::size_t i = 0; i < e.candidates.size(); ++i) {
      const Candidate& c = e.candidates[i];
      if (!attrs_.Contains(c.attr_id) ||
          !(c.decision == attrs_.Decision(c.attr_id))) {
        ++bad_attr_ids;
      }
      for (std::size_t j = i + 1; j < e.candidates.size(); ++j) {
        if (c.peer == e.candidates[j].peer) ++duplicate_peer_routes;
      }
      if (c.peer == kLocalPeer) {
        ++local_tally;
      } else if (c.peer < tally.size()) {
        ++tally[c.peer];
      } else {
        ++uncounted_routes;
      }
    }
  }
  // Both ways: every entry is indexed under its own slot, and the index
  // holds nothing else (equal sizes, distinct slots).
  const bool index_ok =
      stale_index_entries == 0 && index_.size() == entries_.size();
  const bool counts_ok = uncounted_routes == 0 &&
                        local_tally == local_route_count_ &&
                        tally == peer_route_counts_;
  std::size_t counted_total = local_route_count_;
  for (const std::size_t n : peer_route_counts_) counted_total += n;
  const std::vector<std::uint32_t>& order = AddressOrder();
  bool order_ok = order.size() == entries_.size();
  for (std::size_t i = 1; order_ok && i < order.size(); ++i) {
    order_ok = entries_[order[i - 1]].prefix < entries_[order[i]].prefix;
  }

  IRI_ASSERT(malformed_entries == 0,
             "RIB entry best index out of range or tombstone with a best");
  IRI_ASSERT(live_prefixes == num_prefixes_,
             "num_prefixes_ disagrees with the table's live entry count");
  IRI_ASSERT(index_ok, "exact-match index out of sync with the entries");
  IRI_ASSERT(order_ok, "address-order list is not a sorted list of slots");
  IRI_ASSERT(duplicate_peer_routes == 0,
             "Adj-RIB-In holds two routes from one peer for one prefix");
  IRI_ASSERT(counts_ok,
             "a per-peer route count disagrees with that peer's candidates");
  IRI_ASSERT(bad_attr_ids == 0,
             "candidate attribute id out of range or its cached decision "
             "fields disagree with the attribute table");
  IRI_ASSERT(candidate_total == num_routes_,
             "num_routes_ disagrees with the table's candidate count");
  IRI_ASSERT(counted_total == num_routes_,
             "num_routes_ disagrees with the per-peer count total");
  return malformed_entries == 0 && live_prefixes == num_prefixes_ &&
         index_ok && order_ok && duplicate_peer_routes == 0 && counts_ok &&
         bad_attr_ids == 0 && candidate_total == num_routes_ &&
         counted_total == num_routes_;
}

}  // namespace iri::bgp
