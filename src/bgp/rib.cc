#include "bgp/rib.h"

#include "core/invariants.h"

namespace iri::bgp {

void Rib::AddPeer(PeerId peer, IPv4Address router_id) {
  peers_[peer] = router_id;
}

RibChange Rib::Announce(PeerId peer, const Prefix& prefix, AttrSetId attrs) {
  obs::ScopedTimer timer(&announce_site_, 1);
  IRI_ASSERT(peers_.contains(peer),
             "Announce from a peer never registered with AddPeer");
  IRI_ASSERT(attrs_.Contains(attrs), "Announce of an id not from attrs()");
  Entry* entry;
  if (Entry** slot = index_.Find(prefix); slot != nullptr) {
    entry = *slot;
  } else {
    table_.Insert(prefix, Entry{});
    entry = table_.Find(prefix);
    *index_.TryEmplace(prefix).first = entry;
  }
  if (entry->candidates.empty()) ++num_prefixes_;  // fresh entry or tombstone
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
    own->peer_router_id = peers_[peer];
    peer_prefixes_[peer].insert(prefix);
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

RibChange Rib::Withdraw(PeerId peer, const Prefix& prefix) {
  obs::ScopedTimer timer(&withdraw_site_, 1);
  Entry* const* slot = index_.Find(prefix);
  if (slot == nullptr) return {};
  Entry* entry = *slot;
  const bool had_best = entry->best >= 0;
  const PeerId old_best_peer =
      had_best ? entry->candidates[static_cast<std::size_t>(entry->best)].peer
               : kLocalPeer;

  bool removed = false;
  for (std::size_t i = 0; i < entry->candidates.size(); ++i) {
    if (entry->candidates[i].peer == peer) {
      entry->candidates.erase(entry->candidates.begin() +
                              static_cast<std::ptrdiff_t>(i));
      removed = true;
      break;
    }
  }
  if (!removed) return {};  // pathological withdrawal: nothing to do
  IRI_ASSERT(num_routes_ > 0,
             "Adj-RIB-In count underflow: removed a route while num_routes_ "
             "was already zero");
  peer_prefixes_[peer].erase(prefix);
  --num_routes_;

  if (entry->candidates.empty()) {
    // Tombstone: the entry (and its candidate buffer) stays in the trie so
    // the next announcement of this prefix reuses it wholesale.
    entry->best = -1;
    --num_prefixes_;
    RibChange change;
    change.best_changed = had_best;
    return change;
  }
  entry->best = SelectBest(entry->candidates);
  RibChange change;
  change.new_best = &entry->candidates[static_cast<std::size_t>(entry->best)];
  // Removing a non-best candidate never changes the best: the decision
  // ladder is a total order, so the previous maximum still wins.
  change.best_changed = had_best && old_best_peer == peer;
  return change;
}

std::vector<Prefix> Rib::ClearPeer(PeerId peer) {
  std::vector<Prefix> changed;
  auto it = peer_prefixes_.find(peer);
  if (it == peer_prefixes_.end()) return changed;
  // Copy: Withdraw mutates peer_prefixes_[peer].
  const std::vector<Prefix> prefixes(it->second.begin(), it->second.end());
  changed.reserve(prefixes.size());
  for (const Prefix& p : prefixes) {
    if (Withdraw(peer, p).best_changed) changed.push_back(p);
  }
  IRI_DCHECK(PeerRouteCount(peer) == 0,
             "ClearPeer must drop every route learned from the peer");
  IRI_DCHECK(AuditInvariants(), "RIB bookkeeping inconsistent after ClearPeer");
  return changed;
}

const Candidate* Rib::Best(const Prefix& prefix) const {
  obs::ScopedTimer timer(&lookup_site_, 1);
  Entry* const* slot = index_.Find(prefix);
  if (slot == nullptr || (*slot)->best < 0) return nullptr;
  const Entry* entry = *slot;
  return &entry->candidates[static_cast<std::size_t>(entry->best)];
}

std::vector<Candidate> Rib::CandidatesFor(const Prefix& prefix) const {
  Entry* const* slot = index_.Find(prefix);
  if (slot == nullptr) return {};
  return (*slot)->candidates;
}

std::size_t Rib::PeerRouteCount(PeerId peer) const {
  auto it = peer_prefixes_.find(peer);
  return it == peer_prefixes_.end() ? 0 : it->second.size();
}

bool Rib::AuditInvariants() const {
  std::size_t candidate_total = 0;
  std::size_t live_prefixes = 0;
  std::size_t malformed_entries = 0;   // best index out of range, or a
                                       // tombstone still claiming a best
  std::size_t duplicate_peer_routes = 0;
  std::size_t unindexed_routes = 0;    // candidate missing from peer_prefixes_
  std::size_t stale_index_entries = 0; // index_ disagrees with the trie
  std::size_t bad_attr_ids = 0;        // id out of range, or cached decision
                                       // fields that disagree with attrs_
  table_.Visit([&](const Prefix& prefix, const Entry& e) {
    Entry* const* idx = index_.Find(prefix);
    if (idx == nullptr || *idx != &e) ++stale_index_entries;
    candidate_total += e.candidates.size();
    if (e.candidates.empty()) {
      if (e.best != -1) ++malformed_entries;
      return;  // tombstone: parked storage only, invisible to readers
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
        if (e.candidates[i].peer == e.candidates[j].peer) {
          ++duplicate_peer_routes;
        }
      }
      auto it = peer_prefixes_.find(e.candidates[i].peer);
      if (it == peer_prefixes_.end() || !it->second.contains(prefix)) {
        ++unindexed_routes;
      }
    }
  });
  std::size_t indexed_total = 0;
  for (const auto& [peer, prefixes] : peer_prefixes_) {
    indexed_total += prefixes.size();
  }

  IRI_ASSERT(malformed_entries == 0,
             "RIB entry best index out of range or tombstone with a best");
  IRI_ASSERT(live_prefixes == num_prefixes_,
             "num_prefixes_ disagrees with the table's live entry count");
  IRI_ASSERT(stale_index_entries == 0 && index_.size() == table_.size(),
             "exact-match index out of sync with the trie");
  IRI_ASSERT(duplicate_peer_routes == 0,
             "Adj-RIB-In holds two routes from one peer for one prefix");
  IRI_ASSERT(unindexed_routes == 0,
             "route present in the table but missing from the per-peer index");
  IRI_ASSERT(bad_attr_ids == 0,
             "candidate attribute id out of range or its cached decision "
             "fields disagree with the attribute table");
  IRI_ASSERT(candidate_total == num_routes_,
             "num_routes_ disagrees with the table's candidate count");
  IRI_ASSERT(indexed_total == num_routes_,
             "num_routes_ disagrees with the per-peer index total");
  return malformed_entries == 0 && duplicate_peer_routes == 0 &&
         unindexed_routes == 0 && candidate_total == num_routes_ &&
         indexed_total == num_routes_ && live_prefixes == num_prefixes_ &&
         stale_index_entries == 0 && index_.size() == table_.size() &&
         bad_attr_ids == 0;
}

}  // namespace iri::bgp
