// The paper's routing-update taxonomy (§4), implemented as a streaming
// classifier over per-(Prefix, peer) state.
//
// Categories, keyed on the forwarding tuple (Prefix, NextHop, ASPATH):
//
//   WADiff  explicit withdrawal later replaced by a *different* route
//           (forwarding instability)
//   AADiff  implicit withdrawal: announcement replaced by a *different*
//           route (forwarding instability)
//   WADup   explicit withdrawal then re-announcement of the *same* route
//           (forwarding instability or pathology)
//   AADup   announcement replaced by an *identical* forwarding tuple
//           (pathology; if non-forwarding attributes changed it is policy
//           fluctuation — reported via the policy_fluctuation flag)
//   WWDup   a withdrawal for a prefix that is already unreachable from that
//           peer (pathology — the dominant class in the measured data)
//   Withdraw  first withdrawal of an announced route: the W of a future
//           WA pair; legitimate topology information, not yet categorizable
//   Initial first sighting of a (Prefix, peer) announcement (table dumps,
//           genuinely new networks) — the paper's "uncategorized"
//
// Instability (the paper's term) = WADiff + AADiff + WADup.
// Pathology = AADup + WWDup.
#pragma once

#include <array>
#include <cstdint>

#include "bgp/intern.h"
#include "core/event.h"
#include "netbase/probe_map.h"
#include "obs/provenance.h"

namespace iri::core {

enum class Category : std::uint8_t {
  kWADiff = 0,
  kAADiff = 1,
  kWADup = 2,
  kAADup = 3,
  kWWDup = 4,
  kWithdraw = 5,
  kInitial = 6,
};
inline constexpr std::size_t kNumCategories = 7;

const char* ToString(Category c);

// True for the classes the paper calls "instability" (forwarding
// instability + possible pathology WADup).
constexpr bool IsInstability(Category c) {
  return c == Category::kWADiff || c == Category::kAADiff ||
         c == Category::kWADup;
}

// True for redundant/pathological classes.
constexpr bool IsPathology(Category c) {
  return c == Category::kAADup || c == Category::kWWDup;
}

struct ClassifiedEvent {
  UpdateEvent event;
  Category category = Category::kInitial;
  // For AADup: the forwarding tuple was identical but some other attribute
  // (MED, communities, ...) changed — the paper's "policy fluctuation".
  bool policy_fluctuation = false;
};

// The event-free half of a classification: what Classify decides before it
// copies the event. The monitor joins it with the event it already holds.
struct Verdict {
  Category category = Category::kInitial;
  bool policy_fluctuation = false;
};

class Classifier {
 public:
  Classifier() {
    // Probed-only flat map (TryEmplace/Find; no iteration API, so its layout
    // cannot reach any output). Pre-sizing skips the early rehash cascade —
    // at paper scale the table grows to (42 k prefixes × peers) entries
    // within the first hour.
    state_.Reserve(1 << 12);
  }

  // Classifies `ev` against the per-route state and updates that state.
  ClassifiedEvent Classify(const UpdateEvent& ev);

  // Verdict-only variant: identical state/total updates, no event copy.
  Verdict ClassifyVerdict(const UpdateEvent& ev);

  // Number of (Prefix, peer) routes with live state.
  std::size_t TrackedRoutes() const { return state_.size(); }

  // Running totals by category.
  const std::array<std::uint64_t, kNumCategories>& totals() const {
    return totals_;
  }

  // Events classified since construction/Reset. The conservation invariant —
  // the paper's seven bins partition the event stream — is sum(totals()) ==
  // total_events(), audited by IRI_DCHECK on every Classify.
  std::uint64_t total_events() const { return events_; }

  void Reset() {
    state_.Clear();
    totals_.fill(0);
    events_ = 0;
    prov_ = obs::ShardProvenance{};
  }

  // Attribution aggregate: pathology class x root cause kind x hop depth,
  // fed at verdict time from each event's provenance tag. Empty when
  // provenance is compiled out. Category indices fit ShardProvenance's
  // class axis (kNumCategories <= kMaxClasses, checked below).
  const obs::ShardProvenance& provenance() const { return prov_; }

 private:
  enum class RouteStatus : std::uint8_t { kAnnounced, kWithdrawn };

  struct RouteState {
    RouteStatus status = RouteStatus::kWithdrawn;
    // Last announced attribute set, as the ids its events carried (survives
    // withdrawal: WADup compares a re-announcement against the route that
    // was withdrawn). Two ids instead of a full set keep this per-(Prefix,
    // peer) state small — at paper scale that is 42 k prefixes × peers
    // entries, a share of perfbench's peak_rss_mb — and make the
    // exact-duplicate and forwarding-tuple tests integer compares. Fresh
    // state remembers the empty set (id 0, forwarding class 0): a
    // WWDup-created route later compares its first announcement against
    // exactly that.
    bgp::AttrSetId last_attr_id = bgp::kEmptyAttrSetId;
    bgp::ForwardingId last_fwd_id = 0;
#if defined(IRI_PROVENANCE_ENABLED) && IRI_PROVENANCE_ENABLED
    // Last cause id seen on this route — blast-radius dedup: a cause's
    // `prefixes` counts (prefix, peer) routes it newly reached, not events.
    std::uint32_t last_cause_id = 0;
#endif
  };

  ProbeMap<bgp::PrefixPeer, RouteState> state_;
  std::array<std::uint64_t, kNumCategories> totals_{};
  std::uint64_t events_ = 0;
  static_assert(kNumCategories <= obs::ShardProvenance::kMaxClasses);
  obs::ShardProvenance prov_;
};

}  // namespace iri::core
