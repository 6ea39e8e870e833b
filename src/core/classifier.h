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
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bgp/intern.h"
#include "core/event.h"
#include "netbase/probe_map.h"
#include "netbase/shard.h"
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
// copies the event. The sharded batch pipeline classifies a whole batch
// into an array of these (2 bytes each), then re-joins verdicts with their
// events in arrival order.
struct ShardVerdict {
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
  // This is what each shard runs over its slice of a pending batch.
  ShardVerdict ClassifyVerdict(const UpdateEvent& ev);

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

// N Classifiers behind a stable prefix->shard map (netbase/shard.h).
//
// Correctness argument (DESIGN.md §13): every (Prefix, peer) key maps to
// exactly one shard, so that key's per-route state machine sees exactly the
// event stream it would have seen unsharded, in arrival order. Category
// verdicts are pure functions of per-key state and the event value (the
// attribute ids all come from the one monitor table and are only compared
// for equality), so each event's verdict is identical at any shard count.
// Aggregates (totals, tracked routes, event counts) are sums over disjoint
// key sets, always accumulated in fixed shard order 0..N-1 — byte-identical
// output at any (threads x shards) combination, pinned by the golden matrix
// in tests/golden_run_test.cc and the shard-merge property suite.
//
// ClassifyBatch fans a pending batch over the shards via sim::ParallelFor
// (the repo's only threading primitive). Each worker touches only its own
// shard's Classifier and its own events' verdict slots, so the partitions
// are disjoint by construction (the CI TSan leg runs the golden matrix to
// prove it).
class ShardedClassifier {
 public:
  explicit ShardedClassifier(int num_shards = 1);

  int num_shards() const { return map_.num_shards(); }
  const ShardMap& map() const { return map_; }

  // Reconfigures the shard count. Only legal while no events have been
  // classified (the monitor configures sharding at scenario build time).
  void Configure(int num_shards);

  // Serial single-event path (offline replay, tests): routes `ev` to its
  // owning shard. Identical verdicts to the batch path.
  void ClassifyInto(const UpdateEvent& ev, ClassifiedEvent& out);

  // Classifies events[i] -> verdicts[i] for the whole batch, fanning the
  // shards across `threads` workers (1 = inline serial). Within a shard,
  // events are processed in batch (= arrival) order.
  void ClassifyBatch(std::span<const UpdateEvent> events,
                     std::span<ShardVerdict> verdicts, int threads);

  // Per-shard event counts of the most recent ClassifyBatch call — the
  // bench's per-shard queue-depth signal. Index == shard.
  const std::vector<std::uint64_t>& last_batch_shard_counts() const {
    return last_batch_counts_;
  }

  // Aggregates, summed in fixed shard order.
  const std::array<std::uint64_t, kNumCategories>& totals() const;
  std::uint64_t total_events() const;
  std::size_t TrackedRoutes() const;

  // Sums the per-shard attribution aggregates into `out` in fixed shard
  // order 0..N-1 (ShardProvenance::Merge is an iri_det aggregation sink —
  // same contract as totals()).
  void MergeProvenanceInto(obs::ShardProvenance& out) const;

  // Shard access for tests and the memory report.
  const Classifier& shard(int i) const {
    return *shards_[static_cast<std::size_t>(i)];
  }

  void Reset();

 private:
  ShardMap map_;
  std::vector<std::unique_ptr<Classifier>> shards_;
  std::vector<std::uint8_t> shard_of_;  // per-batch scratch: event -> shard
  std::vector<std::uint64_t> last_batch_counts_;
  mutable std::array<std::uint64_t, kNumCategories> totals_cache_{};
};

}  // namespace iri::core
