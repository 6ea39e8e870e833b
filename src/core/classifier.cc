#include "core/classifier.h"

#include <algorithm>
#include <numeric>

#include "core/invariants.h"
#include "sim/parallel.h"

namespace iri::core {

// The taxonomy's two super-classes must partition: no category is both
// instability and pathology (checked for every bin at compile time).
template <std::size_t... I>
constexpr bool PartitionsAreDisjoint(std::index_sequence<I...>) {
  return ((!(IsInstability(static_cast<Category>(I)) &&
             IsPathology(static_cast<Category>(I)))) && ...);
}
static_assert(PartitionsAreDisjoint(std::make_index_sequence<kNumCategories>{}),
              "IsInstability and IsPathology must be disjoint");

const char* ToString(Category c) {
  switch (c) {
    case Category::kWADiff: return "WADiff";
    case Category::kAADiff: return "AADiff";
    case Category::kWADup: return "WADup";
    case Category::kAADup: return "AADup";
    case Category::kWWDup: return "WWDup";
    case Category::kWithdraw: return "Withdraw";
    case Category::kInitial: return "Initial";
  }
  return "?";
}

ClassifiedEvent Classifier::Classify(const UpdateEvent& ev) {
  const ShardVerdict v = ClassifyVerdict(ev);
  return ClassifiedEvent{ev, v.category, v.policy_fluctuation};
}

ShardVerdict Classifier::ClassifyVerdict(const UpdateEvent& ev) {
  ShardVerdict out;
  auto [st_ptr, fresh] = state_.TryEmplace(ev.Key());
  RouteState& st = *st_ptr;

  if (ev.is_withdraw) {
    if (fresh || st.status == RouteStatus::kWithdrawn) {
      // Withdrawal of a route that is not announced (or never was):
      // the paper's dominant pathology.
      out.category = Category::kWWDup;
    } else {
      out.category = Category::kWithdraw;
      st.status = RouteStatus::kWithdrawn;
      // last_attr_id intentionally retained for WADup detection.
    }
  } else {
    // The monitor interned the set once per UPDATE: equal attr_id is a
    // byte-equal set, equal fwd_id the paper's matching forwarding tuple.
    const bool same_forwarding = ev.fwd_id == st.last_fwd_id;
    if (fresh) {
      out.category = Category::kInitial;
    } else if (st.status == RouteStatus::kAnnounced) {
      if (same_forwarding) {
        out.category = Category::kAADup;
        out.policy_fluctuation = ev.attr_id != st.last_attr_id;
      } else {
        out.category = Category::kAADiff;
      }
    } else {  // previously withdrawn, now re-announced
      out.category =
          same_forwarding ? Category::kWADup : Category::kWADiff;
    }
    st.status = RouteStatus::kAnnounced;
    st.last_attr_id = ev.attr_id;
    st.last_fwd_id = ev.fwd_id;
  }

  IRI_ASSERT(static_cast<std::size_t>(out.category) < kNumCategories,
             "classifier produced an out-of-range category");
  ++totals_[static_cast<std::size_t>(out.category)];
  ++events_;
#if defined(IRI_PROVENANCE_ENABLED) && IRI_PROVENANCE_ENABLED
  // Attribution: record the verdict against the event's root cause. A cause
  // "touches" this route the first time one of its descendants reaches it
  // (blast radius counts routes, not events).
  const bool first_touch = ev.cause.id != st.last_cause_id;
  prov_.Record(static_cast<std::size_t>(out.category), ev.cause, ev.time,
               first_touch);
  st.last_cause_id = ev.cause.id;
#endif
  // Conservation: the seven bins partition the event stream exactly. A
  // drift here would silently reshape Figure 2.
  IRI_DCHECK(std::accumulate(totals_.begin(), totals_.end(),
                             std::uint64_t{0}) == events_,
             "category counts must conserve total events");
  return out;
}

// ------------------------------------------------------- ShardedClassifier

ShardedClassifier::ShardedClassifier(int num_shards) : map_(1) {
  Configure(num_shards);
}

void ShardedClassifier::Configure(int num_shards) {
  IRI_ASSERT(total_events() == 0,
             "ShardedClassifier reconfigured after events were classified");
  if (num_shards < 1) num_shards = 1;
  IRI_ASSERT(num_shards <= 255, "shard count must fit the per-event tag");
  map_ = ShardMap(num_shards);
  shards_.clear();
  shards_.reserve(static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Classifier>());
  }
  last_batch_counts_.assign(static_cast<std::size_t>(num_shards), 0);
}

void ShardedClassifier::ClassifyInto(const UpdateEvent& ev,
                                     ClassifiedEvent& out) {
  out = shards_[static_cast<std::size_t>(map_.ShardOf(ev.prefix))]->Classify(
      ev);
}

void ShardedClassifier::ClassifyBatch(std::span<const UpdateEvent> events,
                                      std::span<ShardVerdict> verdicts,
                                      int threads) {
  IRI_ASSERT(events.size() == verdicts.size(),
             "verdict buffer must match the batch");
  const std::size_t n = events.size();
  std::fill(last_batch_counts_.begin(), last_batch_counts_.end(), 0);
  if (map_.num_shards() == 1) {
    Classifier& c = *shards_[0];
    for (std::size_t i = 0; i < n; ++i) {
      verdicts[i] = c.ClassifyVerdict(events[i]);
    }
    last_batch_counts_[0] = n;
    return;
  }
  // One pass tags every event with its owning shard, so the per-shard
  // sweeps below compare a byte instead of re-hashing the prefix.
  if (shard_of_.size() < n) shard_of_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int s = map_.ShardOf(events[i].prefix);
    shard_of_[i] = static_cast<std::uint8_t>(s);
    ++last_batch_counts_[static_cast<std::size_t>(s)];
  }
  // Each worker owns one shard: it reads the shared batch, mutates only its
  // own Classifier, and writes only the verdict slots of its own events.
  sim::ParallelFor(map_.num_shards(), threads, [&](int s) {
    Classifier& c = *shards_[static_cast<std::size_t>(s)];
    const auto tag = static_cast<std::uint8_t>(s);
    for (std::size_t i = 0; i < n; ++i) {
      if (shard_of_[i] == tag) verdicts[i] = c.ClassifyVerdict(events[i]);
    }
  });
}

const std::array<std::uint64_t, kNumCategories>& ShardedClassifier::totals()
    const {
  totals_cache_.fill(0);
  for (const auto& shard : shards_) {
    const auto& t = shard->totals();
    for (std::size_t c = 0; c < kNumCategories; ++c) totals_cache_[c] += t[c];
  }
  return totals_cache_;
}

std::uint64_t ShardedClassifier::total_events() const {
  std::uint64_t sum = 0;
  for (const auto& shard : shards_) sum += shard->total_events();
  return sum;
}

std::size_t ShardedClassifier::TrackedRoutes() const {
  std::size_t sum = 0;
  for (const auto& shard : shards_) sum += shard->TrackedRoutes();
  return sum;
}

void ShardedClassifier::MergeProvenanceInto(obs::ShardProvenance& out) const {
  for (const auto& shard : shards_) out.Merge(shard->provenance());
}

void ShardedClassifier::Reset() {
  for (const auto& shard : shards_) shard->Reset();
}

}  // namespace iri::core
