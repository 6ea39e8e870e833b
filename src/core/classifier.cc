#include "core/classifier.h"

#include <numeric>

#include "core/invariants.h"

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
  const Verdict v = ClassifyVerdict(ev);
  return ClassifiedEvent{ev, v.category, v.policy_fluctuation};
}

Verdict Classifier::ClassifyVerdict(const UpdateEvent& ev) {
  Verdict out;
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

}  // namespace iri::core
