#include "bgp/policy.h"

#include <algorithm>

namespace iri::bgp {

bool MatchSpec::Matches(const PathAttributes& attrs) const {
  if (neighbor_as && attrs.as_path.FirstAsn() != *neighbor_as) return false;
  if (has_community) {
    const auto& cs = attrs.communities;
    if (std::find(cs.begin(), cs.end(), *has_community) == cs.end()) {
      return false;
    }
  }
  return true;
}

void ActionSpec::ApplyTo(PathAttributes& attrs) const {
  if (set_local_pref) attrs.local_pref = *set_local_pref;
  if (strip_communities) attrs.communities.clear();
}

bool Policy::Apply(PathAttributes& attrs) const {
  for (const PolicyRule& rule : rules_) {
    if (!rule.match.Matches(attrs)) continue;
    if (rule.action.deny) return false;
    rule.action.ApplyTo(attrs);
    return true;
  }
  return default_accept_;
}

}  // namespace iri::bgp
