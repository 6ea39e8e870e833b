#include "bgp/decision.h"

namespace iri::bgp {

bool Preferred(const Candidate& a, const Candidate& b) {
  const DecisionFields& da = a.decision;
  const DecisionFields& db = b.decision;
  // 1. LOCAL_PREF, higher wins.
  if (da.local_pref != db.local_pref) return da.local_pref > db.local_pref;

  // 2. AS_PATH length, shorter wins.
  if (da.path_length != db.path_length) {
    return da.path_length < db.path_length;
  }

  // 3. ORIGIN, lower wins.
  if (da.origin != db.origin) return da.origin < db.origin;

  // 4. MED, lower wins, but only comparable for the same neighbor AS.
  if (da.first_asn == db.first_asn && da.med != db.med) {
    return da.med < db.med;
  }

  // 5. Lowest peer router id — guarantees a total order so the decision is
  // deterministic regardless of candidate arrival order.
  if (a.peer_router_id != b.peer_router_id) {
    return a.peer_router_id < b.peer_router_id;
  }
  return a.peer < b.peer;
}

int SelectBest(std::span<const Candidate> candidates) {
  if (candidates.empty()) return -1;
  std::size_t best = 0;
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    if (Preferred(candidates[i], candidates[best])) best = i;
  }
  return static_cast<int>(best);
}

}  // namespace iri::bgp
