// The BGP decision process (best-path selection).
//
// Implements the tie-breaking ladder as deployed in the measurement era
// (RFC 1163 phase 2, refined per RFC 4271 §9.1.2.2):
//   1. highest LOCAL_PREF (absent => 100)
//   2. shortest AS_PATH (SET segments count 1)
//   3. lowest ORIGIN (IGP < EGP < INCOMPLETE)
//   4. lowest MED, compared only between routes from the same neighbor AS
//      (absent => 0, i.e. best)
//   5. lowest peer BGP identifier (deterministic final tie-break)
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>

#include "bgp/intern.h"
#include "bgp/route.h"

namespace iri::bgp {

// One candidate path for a prefix, as seen in a router's Adj-RIBs-In.
// Trivially copyable: the attribute set lives in the owning Rib's AttrTable
// and the candidate carries its id plus a copy of the set's decision fields,
// so the ladder runs on integers without touching the table.
struct Candidate {
  PeerId peer = 0;
  IPv4Address peer_router_id;  // final tie-break
  AttrSetId attr_id = kInvalidAttrSetId;
  DecisionFields decision;
};
static_assert(std::is_trivially_copyable_v<Candidate>);

// Returns the index of the best candidate, or -1 when `candidates` is empty.
// Pure function: deterministic given the candidate list order-independently
// (the final router-id tie-break makes the ordering total).
int SelectBest(std::span<const Candidate> candidates);

// Exposed for tests/benchmarks: returns true if `a` is preferred over `b`.
bool Preferred(const Candidate& a, const Candidate& b);

}  // namespace iri::bgp
