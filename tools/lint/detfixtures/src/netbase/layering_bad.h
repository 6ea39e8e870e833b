// Bad: netbase is the bottom layer and may include nothing above itself:
// not bgp, not obs, and not even core/invariants.h, the exception every
// other layer gets. Reaching up inverts the netbase -> obs -> bgp -> ... ->
// workload order the whole build hangs off.
#pragma once

#include "bgp/fxroute.h"      // det-expect: include-layering
#include "core/invariants.h"  // det-expect: include-layering

#include "obs/layering_good.h"  // det-expect: include-layering

namespace iri {
inline unsigned FxPrefixBits(const bgp::FxRoute& r) {
  return r.length;
}
}  // namespace iri
