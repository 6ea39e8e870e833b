// Translation unit that pulls the header fixtures into the model (headers
// are only analyzed when some TU reaches them). core may include netbase,
// obs, bgp and sim, so this file itself is clean: the findings belong to
// the headers it reaches.

#include "bgp/cycle_a.h"
#include "bgp/guard_bad.h"
#include "core/atomic_header_bad.h"
#include "netbase/layering_bad.h"
#include "netbase/layering_good.h"

#include "obs/layering_bad.h"

namespace iri::core {

unsigned FxUseLayers() {
  bgp::FxRoute route;
  route.length = 24;
  bgp::FxCycleA a;
  bgp::FxCycleB b;
  bgp::FxUnguarded unguarded;
  sim::FxLink link;
  FxCountCheck();
  unsigned sum = FxPrefixBits(route) + FxHostBits(route.length);
  sum += obs::FxInstrument(route.length);
  sum += static_cast<unsigned>(a.a + b.b + unguarded.value);
  return sum + static_cast<unsigned>(obs::FxPeekDelay(link));
}

}  // namespace iri::core
