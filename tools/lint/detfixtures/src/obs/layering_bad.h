// Bad: an obs detector reaching into the simulator (to peek at a link, say)
// inverts the layering. obs may include only {obs, netbase}, because every
// layer from bgp up feeds its instruments.
#pragma once

#include "sim/fxlink.h"  // det-expect: include-layering

namespace iri::obs {
inline int FxPeekDelay(const sim::FxLink& link) {
  return link.delay_ms;
}
}  // namespace iri::obs
