// Clean sim-layer header for the obs layering fixture.
#pragma once

namespace iri::sim {
struct FxLink {
  int delay_ms = 0;
};
}  // namespace iri::sim
