// Clean bgp-layer header for the layering fixtures. bgp may include obs,
// netbase and the core/invariants.h exception; rand() and time(nullptr) in
// this comment must not fire.
#pragma once

#include "core/invariants.h"

#include "obs/layering_good.h"

namespace iri::bgp {
struct FxRoute {
  unsigned prefix = 0;
  unsigned length = 0;
};
}  // namespace iri::bgp
