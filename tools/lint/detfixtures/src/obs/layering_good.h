// Good: obs sits just above netbase, so it may include netbase and the
// sanctioned core/invariants.h exception. Zero findings expected.
#pragma once

#include "core/invariants.h"
#include "netbase/layering_good.h"

namespace iri::obs {
inline unsigned FxInstrument(unsigned length) {
  return FxHostBits(length);
}
}  // namespace iri::obs
