// Bad: a header that no fixture translation unit includes. It sits outside
// the compilation-database closure, so no other check ever reads it.
//
// det-expect: not-analyzed
#pragma once

namespace iri::mrt {
struct FxUnbuilt {};
}  // namespace iri::mrt
