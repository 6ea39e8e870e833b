// Bad: a src/ header without #pragma once. The second include of it in one
// translation unit redefines everything it declares.
//
// det-expect: pragma-once

namespace iri::bgp {
struct FxUnguarded {
  int value = 0;
};
}  // namespace iri::bgp
