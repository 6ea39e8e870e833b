// Good: an ad-hoc draw accepted in review. The allow comment names the one
// check it silences and sits on the offending line, so the exception stays
// visible in the diff that adds it. Zero findings expected.

#include <cstdlib>

namespace iri::sim {

int FxAcceptedDraw() {
  return rand();  // iri-det: allow(rng-discipline)
}

}  // namespace iri::sim
