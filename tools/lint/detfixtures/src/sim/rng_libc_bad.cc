// Bad: the C library generators. rand() and random() draw from one hidden
// process-wide state that no ExchangeSubSeed ever seeded, so partitions
// calling them from pool workers interleave their draws by thread timing.
// Each line is flagged on its own.

#include <cstdlib>

namespace iri::sim {

int FxDraw() {
  return rand();  // det-expect: rng-discipline
}

long FxDrawLong() {
  return random();  // det-expect: rng-discipline
}

}  // namespace iri::sim
