// Bad: an ad-hoc std::mt19937 draw. Mersenne-twister seeding and the
// standard distributions are not specified tightly enough to reproduce
// across standard libraries, and a privately constructed engine bypasses the
// ExchangeSubSeed/Rng::Fork stream discipline entirely.
//
// det-expect: rng-discipline

#include <random>  // det-expect: rng-discipline

namespace iri::sim {

double FxJitter(unsigned seed) {
  std::mt19937 engine(seed);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  return dist(engine);
}

}  // namespace iri::sim
