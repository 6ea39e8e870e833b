// Bad: raw wall-clock reads in src/core, outside netbase/time.*. Neither
// function reaches an output sink, so wall-clock-taint has nothing to say;
// the read is forbidden outright, because a timestamp that leaks into a
// tie-break, a seed or a bin edge moves output bytes with no call path to
// show for it.

#include <ctime>

namespace iri::core {

std::time_t FxNowSeconds() {
  return time(nullptr);  // det-expect: wall-clock-confinement
}

int FxLocalHour(std::time_t t) {
  return std::localtime(&t)->tm_hour;  // det-expect: wall-clock-confinement
}

}  // namespace iri::core
