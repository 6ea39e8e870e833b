#include "obs/profile.h"

namespace iri::obs {

ProfileSite MakeProfileSite(Registry& registry, const std::string& name) {
  if (!registry.wall_clock_profiling()) return ProfileSite{};
  const std::string stem = "profile." + name;
  return ProfileSite{
      &registry.GetCounter(stem + ".calls", Stability::kWallClock),
      &registry.GetCounter(stem + ".items", Stability::kWallClock),
      &registry.GetCounter(stem + ".wall_ns", Stability::kWallClock)};
}

}  // namespace iri::obs
