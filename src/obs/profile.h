// Scoped-timer profiling hooks for the hot paths (RIB insert/lookup,
// classifier Ingest, wire codec, Scheduler::RunUntil).
//
// Profiling is one opt-in layer that no snapshot sees. A site resolves only
// when its registry has SetWallClockProfiling(true) (set from
// ScenarioConfig::profile_wall_clock); it then counts calls, items (events,
// routes, bytes — whatever the site's unit is) and wall nanoseconds, all
// registered as Stability::kWallClock. Snapshots skip kWallClock
// instruments, so a profiled run's golden digest equals an unprofiled one's
// and a change that only saves calls never moves a digest. The only
// wall-clock read goes through iri::WallClockNanos() (netbase/time.cc), the
// single file the lint's wall-clock rule exempts.
//
// Usage: resolve a ProfileSite once at attach time (name lookups are a
// std::map walk, too slow for per-event work), keep it by value, and open a
// ScopedTimer per operation:
//
//   site_ = obs::MakeProfileSite(registry, "rib.announce");
//   ...
//   obs::ScopedTimer timer(&site_, nlri.size());
//
// An unresolved site (default-constructed, or made without profiling) makes
// ScopedTimer a no-op that costs one pointer test on entry and one on exit.
#pragma once

#include <cstdint>
#include <string>

#include "netbase/time.h"
#include "obs/metrics.h"

namespace iri::obs {

// Cached instrument pointers for one timed site: all three set, or all null.
// Plain value type: copy it into the owning component at attach time.
// Registry instruments never move once created, so the pointers stay valid
// for the registry's lifetime.
struct ProfileSite {
  Counter* calls = nullptr;
  Counter* items = nullptr;
  Counter* wall_ns = nullptr;
};

// With the registry's profiling on, registers (or re-finds)
// "profile.<name>.calls" / ".items" / ".wall_ns", all kWallClock; without
// it, returns an unresolved site and registers nothing.
ProfileSite MakeProfileSite(Registry& registry, const std::string& name);

// Counts one call (plus `items` units of work) and its wall time against a
// resolved site. Use AddItems() when the unit count is only known inside
// the scope. Fully inline: these sit inside Rib::Announce and
// Scheduler::RunUntil, where an out-of-line call pair is measurable.
class ScopedTimer {
 public:
  explicit ScopedTimer(const ProfileSite* site, std::uint64_t items = 0)
      : site_(site), items_(items) {
    if (site_->wall_ns != nullptr) start_ns_ = WallClockNanos();
  }
  ~ScopedTimer() {
    if (site_->wall_ns == nullptr) return;
    site_->calls->Add(1);
    site_->items->Add(items_);
    site_->wall_ns->Add(
        static_cast<std::uint64_t>(WallClockNanos() - start_ns_));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  void AddItems(std::uint64_t n) { items_ += n; }

 private:
  const ProfileSite* site_;
  std::uint64_t items_;
  std::int64_t start_ns_ = 0;
};

}  // namespace iri::obs
