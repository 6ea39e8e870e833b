// Allocation budget of the steady-state message path.
//
// Every wire message costs the simulator a few heap allocations it cannot
// avoid — the message's own bytes, its cause sideband — and nothing more:
// UPDATEs are framed from cached attribute bytes into one exact-size buffer,
// scheduler slots hold their closures inline, and the receive path decodes
// into reused scratch. This test binary replaces the global operator new to
// count calls, runs a small single-exchange scenario past its bootstrap, and
// holds one steady simulated hour to at most kBudget allocations per wire
// message the links carried.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "workload/scenario.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace iri::workload {
namespace {

// The bytes of a message and its cause sideband are the two allocations a
// message needs; one more is slack for the amortised growth of logs, RIB
// slots and per-prefix state that a steady hour still sees.
constexpr double kBudget = 3.0;

TEST(AllocationBudget, SteadyHourStaysWithinBudgetPerWireMessage) {
  ScenarioConfig cfg;
  cfg.topology.scale = 1.0 / 16;
  cfg.topology.num_providers = 8;
  cfg.topology.seed = 3;
  cfg.seed = 4;
  cfg.duration = Duration::Hours(61);
  ExchangeScenario scenario(cfg);
  const obs::Counter& messages = scenario.metrics().GetCounter("link.messages");
  const obs::Counter& updates = scenario.metrics().GetCounter("router.updates_tx");

  // Day 0 (a Saturday) carries the initial table dumps; the hour measured
  // is Monday noon's ordinary churn, about one UPDATE in six messages (the
  // rest are KEEPALIVEs).
  const TimePoint start = TimePoint::Origin() + Duration::Hours(60);
  scenario.RunUntil(start);
  const std::uint64_t messages_before = messages.value();
  const std::uint64_t updates_before = updates.value();
  const std::uint64_t allocations_before = g_allocations.load();
  scenario.RunUntil(start + Duration::Hours(1));
  const std::uint64_t allocations =
      g_allocations.load() - allocations_before;
  const std::uint64_t carried = messages.value() - messages_before;

  ASSERT_GT(carried, 1000u) << "the hour must carry real traffic";
  ASSERT_GT(updates.value() - updates_before, 200u)
      << "the hour must carry UPDATEs, not only KEEPALIVEs";
  const double per_message =
      static_cast<double>(allocations) / static_cast<double>(carried);
  RecordProperty("allocations", std::to_string(allocations));
  RecordProperty("messages", std::to_string(carried));
  EXPECT_LE(per_message, kBudget)
      << allocations << " allocations for " << carried << " wire messages";
}

}  // namespace
}  // namespace iri::workload
