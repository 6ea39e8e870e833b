#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "netbase/rng.h"

namespace iri::sim {
namespace {

TimePoint T(double seconds) {
  return TimePoint::Origin() + Duration::Seconds(seconds);
}

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.At(T(3), [&order] { order.push_back(3); });
  sched.At(T(1), [&order] { order.push_back(1); });
  sched.At(T(2), [&order] { order.push_back(2); });
  sched.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.Now(), T(3));
}

TEST(Scheduler, SimultaneousEventsAreFifo) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.At(T(1), [&order, i] { order.push_back(i); });
  }
  sched.RunAll();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, AfterIsRelativeToNow) {
  Scheduler sched;
  TimePoint fired;
  sched.At(T(5), [&sched, &fired] {
    sched.After(Duration::Seconds(2), [&sched, &fired] { fired = sched.Now(); });
  });
  sched.RunAll();
  EXPECT_EQ(fired, T(7));
}

TEST(Scheduler, PastSchedulingClampsToNow) {
  Scheduler sched;
  TimePoint fired;
  sched.At(T(10), [&sched, &fired] {
    sched.At(T(1), [&sched, &fired] { fired = sched.Now(); });  // in the past
  });
  sched.RunAll();
  EXPECT_EQ(fired, T(10));  // never rewinds
}

TEST(Scheduler, RunUntilStopsAtBoundary) {
  Scheduler sched;
  int fired = 0;
  sched.At(T(1), [&fired] { ++fired; });
  sched.At(T(5), [&fired] { ++fired; });
  sched.RunUntil(T(3));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.Now(), T(3));
  EXPECT_EQ(sched.pending(), 1u);
  sched.RunUntil(T(10));
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, RunUntilIncludesBoundaryEvents) {
  Scheduler sched;
  int fired = 0;
  sched.At(T(3), [&fired] { ++fired; });
  sched.RunUntil(T(3));
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, StepReturnsFalseWhenEmpty) {
  Scheduler sched;
  EXPECT_FALSE(sched.Step());
  sched.At(T(1), [] {});
  EXPECT_TRUE(sched.Step());
  EXPECT_FALSE(sched.Step());
}

TEST(Scheduler, ClockIsMonotoneOverRandomizedSchedule) {
  // Seeded random times, deliberately heavy on duplicates: the clock must
  // never rewind and equal-time events must run in scheduling (FIFO) order.
  Rng rng(0x5EEDED);
  Scheduler sched;
  std::vector<std::pair<TimePoint, int>> executed;
  for (int i = 0; i < 2000; ++i) {
    const TimePoint t =
        TimePoint::Origin() + Duration::Millis(static_cast<std::int64_t>(rng.Below(50)));
    sched.At(t, [&sched, &executed, i] {
      executed.emplace_back(sched.Now(), i);
      // Reentrant scheduling at a duplicate-prone time keeps the queue busy
      // while it is being drained.
      if (i % 7 == 0) {
        sched.After(Duration::Millis(3), [] {});
      }
    });
  }
  sched.RunAll();
  ASSERT_GE(executed.size(), 2000u);
  for (std::size_t k = 1; k < executed.size(); ++k) {
    ASSERT_LE(executed[k - 1].first, executed[k].first)
        << "clock rewound at event " << k;
    if (executed[k - 1].first == executed[k].first) {
      ASSERT_LT(executed[k - 1].second, executed[k].second)
          << "FIFO tie-break violated at t=" << executed[k].first.nanos();
    }
  }
}

TEST(Scheduler, StepMovesTasksOutWithoutCopying) {
  // Slots exist to avoid priority_queue's const_cast/copy dance: once
  // scheduled, draining the queue must move tasks, never copy them.
  struct CopyCounter {
    int* copies;
    CopyCounter(int* c) : copies(c) {}  // NOLINT: implicit is fine in a test
    CopyCounter(const CopyCounter& o) : copies(o.copies) { ++*copies; }
    CopyCounter(CopyCounter&& o) noexcept : copies(o.copies) {}
    void operator()() const {}
  };
  Scheduler sched;
  int copies = 0;
  for (int i = 0; i < 8; ++i) sched.At(T(i), CopyCounter(&copies));
  const int copies_after_scheduling = copies;
  sched.RunAll();
  EXPECT_EQ(copies, copies_after_scheduling);
}

TEST(Scheduler, TaskScheduledAtHorizonFromInsideStepStillRunsThisCall) {
  // The starvation edge: RunUntil(end) must re-read the queue's front after
  // every Step(), so a task that a running task schedules at *exactly* `end`
  // is still executed by this RunUntil call — not stranded until the next
  // one. A flush timer that re-arms for the horizon boundary would
  // otherwise silently slip a whole horizon.
  Scheduler sched;
  std::vector<int> fired;
  sched.At(T(3), [&] {
    fired.push_back(1);
    sched.At(T(5), [&] {  // exactly the horizon passed to RunUntil below
      fired.push_back(2);
      sched.At(T(5), [&] { fired.push_back(3); });  // chained, still == end
    });
  });
  sched.RunUntil(T(5));
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.Now(), T(5));
  EXPECT_EQ(sched.pending(), 0u);

  // One tick past the horizon stays queued for the next call.
  sched.At(T(5) + Duration::Nanos(1), [&] { fired.push_back(4); });
  sched.RunUntil(T(5));
  EXPECT_EQ(fired.size(), 3u);
  EXPECT_EQ(sched.pending(), 1u);
}

TEST(Scheduler, HorizonChainAcrossManyTasksDrainsCompletely) {
  // Heavier version of the starvation edge: a chain of N tasks, each
  // scheduling the next at the same horizon time, must fully drain in one
  // RunUntil call (the loop condition is re-evaluated every iteration).
  Scheduler sched;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 500) sched.At(T(9), chain);
  };
  sched.At(T(9), chain);
  sched.RunUntil(T(9));
  EXPECT_EQ(depth, 500);
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(Scheduler, TasksCanScheduleTasks) {
  Scheduler sched;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sched.After(Duration::Seconds(1), recurse);
  };
  sched.At(T(0), recurse);
  sched.RunAll();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sched.Now(), T(99));
  EXPECT_EQ(sched.executed(), 100u);
}

// --- differential check against a reference priority queue ----------------
//
// The same seeded program runs on the Scheduler and on a std::priority_queue
// ordered by (time, scheduling sequence); both must run the same events in
// the same order at the same clock readings. Every task spawns children
// from the side's own Rng, so any divergence in order also diverges the
// draws and shows in the logs.

// 270 simulated days, the paper's campaign, in nanoseconds.
constexpr double kMaxSpanNs = 270.0 * 86400e9;

// One run's record: (clock at run, event id), in execution order.
using RunLog = std::vector<std::pair<std::int64_t, int>>;

// Children of a running event, as absolute times: heavy on exact ties and
// on same-instant re-entrant scheduling, some in the past (clamped), the
// rest log-uniform from 1 ns to 270 days ahead.
template <typename Schedule>
void SpawnChildren(Rng& rng, std::int64_t now, int& next_id,
                   Schedule&& schedule) {
  const double u = rng.Uniform();
  const int children = u < 0.45 ? 0 : u < 0.8 ? 1 : 2;
  for (int k = 0; k < children; ++k) {
    const double kind = rng.Uniform();
    std::int64_t t;
    if (kind < 0.3) {
      t = now;  // re-entrant, same instant
    } else if (kind < 0.45) {
      t = now - 1 - static_cast<std::int64_t>(rng.Below(1'000'000'000));
    } else if (kind < 0.65) {
      t = now + static_cast<std::int64_t>(rng.Below(8));  // dense ties
    } else {
      t = now + static_cast<std::int64_t>(
                    std::exp(rng.Uniform() * std::log(kMaxSpanNs)));
    }
    schedule(t, next_id++);
  }
}

class ReferenceQueue {
 public:
  explicit ReferenceQueue(std::uint64_t seed) : rng_(seed) {}

  void Schedule(std::int64_t t, int id) {
    if (t < now_) t = now_;
    queue_.push(Event{t, seq_++, id});
  }
  void AdvanceTo(std::int64_t end) {
    while (!queue_.empty() && std::get<0>(queue_.top()) <= end) RunTop();
    if (now_ < end) now_ = end;
  }
  void Drain() {
    while (!queue_.empty()) RunTop();
  }
  std::int64_t now() const { return now_; }
  std::size_t pending() const { return queue_.size(); }
  // Time of the earliest pending event; -1 when empty.
  std::int64_t NextTime() const {
    return queue_.empty() ? -1 : std::get<0>(queue_.top());
  }
  int& next_id() { return next_id_; }
  const RunLog& log() const { return log_; }

 private:
  using Event = std::tuple<std::int64_t, std::uint64_t, int>;
  void RunTop() {
    const auto [t, seq, id] = queue_.top();
    queue_.pop();
    now_ = t;
    log_.emplace_back(t, id);
    SpawnChildren(rng_, now_, next_id_,
                  [this](std::int64_t at, int child) { Schedule(at, child); });
  }

  Rng rng_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  std::int64_t now_ = 0;
  std::uint64_t seq_ = 0;
  int next_id_ = 0;
  RunLog log_;
};

// The Scheduler side of the same program.
class SchedulerUnderTest {
 public:
  explicit SchedulerUnderTest(std::uint64_t seed) : rng_(seed) {}

  void Schedule(std::int64_t t, int id) {
    sched_.At(TimePoint::FromNanos(t), [this, id] { Fire(id); });
  }
  Scheduler& sched() { return sched_; }
  int& next_id() { return next_id_; }
  const RunLog& log() const { return log_; }

 private:
  void Fire(int id) {
    const std::int64_t now = sched_.Now().nanos();
    log_.emplace_back(now, id);
    SpawnChildren(rng_, now, next_id_,
                  [this](std::int64_t at, int child) { Schedule(at, child); });
  }

  Scheduler sched_;
  Rng rng_;
  int next_id_ = 0;
  RunLog log_;
};

void RunDifferential(std::uint64_t seed) {
  Rng driver(seed);
  ReferenceQueue ref(seed + 1);
  SchedulerUnderTest sut(seed + 1);
  auto at_both = [&](std::int64_t t) {
    ref.Schedule(t, ref.next_id()++);
    sut.Schedule(t, sut.next_id()++);
  };

  // Initial load: many exact ties at a few instants, plus a spread out to
  // 270 days (the multihoming activations waiting from t=0).
  for (int i = 0; i < 3000; ++i) {
    const double kind = driver.Uniform();
    if (kind < 0.5) {
      at_both(static_cast<std::int64_t>(driver.Below(4)) * 1'000'000'000);
    } else {
      at_both(1 + static_cast<std::int64_t>(
                      std::exp(driver.Uniform() * std::log(kMaxSpanNs))));
    }
  }

  std::int64_t horizon = 0;
  for (int round = 0; round < 400; ++round) {
    // Horizons grow log-uniformly; one in ten lies in the past.
    if (driver.Bernoulli(0.1)) {
      horizon = ref.now() - static_cast<std::int64_t>(driver.Below(1000));
    } else {
      horizon = ref.now() + static_cast<std::int64_t>(std::exp(
                                driver.Uniform() * std::log(kMaxSpanNs / 50)));
    }
    ref.AdvanceTo(horizon);
    sut.sched().RunUntil(TimePoint::FromNanos(horizon));
    ASSERT_EQ(sut.sched().Now().nanos(), ref.now()) << "round " << round;
    ASSERT_EQ(sut.sched().pending(), ref.pending()) << "round " << round;

    // Between horizons: events at the clock itself, in the past, and
    // strictly between the clock and the next pending event — the queue
    // must not have rebased past the clock while looking for that event.
    at_both(ref.now());
    at_both(ref.now() - 5);
    const std::int64_t next = ref.NextTime();
    if (next > ref.now() + 1) {
      at_both(ref.now() + 1);
      at_both(ref.now() + (next - ref.now()) / 2);
      at_both(next - 1);
    }
    if (next >= 0) at_both(next);  // ties the earliest pending event
  }
  ref.Drain();
  sut.sched().RunAll();

  ASSERT_EQ(sut.log().size(), ref.log().size());
  for (std::size_t k = 0; k < ref.log().size(); ++k) {
    ASSERT_EQ(sut.log()[k], ref.log()[k]) << "first divergence at event " << k;
  }
  EXPECT_EQ(sut.sched().executed(), ref.log().size());
  EXPECT_EQ(sut.sched().pending(), 0u);
  EXPECT_EQ(sut.sched().Now().nanos(), ref.now());
}

TEST(Scheduler, MatchesReferencePriorityQueueOnSeededSchedules) {
  for (const std::uint64_t seed : {1u, 2u, 1996u, 2718u}) {
    SCOPED_TRACE(seed);
    RunDifferential(seed);
  }
}

TEST(Scheduler, HorizonBeforeNextEventLeavesRoomBelowIt) {
  // RunUntil(5) looks at the event at 100 and stops; an event scheduled
  // afterwards at 6 must still run before it.
  Scheduler sched;
  std::vector<int> order;
  sched.At(TimePoint::FromNanos(100), [&] { order.push_back(100); });
  sched.RunUntil(TimePoint::FromNanos(5));
  sched.At(TimePoint::FromNanos(6), [&] { order.push_back(6); });
  sched.At(TimePoint::FromNanos(5), [&] { order.push_back(5); });
  sched.RunAll();
  EXPECT_EQ(order, (std::vector<int>{5, 6, 100}));
}

}  // namespace
}  // namespace iri::sim
