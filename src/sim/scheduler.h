// Discrete-event scheduler: the single clock every component shares.
//
// A binary heap of trivially-copyable (time, sequence, slot) items over an
// owned vector, with the closures parked in a side table the slot indexes —
// heap sifts never move a closure. The sequence number makes simultaneous
// events FIFO, and the slot free list is recycled LIFO, so together with
// the seeded RNGs whole scenarios are bit-for-bit reproducible.
//
// Slots hold their closures inline (Scheduler::Task), not in a
// std::function: at paper scale every wire message is a link-delivery
// closure owning its bytes, and a std::function's 16-byte buffer sent each
// of them — millions per simulated day — to the heap. A slot has room for
// the largest hot closure (link delivery, a delayed send, a Poisson
// re-arm); a larger closure does not compile, and must box its state.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/invariants.h"
#include "netbase/time.h"
#include "obs/profile.h"

namespace iri::sim {

// A move-only void() closure stored in place, in kCapacity bytes.
class InlineTask {
 public:
  // Link::Send's delivery closure (link, side, epoch, bytes, causes) is
  // the largest hot one.
  static constexpr std::size_t kCapacity = 72;

  InlineTask() = default;
  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, InlineTask>>>
  InlineTask(F&& fn) {  // NOLINT: implicit, as std::function's is
    static_assert(sizeof(Fn) <= kCapacity,
                  "closure too large for a scheduler slot: box its state");
    static_assert(alignof(Fn) <= alignof(std::max_align_t));
    static_assert(std::is_nothrow_move_constructible_v<Fn>);
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
    ops_ = &kOps<Fn>;
  }
  InlineTask(InlineTask&& other) noexcept { MoveFrom(other); }
  InlineTask& operator=(InlineTask&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  InlineTask(const InlineTask&) = delete;
  InlineTask& operator=(const InlineTask&) = delete;
  ~InlineTask() { Reset(); }

  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void* self);
    void (*relocate)(void* dst, void* src);  // move-construct, destroy src
    void (*destroy)(void* self);
  };
  template <typename Fn>
  static constexpr Ops kOps = {
      [](void* self) { (*static_cast<Fn*>(self))(); },
      [](void* dst, void* src) {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      [](void* self) { static_cast<Fn*>(self)->~Fn(); },
  };

  void MoveFrom(InlineTask& other) {
    ops_ = other.ops_;
    if (ops_ != nullptr) ops_->relocate(buf_, other.buf_);
    other.ops_ = nullptr;
  }
  void Reset() {
    if (ops_ != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kCapacity];
  const Ops* ops_ = nullptr;
};

class Scheduler {
 public:
  using Task = InlineTask;

  TimePoint Now() const { return now_; }

  // Attaches this scheduler's profiling instruments to a (partition-private)
  // registry: with the registry's profiling on, sched.tasks counts executed
  // events and the sched.run_until profile site times the drain loop, all
  // kWallClock (obs/profile.h); otherwise nothing registers. executed() is
  // the always-on count. Null detaches.
  void AttachMetrics(obs::Registry* registry) {
    tasks_ = nullptr;
    run_until_site_ = obs::ProfileSite{};
    if (registry == nullptr || !registry->wall_clock_profiling()) return;
    tasks_ = &registry->GetCounter("sched.tasks", obs::Stability::kWallClock);
    run_until_site_ = obs::MakeProfileSite(*registry, "sched.run_until");
  }

  // Schedules `fn` (any void() callable that fits a Task) at absolute time
  // `t`. Scheduling in the past is a caller bug; the task runs immediately
  // at Now() instead (never rewinds).
  template <typename F>
  void At(TimePoint t, F&& fn) {
    if (t < now_) t = now_;
    // Slot indirection: the heap holds trivially-copyable (time, seq, slot)
    // items while the closures sit still in slots_. Heap sifts then move
    // 24-byte PODs instead of closures — at full paper scale the sift
    // traffic (tens of millions of moves per simulated day) was a
    // measurable slice of the profile. The closure is built in its slot.
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back(std::forward<F>(fn));
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      // A free slot is empty (Step moved its closure out).
      std::destroy_at(&slots_[slot]);
      std::construct_at(&slots_[slot], std::forward<F>(fn));
    }
    heap_.push_back(Item{t, next_seq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), RunsLater);
  }

  template <typename F>
  void After(Duration d, F&& fn) {
    At(now_ + d, std::forward<F>(fn));
  }

  // Runs the earliest event. Returns false when the queue is empty.
  bool Step() {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), RunsLater);
    const Item item = heap_.back();
    heap_.pop_back();
    IRI_ASSERT(item.at >= now_, "scheduler clock must never rewind");
    now_ = item.at;
    // Move the closure out before running it: the task may schedule into
    // the slot being recycled.
    Task task = std::move(slots_[item.slot]);
    free_slots_.push_back(item.slot);
    task();
    ++executed_;
    if (tasks_ != nullptr) tasks_->Add(1);
    return true;
  }

  // Runs events with time <= `end`, then advances the clock to `end`.
  // A horizon already in the past runs nothing and leaves the clock alone.
  void RunUntil(TimePoint end) {
    obs::ScopedTimer timer(&run_until_site_);
    while (!heap_.empty() && heap_.front().at <= end) {
      Step();
      timer.AddItems(1);
      IRI_ASSERT(now_ <= end,
                 "RunUntil must not execute events beyond its horizon");
    }
    if (now_ < end) now_ = end;
  }

  // Drains the queue entirely (only safe for scenarios that quiesce).
  void RunAll() {
    while (Step()) {}
  }

  std::size_t pending() const { return heap_.size(); }
  std::uint64_t executed() const { return executed_; }

 private:
  struct Item {
    TimePoint at;
    std::uint64_t seq;
    std::uint32_t slot;  // index into slots_
  };

  // Heap comparator: `a` runs after `b` — std::push_heap builds a max-heap,
  // so "runs latest" at the bottom puts the earliest (time, seq) at front.
  static bool RunsLater(const Item& a, const Item& b) {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }

  std::vector<Item> heap_;
  std::vector<Task> slots_;            // closure storage, heap-stable
  std::vector<std::uint32_t> free_slots_;  // LIFO recycling: deterministic
  TimePoint now_ = TimePoint::Origin();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  obs::Counter* tasks_ = nullptr;
  obs::ProfileSite run_until_site_;
};

}  // namespace iri::sim
