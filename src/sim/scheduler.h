// Discrete-event scheduler: the single clock every component shares.
//
// A monotone radix queue over integer event times. Scheduling never goes
// below Now(), so every pending key is at least the last key taken from the
// queue (`base_`). Bucket 0 holds the events at exactly `base_`; bucket b
// holds those whose key first differs from `base_` in bit b-1. Taking the
// minimum empties the lowest non-empty bucket into the buckets below it,
// rebased on that bucket's smallest key, so an event moves down at most 64
// times however long it waits. Long-dated events (the multihoming
// activations wait from t=0) sit in high buckets that near-term pops never
// touch, where a heap would keep every pop ~11 levels deep.
//
// Simultaneous events run FIFO: every bucket is a list in scheduling order,
// and events of one time always share a bucket, which a redistribution
// empties in list order into buckets that are empty beforehand. The pop
// order is therefore exactly the (time, scheduling sequence) order of a
// priority queue, and with the seeded RNGs whole scenarios are bit-for-bit
// reproducible. The lists are threaded through a node array parallel to the
// slot table, so the queue's storage is bounded by the most events ever
// pending at once.
//
// Slots hold their closures inline (Scheduler::Task), not in a
// std::function: at paper scale every wire message is a link-delivery
// closure owning its bytes, and a std::function's 16-byte buffer sent each
// of them — millions per simulated day — to the heap. A slot has room for
// the largest hot closure (link delivery, a delayed send, a Poisson
// re-arm); a larger closure does not compile, and must box its state.
#pragma once

#include <array>
#include <bit>
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
    // The closure is built in its slot and never moves while it waits; the
    // queue links slot indices.
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back(std::forward<F>(fn));
      nodes_.emplace_back();
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      // A free slot is empty (RunFront moved its closure out).
      std::destroy_at(&slots_[slot]);
      std::construct_at(&slots_[slot], std::forward<F>(fn));
    }
    Push(slot, Key(t));
    ++pending_;
  }

  template <typename F>
  void After(Duration d, F&& fn) {
    At(now_ + d, std::forward<F>(fn));
  }

  // Runs the earliest event. Returns false when the queue is empty.
  bool Step() {
    if (!SurfaceMin(UINT64_MAX)) return false;
    RunFront();
    return true;
  }

  // Runs events with time <= `end`, then advances the clock to `end`.
  // A horizon already in the past runs nothing and leaves the clock alone.
  void RunUntil(TimePoint end) {
    obs::ScopedTimer timer(&run_until_site_);
    if (end < now_) return;
    // SurfaceMin rebases the queue only onto an event it is about to run,
    // never onto one past `end`: a later At between `end` and that event
    // must still find its key at or above the base.
    while (SurfaceMin(Key(end))) {
      RunFront();
      timer.AddItems(1);
      IRI_ASSERT(now_ <= end,
                 "RunUntil must not execute events beyond its horizon");
    }
    now_ = end;
  }

  // Drains the queue entirely (only safe for scenarios that quiesce).
  void RunAll() {
    while (Step()) {}
  }

  std::size_t pending() const { return pending_; }
  std::uint64_t executed() const { return executed_; }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  // Bucket 0 plus one per bit of a 64-bit key.
  static constexpr std::size_t kBuckets = 65;

  struct Node {
    std::uint64_t key = 0;     // the event's time, in nanoseconds
    std::uint32_t next = kNil;  // next slot in the same bucket
  };
  struct Bucket {
    std::uint64_t min = UINT64_MAX;  // smallest key in the list
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  // Times are never negative here: the clock starts at the origin and At
  // clamps to it.
  static std::uint64_t Key(TimePoint t) {
    return static_cast<std::uint64_t>(t.nanos());
  }

  // The bucket of `key` against the current base: 0 when equal, else one
  // past the index of the highest bit in which they differ.
  std::size_t BucketOf(std::uint64_t key) const {
    return static_cast<std::size_t>(std::bit_width(key ^ base_));
  }

  // Appends `slot` (its closure already in place) to its key's bucket.
  void Push(std::uint32_t slot, std::uint64_t key) {
    nodes_[slot] = Node{key, kNil};
    const std::size_t b = BucketOf(key);
    Bucket& bucket = buckets_[b];
    if (bucket.head == kNil) {
      bucket.head = slot;
      if (b != 0) occupied_ |= std::uint64_t{1} << (b - 1);
    } else {
      nodes_[bucket.tail].next = slot;
    }
    bucket.tail = slot;
    if (key < bucket.min) bucket.min = key;
  }

  // Brings the earliest event to the front of bucket 0 if its time is at
  // most `limit`; false (queue unchanged) otherwise.
  bool SurfaceMin(std::uint64_t limit) {
    if (buckets_[0].head != kNil) return base_ <= limit;
    if (occupied_ == 0) return false;
    const std::size_t b =
        static_cast<std::size_t>(std::countr_zero(occupied_)) + 1;
    const Bucket from = buckets_[b];
    if (from.min > limit) return false;
    buckets_[b] = Bucket{};
    occupied_ &= occupied_ - 1;
    // Every key in bucket b shares base_'s bits above b-1, and the new base
    // is the smallest of them, so each lands strictly below b.
    base_ = from.min;
    for (std::uint32_t slot = from.head; slot != kNil;) {
      const std::uint32_t next = nodes_[slot].next;
      Push(slot, nodes_[slot].key);
      slot = next;
    }
    return true;
  }

  // Pops and runs the head of bucket 0 (the earliest event).
  void RunFront() {
    Bucket& front = buckets_[0];
    const std::uint32_t slot = front.head;
    front.head = nodes_[slot].next;
    if (front.head == kNil) front = Bucket{};
    --pending_;
    const TimePoint at = TimePoint::FromNanos(static_cast<std::int64_t>(base_));
    IRI_ASSERT(at >= now_, "scheduler clock must never rewind");
    now_ = at;
    // Move the closure out before running it: the task may schedule into
    // the slot being recycled.
    Task task = std::move(slots_[slot]);
    free_slots_.push_back(slot);
    task();
    ++executed_;
    if (tasks_ != nullptr) tasks_->Add(1);
  }

  std::array<Bucket, kBuckets> buckets_{};
  std::uint64_t occupied_ = 0;  // bit b-1 set: bucket b (b >= 1) non-empty
  std::uint64_t base_ = 0;      // key of the last event surfaced
  std::vector<Task> slots_;     // closure storage, queue-stable
  std::vector<Node> nodes_;     // queue links, parallel to slots_
  std::vector<std::uint32_t> free_slots_;  // LIFO recycling: deterministic
  std::size_t pending_ = 0;
  TimePoint now_ = TimePoint::Origin();
  std::uint64_t executed_ = 0;
  obs::Counter* tasks_ = nullptr;
  obs::ProfileSite run_until_site_;
};

}  // namespace iri::sim
