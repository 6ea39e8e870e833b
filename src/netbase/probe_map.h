// A flat open-addressing hash map for probed-only workloads.
//
// The hot exact-match indexes in this codebase — the RIB's prefix index (a
// router's only prefix hash), the classifier's (Prefix, peer) state table,
// the update packer's per-flush attribute-group table — share one access
// pattern: try_emplace / find / clear, never iterate, never erase single
// keys (a user that forgets a key stores a sentinel value instead).
// std::unordered_map serves them with a heap node per entry, a prime-modulo
// bucket step and a pointer chase per probe; at full-paper scale those
// indexes are the top lines of the profile.
//
// ProbeMap replaces them with a single flat array of (key, value) slots,
// power-of-two sized, linear probing, capacity-doubling at 7/8 load. No
// iteration API is provided on purpose: a probed-only table cannot leak its
// (hash-order) layout into any output, which is what keeps it inert under
// the determinism lint's unordered-iteration pass (DESIGN.md §11) — the
// same argument the unordered_map predecessors relied on, now enforced by
// the type's shape instead of by comment.
//
// Requirements: Key is copyable and equality-comparable; Value is
// default-constructible. Erase is not supported (the workloads above never
// erase single keys); Clear() keeps capacity.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace iri {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ProbeMap {
 public:
  ProbeMap() = default;

  std::size_t size() const { return size_; }

  void Reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap < n + n / 4) cap <<= 1;
    if (cap > slots_.size()) Rehash(cap);
  }

  // Returns (pointer to value, inserted?). The value is freshly
  // default-constructed on insertion (including reuse of a Clear()ed
  // slot). Pointers are invalidated by the next insertion.
  std::pair<Value*, bool> TryEmplace(const Key& key) {
    if (slots_.empty() || (size_ + 1) * 8 > slots_.size() * 7) {
      Rehash(slots_.size() < kMinCapacity ? kMinCapacity : slots_.size() * 2);
    }
    std::size_t i = Hash{}(key) & mask_;
    for (;; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.epoch != epoch_) {
        s.epoch = epoch_;
        s.key = key;
        s.value = Value{};
        ++size_;
        return {&s.value, true};
      }
      if (s.key == key) return {&s.value, false};
    }
  }

  // Pointer to the value for `key`, or nullptr.
  Value* Find(const Key& key) {
    if (size_ == 0) return nullptr;
    std::size_t i = Hash{}(key) & mask_;
    for (;; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.epoch != epoch_) return nullptr;
      if (s.key == key) return &s.value;
    }
  }
  const Value* Find(const Key& key) const {
    return const_cast<ProbeMap*>(this)->Find(key);
  }

  // Drops every entry, keeping capacity. O(1): live slots are the ones
  // stamped with the current epoch, so bumping the epoch empties the table.
  // The update packer clears its group table on every flush even when only
  // a handful of ops are pending — an O(capacity) sweep there turns every
  // ratcheted-up table into a per-flush tax that dominates long runs.
  void Clear() {
    if (size_ == 0) return;
    size_ = 0;
    if (++epoch_ == 0) {
      // Epoch wrapped (once per 2^32 clears): stale slots from 4 billion
      // windows ago could alias the fresh epoch, so really sweep.
      for (Slot& s : slots_) s.epoch = 0;
      epoch_ = 1;
    }
  }

 private:
  struct Slot {
    Key key{};
    Value value{};
    std::uint32_t epoch = 0;  // slot live iff epoch == map's current epoch
  };

  static constexpr std::size_t kMinCapacity = 16;

  void Rehash(std::size_t new_cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(new_cap);
    mask_ = new_cap - 1;
    for (Slot& s : old) {
      if (s.epoch != epoch_) continue;
      std::size_t i = Hash{}(s.key) & mask_;
      while (slots_[i].epoch == epoch_) i = (i + 1) & mask_;
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::uint32_t epoch_ = 1;  // 0 is reserved as "never used"
};

}  // namespace iri
