// Binary (unibit) radix trie keyed by IPv4 prefix.
//
// sim/forwarding's FIB keeps its routes in one of these for the
// longest-prefix match on addresses; it also supports exact-match
// insert/lookup/erase and ordered visitation. (The Loc-RIB is not a trie:
// bgp::Rib keeps dense entries plus an address-sorted slot list.)
//
// A unibit trie (one level per bit, max depth 32) is chosen over a
// path-compressed Patricia tree deliberately: at the paper's table sizes
// (~42k prefixes) the depth bound already gives O(32) operations, and the
// absence of edge-label bookkeeping keeps erase/prune logic simple enough to
// verify exhaustively in tests.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <optional>
#include <utility>

#include "netbase/ipv4.h"

namespace iri {

template <typename T>
class RadixTrie {
 public:
  RadixTrie() : root_(std::make_unique<Node>()) {}

  RadixTrie(RadixTrie&&) noexcept = default;
  RadixTrie& operator=(RadixTrie&&) noexcept = default;

  // Inserts or overwrites the value at `prefix`. Returns true if the prefix
  // was newly inserted, false if an existing value was replaced.
  bool Insert(const Prefix& prefix, T value) {
    Node* node = Descend(prefix, /*create=*/true);
    const bool fresh = !node->value.has_value();
    node->value = std::move(value);
    size_ += fresh ? 1 : 0;
    return fresh;
  }

  // Exact-match lookup. Returns nullptr when absent.
  const T* Find(const Prefix& prefix) const {
    const Node* node = root_.get();
    for (std::uint8_t i = 0; i < prefix.length() && node; ++i) {
      node = node->child[prefix.Bit(i)].get();
    }
    return (node && node->value) ? &*node->value : nullptr;
  }
  T* Find(const Prefix& prefix) {
    return const_cast<T*>(std::as_const(*this).Find(prefix));
  }

  // Removes the entry at `prefix` if present; prunes now-empty branches so
  // memory tracks the live table. Returns true if something was removed.
  bool Erase(const Prefix& prefix) {
    return EraseRec(root_.get(), prefix, 0);
  }

  // Longest-prefix match for a full address. Returns the most specific
  // (prefix, value) covering `addr`, or nullopt if nothing matches.
  std::optional<std::pair<Prefix, const T*>> LongestMatch(
      IPv4Address addr) const {
    const Node* node = root_.get();
    const Prefix probe(addr, 32);
    std::optional<std::pair<Prefix, const T*>> best;
    for (std::uint8_t depth = 0;; ++depth) {
      if (node->value) {
        best = {Prefix(addr, depth), &*node->value};
      }
      if (depth == 32) break;
      node = node->child[probe.Bit(depth)].get();
      if (!node) break;
    }
    return best;
  }

  // Visits the whole table in address order. `fn` is called as
  // fn(Prefix, const T&).
  template <typename Fn>
  void Visit(Fn&& fn) const {
    VisitRec(root_.get(), Prefix(), fn);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void Clear() {
    root_ = std::make_unique<Node>();
    size_ = 0;
  }

 private:
  struct Node {
    std::optional<T> value;
    std::unique_ptr<Node> child[2];
  };

  Node* Descend(const Prefix& prefix, bool create) {
    assert(create);
    (void)create;
    Node* node = root_.get();
    for (std::uint8_t i = 0; i < prefix.length(); ++i) {
      auto& next = node->child[prefix.Bit(i)];
      if (!next) next = std::make_unique<Node>();
      node = next.get();
    }
    return node;
  }

  // Recursive erase that reports back "this child is now empty, prune me".
  bool EraseRec(Node* node, const Prefix& prefix, std::uint8_t depth) {
    if (depth == prefix.length()) {
      if (!node->value) return false;
      node->value.reset();
      --size_;
      return true;
    }
    const bool bit = prefix.Bit(depth);
    Node* child = node->child[bit].get();
    if (!child) return false;
    const bool erased = EraseRec(child, prefix, depth + 1);
    if (erased && !child->value && !child->child[0] && !child->child[1]) {
      node->child[bit].reset();
    }
    return erased;
  }

  template <typename Fn>
  void VisitRec(const Node* node, const Prefix& here, Fn& fn) const {
    if (node->value) fn(here, *node->value);
    if (here.length() == 32) return;
    if (node->child[0]) VisitRec(node->child[0].get(), here.LowerHalf(), fn);
    if (node->child[1]) VisitRec(node->child[1].get(), here.UpperHalf(), fn);
  }

  std::unique_ptr<Node> root_;
  std::size_t size_ = 0;
};

}  // namespace iri
