// Route types shared by the RIB, the decision process, and the classifier.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bgp/attributes.h"
#include "netbase/ipv4.h"

namespace iri::bgp {

// Identifies a peering session at one collection point. The paper's
// per-peer statistics (Table 1, Figure 6) are keyed by this.
using PeerId = std::uint32_t;
inline constexpr PeerId kLocalPeer = 0xFFFFFFFF;  // locally-originated routes

// A prefix's dense id in one Rib (Rib::Slot), stable for the Rib's life.
using PrefixSlot = std::uint32_t;
inline constexpr PrefixSlot kNoSlot = 0xFFFFFFFF;  // never minted

// `v[slot]`, growing `v` with `fill` to cover the slot.
template <typename T>
T& SlotEntry(std::vector<T>& v, PrefixSlot slot, T fill) {
  if (slot >= v.size()) v.resize(std::size_t{slot} + 1, fill);
  return v[slot];
}

// One announced route: a destination prefix and its attributes.
struct Route {
  Prefix prefix;
  PathAttributes attributes;

  friend bool operator==(const Route&, const Route&) = default;

  std::string ToString() const {
    return prefix.ToString() + " " + attributes.ToString();
  }
};

// (Prefix, peer) pair: the unit of Figures 7 and 8 ("Prefix+AS").
struct PrefixPeer {
  Prefix prefix;
  PeerId peer = 0;

  friend bool operator==(const PrefixPeer&, const PrefixPeer&) = default;
  friend auto operator<=>(const PrefixPeer&, const PrefixPeer&) = default;
};

}  // namespace iri::bgp

template <>
struct std::hash<iri::bgp::PrefixPeer> {
  std::size_t operator()(const iri::bgp::PrefixPeer& pp) const noexcept {
    std::uint64_t x = std::hash<iri::Prefix>{}(pp.prefix);
    x ^= pp.peer + 0x9E3779B97F4A7C15ULL + (x << 6) + (x >> 2);
    return static_cast<std::size_t>(x);
  }
};
