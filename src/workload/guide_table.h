// Exact inverse-CDF lookup over cumulative weights (Chen and Asau's guide
// table): the answer of std::lower_bound, from a short search.
//
// The weighted customer draw runs hundreds of thousands of times per
// simulated campaign, and a binary search over 42 k cumulative weights was
// a few percent of the profile. The guide splits [0, total] into G equal
// ranges (G = n/16, at least 1) and keeps, for each, the first index whose
// weight reaches the range's lower bound. A lookup then searches only
// between two neighbouring guide entries. The bucket is found by
// arithmetic and then checked against the bounds themselves, so rounding
// can make the lookup search one range over but never changes its answer:
// every index returned is exactly std::lower_bound's, which is what keeps
// the RNG-driven scenario streams unchanged.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace iri::workload {

class GuideTable {
 public:
  GuideTable() : GuideTable(std::vector<double>{}) {}

  // `cumulative` must be non-decreasing and non-negative (running sums of
  // weights); equal neighbours (zero weights) are allowed.
  explicit GuideTable(std::vector<double> cumulative)
      : cumulative_(std::move(cumulative)),
        guide_(std::max<std::size_t>(1, cumulative_.size() / 16)) {
    const double total = this->total();
    width_ = total / static_cast<double>(guide_.size());
    scale_ = static_cast<double>(guide_.size()) / total;
    // One merge walk: bounds and weights both ascend.
    std::size_t i = 0;
    for (std::size_t g = 0; g < guide_.size(); ++g) {
      const double bound = Bound(g);
      while (i < cumulative_.size() && cumulative_[i] < bound) ++i;
      guide_[g] = static_cast<std::uint32_t>(i);
    }
  }

  // The first index whose cumulative weight is >= r (size() when none is):
  // std::lower_bound(cumulative.begin(), cumulative.end(), r) - begin.
  std::size_t LowerBound(double r) const {
    const std::size_t last = guide_.size() - 1;
    const double x = r * scale_;
    std::size_t g = 0;
    if (x >= static_cast<double>(last)) {
      g = last;
    } else if (x > 0) {
      g = static_cast<std::size_t>(x);
    }
    // Settle on Bound(g) <= r <= Bound(g + 1), whatever the rounding above.
    while (g > 0 && Bound(g) > r) --g;
    while (g < last && Bound(g + 1) < r) ++g;
    // Every index below guide_[g] holds a weight < Bound(g) <= r, and the
    // one at guide_[g + 1] (if any) holds one >= Bound(g + 1) >= r: the
    // answer is in [guide_[g], guide_[g + 1]], and a search of the half-open
    // range returns its end when nothing inside reaches r.
    const std::size_t hi = g < last ? guide_[g + 1] : cumulative_.size();
    const double* begin = cumulative_.data();
    return static_cast<std::size_t>(
        std::lower_bound(begin + guide_[g], begin + hi, r) - begin);
  }

  double total() const {
    return cumulative_.empty() ? 0.0 : cumulative_.back();
  }
  std::size_t guide_size() const { return guide_.size(); }
  // The lower bound of guide range `g`: g * total / G, computed one way
  // everywhere so the build and the lookups agree bit for bit.
  double Bound(std::size_t g) const {
    return g == 0 ? 0.0 : static_cast<double>(g) * width_;
  }

 private:
  std::vector<double> cumulative_;
  std::vector<std::uint32_t> guide_;
  double width_ = 0;  // total / G
  double scale_ = 0;  // G / total
};

}  // namespace iri::workload
