// Bad: a provenance tally that keeps its per-cause counts in a
// std::unordered_map keyed by cause id, and merges another exchange's tally
// by walking that map. The walk order is the hash layout, so the order in
// which causes enter the merged rollup (and from there the attribution
// digest section) depends on bucket accidents instead of being a pure
// function of (seed, config). No Snapshot/Digest name appears here: a
// `Merge` member in src/obs/ is itself an output sink root, the rule that
// roots obs::ShardProvenance::Merge.
//
// det-expect: unordered-in-output

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace iri::obs {

class FxProvenanceTally {
 public:
  void Record(std::uint32_t cause_id, std::uint64_t updates) {
    per_cause_[cause_id] += updates;
  }
  void Merge(const FxProvenanceTally& other);

 private:
  std::unordered_map<std::uint32_t, std::uint64_t> per_cause_;
  std::vector<std::uint32_t> first_seen_order_;
};

void FxProvenanceTally::Merge(const FxProvenanceTally& other) {
  for (const auto& kv : other.per_cause_) {
    if (per_cause_.count(kv.first) == 0) first_seen_order_.push_back(kv.first);
    per_cause_[kv.first] += kv.second;
  }
}

}  // namespace iri::obs
