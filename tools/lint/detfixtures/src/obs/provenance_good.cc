// Good: the same tally with its per-cause counts in a dense vector indexed
// by cause id. Ids are a dense allocation-ordered sequence
// (obs::ProvenanceContext mints 1, 2, 3, ...), so Merge sweeps causes in
// fixed id order, the way obs::ShardProvenance::Merge folds its CauseStats.
// Must produce zero findings (guards the Merge sink root against false
// positives on id-indexed merges).

#include <cstddef>
#include <cstdint>
#include <vector>

namespace iri::obs {

class FxOrderedProvenanceTally {
 public:
  void Record(std::uint32_t cause_id, std::uint64_t updates) {
    if (cause_id == 0) return;  // null cause: unattributed
    if (by_id_.size() < cause_id) by_id_.resize(cause_id);
    by_id_[cause_id - 1] += updates;
  }
  void Merge(const FxOrderedProvenanceTally& other);

 private:
  std::vector<std::uint64_t> by_id_;
};

void FxOrderedProvenanceTally::Merge(const FxOrderedProvenanceTally& other) {
  if (by_id_.size() < other.by_id_.size()) by_id_.resize(other.by_id_.size());
  for (std::size_t i = 0; i < other.by_id_.size(); ++i) {
    by_id_[i] += other.by_id_[i];
  }
}

}  // namespace iri::obs
