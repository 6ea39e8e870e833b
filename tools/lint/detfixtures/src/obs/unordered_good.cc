// Good: the same tally rendered from a std::map — iteration order is the
// key order, deterministic on every standard library. Must produce zero
// findings (guards the analyzer against false positives on ordered maps).

#include <map>
#include <string>

namespace iri::obs {

class FxOrderedTally {
 public:
  void Bump(int key) { ++counts_[key]; }
  std::string SnapshotText() const;

 private:
  std::map<int, long> counts_;
};

std::string FxOrderedTally::SnapshotText() const {
  std::string out = "{";
  for (const auto& kv : counts_) {
    out += std::to_string(kv.first) + ":" + std::to_string(kv.second) + ",";
  }
  out += "}";
  return out;
}

}  // namespace iri::obs
