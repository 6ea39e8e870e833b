// Bad: SnapshotText renders a std::unordered_map in hash order. The bytes
// land in the golden digests, so this is a portability time bomb: libstdc++
// hash order is stable on one platform (golden runs pass!) but differs
// across standard libraries. Only the reachability pass catches the hazard.
//
// det-expect: unordered-in-output

#include <string>
#include <unordered_map>

namespace iri::obs {

class FxHashTally {
 public:
  void Bump(int key) { ++counts_[key]; }
  std::string SnapshotText() const;

 private:
  std::unordered_map<int, long> counts_;
};

std::string FxHashTally::SnapshotText() const {
  std::string out = "{";
  for (const auto& kv : counts_) {
    out += std::to_string(kv.first) + ":" + std::to_string(kv.second) + ",";
  }
  out += "}";
  return out;
}

}  // namespace iri::obs
