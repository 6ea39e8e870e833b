#include "core/snapshot.h"

#include <cstdio>

namespace iri::core {

TableComposition AnalyzeTable(const bgp::Rib& rib) {
  TableComposition comp;
  std::set<std::string> paths;
  std::set<bgp::Asn> ases;
  rib.VisitPathCounts([&rib, &comp, &paths, &ases](const Prefix& prefix,
                                                   std::size_t num_paths) {
    ++comp.prefixes;
    comp.routes += num_paths;
    if (num_paths > 1) ++comp.multihomed;
    if (prefix.length() < 17) ++comp.aggregates;
    for (const auto& candidate : rib.CandidatesFor(prefix)) {
      const bgp::AsPath& path = rib.AttributesOf(candidate).as_path;
      paths.insert(path.ToString());
      for (const auto& segment : path.segments()) {
        for (bgp::Asn asn : segment.asns) ases.insert(asn);
      }
    }
  });
  comp.unique_as_paths = paths.size();
  comp.autonomous_systems = ases.size();
  return comp;
}

std::string TableComposition::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%zu prefixes (%zu aggregates), %zu paths, %zu unique "
                "ASPATHs, %zu ASes, %zu multihomed",
                prefixes, aggregates, routes, unique_as_paths,
                autonomous_systems, multihomed);
  return buf;
}

TableSnapshot TableSnapshot::Capture(const bgp::Rib& rib) {
  TableSnapshot snap;
  rib.VisitBest([&rib, &snap](const Prefix& prefix,
                              const bgp::Candidate& best, bgp::PrefixSlot) {
    snap.entries_[prefix] = rib.AttributesOf(best).as_path.ToString();
  });
  return snap;
}

TableDelta TableSnapshot::DiffAgainst(const TableSnapshot& later) const {
  TableDelta delta;
  auto old_it = entries_.begin();
  auto new_it = later.entries_.begin();
  while (old_it != entries_.end() || new_it != later.entries_.end()) {
    if (new_it == later.entries_.end() ||
        (old_it != entries_.end() && old_it->first < new_it->first)) {
      ++delta.removed;
      ++old_it;
    } else if (old_it == entries_.end() || new_it->first < old_it->first) {
      ++delta.added;
      ++new_it;
    } else {
      if (old_it->second != new_it->second) ++delta.path_changed;
      ++old_it;
      ++new_it;
    }
  }
  return delta;
}

}  // namespace iri::core
