#include "obs/metrics.h"

#include <cstdio>

namespace iri::obs {

namespace {

void AppendU64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void AppendI64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out += buf;
}

}  // namespace

Registry::Instrument& Registry::Register(const std::string& name,
                                         Instrument::Kind kind,
                                         Stability stability) {
  auto it = instruments_.find(name);
  if (it != instruments_.end()) {
    IRI_ASSERT(it->second->kind == kind,
               "metrics name re-registered as a different instrument kind");
    return *it->second;
  }
  auto inst = std::make_unique<Instrument>();
  inst->kind = kind;
  inst->stability = stability;
  return *instruments_.emplace(name, std::move(inst)).first->second;
}

Counter& Registry::GetCounter(const std::string& name, Stability stability) {
  return Register(name, Instrument::Kind::kCounter, stability).counter;
}

Gauge& Registry::GetGauge(const std::string& name, Stability stability,
                          GaugeMerge merge) {
  Instrument& inst = Register(name, Instrument::Kind::kGauge, stability);
  // Last registration wins on a kSum->kMax upgrade so Merge() can create
  // the destination with the source's policy; conflicting explicit
  // policies in one partition are a caller bug caught by the snapshot
  // diverging, not worth an assert on the hot get-or-create path.
  if (merge == GaugeMerge::kMax) inst.gauge_merge = GaugeMerge::kMax;
  return inst.gauge;
}

void Registry::Merge(const Registry& other) {
  for (const auto& [name, inst] : other.instruments_) {
    switch (inst->kind) {
      case Instrument::Kind::kCounter:
        GetCounter(name, inst->stability).Add(inst->counter.value());
        break;
      case Instrument::Kind::kGauge: {
        Gauge& g = GetGauge(name, inst->stability, inst->gauge_merge);
        if (inst->gauge_merge == GaugeMerge::kMax) {
          g.RaiseTo(inst->gauge.value());
        } else {
          g.Add(inst->gauge.value());
        }
        break;
      }
    }
  }
}

std::string Registry::SnapshotText(const std::string& prefix) const {
  std::string out;
  for (const auto& [name, inst] : instruments_) {
    if (inst->stability == Stability::kWallClock) continue;
    if (!prefix.empty() && name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    switch (inst->kind) {
      case Instrument::Kind::kCounter:
        out += "counter ";
        out += name;
        out += ' ';
        AppendU64(out, inst->counter.value());
        break;
      case Instrument::Kind::kGauge:
        out += "gauge ";
        out += name;
        out += ' ';
        AppendI64(out, inst->gauge.value());
        break;
    }
    out += '\n';
  }
  return out;
}

}  // namespace iri::obs
