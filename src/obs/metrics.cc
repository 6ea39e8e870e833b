#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <string_view>

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

Histogram::Histogram(std::span<const std::int64_t> upper_edges)
    : edges_(upper_edges.begin(), upper_edges.end()),
      buckets_(upper_edges.size() + 1, 0) {
  IRI_ASSERT(std::is_sorted(edges_.begin(), edges_.end()),
             "histogram upper edges must be ascending");
}

void Histogram::Observe(std::int64_t v) {
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), v);
  buckets_[static_cast<std::size_t>(it - edges_.begin())] += 1;
  ++count_;
  sum_ += v;
}

void Histogram::Merge(const Histogram& other) {
  IRI_ASSERT(edges_ == other.edges_,
             "histogram merge requires identical bucket edges");
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

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

Histogram& Registry::GetHistogram(const std::string& name,
                                  std::span<const std::int64_t> upper_edges,
                                  Stability stability) {
  Instrument& inst = Register(name, Instrument::Kind::kHistogram, stability);
  if (inst.histogram == nullptr) {
    inst.histogram = std::make_unique<Histogram>(upper_edges);
  } else {
    IRI_ASSERT(std::equal(upper_edges.begin(), upper_edges.end(),
                          inst.histogram->edges().begin(),
                          inst.histogram->edges().end()),
               "histogram re-registered with different bucket edges");
  }
  return *inst.histogram;
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
      case Instrument::Kind::kHistogram:
        GetHistogram(name, inst->histogram->edges(), inst->stability)
            .Merge(*inst->histogram);
        break;
    }
  }
}

std::string Registry::SnapshotText(bool include_wall_clock,
                                   const std::string& prefix) const {
  std::string out;
  // A profile site that never fired is pure registration noise: suppress the
  // whole `profile.<site>.{calls,items,wall_ns}` triple when calls == 0.
  // instruments_ is name-ordered, so the companions of a suppressed
  // `.calls` are the immediately following entries sharing its stem.
  std::string suppressed_stem;
  constexpr std::string_view kCalls = ".calls";
  for (const auto& [name, inst] : instruments_) {
    if (!suppressed_stem.empty()) {
      if (name.compare(0, suppressed_stem.size(), suppressed_stem) == 0) {
        const std::string_view leaf(name.c_str() + suppressed_stem.size());
        if (leaf == "items" || leaf == "wall_ns") continue;
      }
      suppressed_stem.clear();
    }
    if (inst->kind == Instrument::Kind::kCounter &&
        inst->counter.value() == 0 && name.size() > kCalls.size() &&
        name.compare(0, 8, "profile.") == 0 &&
        name.compare(name.size() - kCalls.size(), kCalls.size(), kCalls) ==
            0) {
      suppressed_stem.assign(name, 0, name.size() - kCalls.size() + 1);
      continue;
    }
    if (!include_wall_clock && inst->stability == Stability::kWallClock) {
      continue;
    }
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
      case Instrument::Kind::kHistogram: {
        const Histogram& h = *inst->histogram;
        out += "hist ";
        out += name;
        out += " count=";
        AppendU64(out, h.count());
        out += " sum=";
        AppendI64(out, h.sum());
        for (std::size_t i = 0; i < h.edges().size(); ++i) {
          out += " le";
          AppendI64(out, h.edges()[i]);
          out += '=';
          AppendU64(out, h.buckets()[i]);
        }
        out += " inf=";
        AppendU64(out, h.buckets().back());
        break;
      }
    }
    out += '\n';
  }
  return out;
}

}  // namespace iri::obs
