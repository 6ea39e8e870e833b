#include "obs/timeseries.h"

#include <algorithm>

#include "netbase/crc32.h"
#include "obs/format.h"

namespace iri::obs {

WindowedHistogram::WindowedHistogram(std::span<const std::int64_t> upper_edges,
                                     int window_ticks)
    : edges_(upper_edges.begin(), upper_edges.end()),
      ring_(static_cast<std::size_t>(std::max(1, window_ticks))),
      current_(upper_edges.size() + 1, 0),
      totals_(upper_edges.size() + 1, 0),
      window_sums_(ring_.size(), 0),
      window_counts_(ring_.size(), 0) {
  IRI_ASSERT(std::is_sorted(edges_.begin(), edges_.end()),
             "windowed histogram upper edges must be ascending");
  for (auto& w : ring_) w.assign(edges_.size() + 1, 0);
}

void WindowedHistogram::Observe(std::int64_t v) {
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), v);
  const auto b = static_cast<std::size_t>(it - edges_.begin());
  current_[b] += 1;
  totals_[b] += 1;
  ++count_;
  sum_ += v;
  ++current_count_;
  current_sum_ += v;
}

void WindowedHistogram::CloseWindow() {
  // Evict the slot's expiring window from the aggregates, then rotate the
  // just-closed window into its place.
  std::vector<std::uint64_t>& old = ring_[slot_];
  for (std::size_t i = 0; i < totals_.size(); ++i) {
    totals_[i] -= old[i];
  }
  count_ -= window_counts_[slot_];
  sum_ -= window_sums_[slot_];
  old = current_;
  window_counts_[slot_] = current_count_;
  window_sums_[slot_] = current_sum_;
  current_.assign(current_.size(), 0);
  current_count_ = 0;
  current_sum_ = 0;
  slot_ = (slot_ + 1) % ring_.size();
}

WindowedCounter& SeriesFlusher::GetCounter(const std::string& name) {
  Instrument& inst = instruments_[name];
  IRI_ASSERT(inst.histogram == nullptr,
             "series name re-registered as a different instrument kind");
  if (inst.counter == nullptr) {
    inst.counter = std::make_unique<WindowedCounter>();
  }
  return *inst.counter;
}

WindowedHistogram& SeriesFlusher::GetWindowedHistogram(
    const std::string& name, std::span<const std::int64_t> upper_edges,
    int window_ticks) {
  Instrument& inst = instruments_[name];
  IRI_ASSERT(inst.counter == nullptr,
             "series name re-registered as a different instrument kind");
  if (inst.histogram == nullptr) {
    inst.histogram =
        std::make_unique<WindowedHistogram>(upper_edges, window_ticks);
  }
  return *inst.histogram;
}

void SeriesFlusher::Flush(TimePoint now) {
  for (auto& [name, inst] : instruments_) {
    scratch_ += "{\"t_ns\":";
    AppendI64(scratch_, now.nanos());
    scratch_ += ",\"series\":\"";
    scratch_ += name;  // series names are code constants; no escaping needed
    scratch_ += '"';
    if (inst.counter != nullptr) {
      WindowedCounter& c = *inst.counter;
      const std::uint64_t window = c.window();
      c.CloseWindow();
      scratch_ += ",\"window\":";
      AppendU64(scratch_, window);
      scratch_ += ",\"total\":";
      AppendU64(scratch_, c.total());
      scratch_ += ",\"ewma\":";
      AppendFixed6(scratch_, c.ewma());
    } else {
      WindowedHistogram& h = *inst.histogram;
      scratch_ += ",\"count\":";
      AppendU64(scratch_, h.count());
      scratch_ += ",\"sum\":";
      AppendI64(scratch_, h.sum());
      scratch_ += ",\"buckets\":[";
      for (std::size_t i = 0; i < h.buckets().size(); ++i) {
        if (i != 0) scratch_ += ',';
        AppendU64(scratch_, h.buckets()[i]);
      }
      scratch_ += ']';
      h.CloseWindow();
    }
    scratch_ += "}\n";
    ++records_;
  }
  crc_ = Crc32Update(crc_, {reinterpret_cast<const std::uint8_t*>(
                                scratch_.data()),
                            scratch_.size()});
  bytes_ += scratch_.size();
  if (sink_) sink_(scratch_);
  scratch_.clear();
  ++flushes_;
}

}  // namespace iri::obs
