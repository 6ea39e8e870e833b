#include "core/monitor.h"

namespace iri::core {

void ExchangeMonitor::Attach(sim::Router& route_server) {
  local_asn_ = route_server.config().asn;
  route_server.SetUpdateTap(
      [this](TimePoint now, bgp::PeerId peer, bgp::Asn peer_asn,
             const bgp::UpdateMessage& update,
             std::span<const std::uint8_t> wire,
             const obs::CauseVec& causes) {
        Ingest(now, peer, peer_asn, update, wire, causes);
      });
}

void ExchangeMonitor::AttachMetrics(obs::Registry* registry) {
  if (registry == nullptr) {
    messages_metric_ = events_metric_ = mrt_records_metric_ = nullptr;
    ingest_site_ = drain_site_ = obs::ProfileSite{};
    return;
  }
  messages_metric_ = &registry->GetCounter("monitor.messages");
  events_metric_ = &registry->GetCounter("monitor.events");
  mrt_records_metric_ = &registry->GetCounter("mrt.records");
  ingest_site_ = obs::MakeProfileSite(*registry, "monitor.ingest");
  drain_site_ = obs::MakeProfileSite(*registry, "monitor.drain");
}

void ExchangeMonitor::AttachTimeSeries(obs::SeriesFlusher* series,
                                       obs::HealthMonitor* health) {
  health_ = health;
  if (series == nullptr) {
    updates_series_ = wwdup_series_ = aadup_series_ = nullptr;
    events_per_msg_series_ = nullptr;
    return;
  }
  updates_series_ = &series->GetCounter("monitor.updates");
  wwdup_series_ = &series->GetCounter("monitor.wwdup");
  aadup_series_ = &series->GetCounter("monitor.aadup");
  // Events exploded per UPDATE message, over the last 6 windows: a live view
  // of packing density (withdrawal sprays arrive hundreds to the message).
  static constexpr std::int64_t kPerMsgEdges[] = {1, 2, 4, 8, 16, 32, 128};
  events_per_msg_series_ = &series->GetWindowedHistogram(
      "monitor.events_per_msg", kPerMsgEdges, /*window_ticks=*/6);
}

void ExchangeMonitor::Ingest(TimePoint now, bgp::PeerId peer,
                             bgp::Asn peer_asn,
                             const bgp::UpdateMessage& update,
                             std::span<const std::uint8_t> wire,
                             const obs::CauseVec& causes) {
  obs::ScopedTimer timer(&ingest_site_);
  ++messages_seen_;
  if (messages_metric_ != nullptr) messages_metric_->Add(1);
  if (mrt_ != nullptr) {
    if (!wire.empty()) {
      // Zero-copy: log the exact received bytes. Encode(Decode(x)) == x is
      // pinned by the roundtrip fuzz suite, so this writes what the
      // re-encoding path would have.
      mrt_->LogPayload(now, peer, static_cast<std::uint16_t>(peer_asn),
                       static_cast<std::uint16_t>(local_asn_), wire);
    } else {
      mrt_->LogMessage(now, peer, static_cast<std::uint16_t>(peer_asn),
                       static_cast<std::uint16_t>(local_asn_), update);
    }
    if (mrt_records_metric_ != nullptr) mrt_records_metric_->Add(1);
  }
  // Explode (interning the message's attribute set once) and feed every
  // category-independent consumer.
  const std::size_t n =
      ExplodeUpdate(now, peer, peer_asn, update, attrs_, pending_, causes);
  timer.AddItems(n);
  if (events_per_msg_series_ != nullptr) {
    events_per_msg_series_->Observe(static_cast<std::int64_t>(n));
  }
  if (health_ != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      health_->ObservePeerEvent(now, peer);
    }
  }
  Drain();
}

void ExchangeMonitor::Drain() {
  if (pending_.empty()) return;
  obs::ScopedTimer timer(&drain_site_, pending_.size());
  for (const UpdateEvent& ev : pending_) {
    const Verdict v = classifier_.ClassifyVerdict(ev);
    ++events_seen_;
    if (events_metric_ != nullptr) events_metric_->Add(1);
    if (updates_series_ != nullptr) {
      updates_series_->Add(1);
      if (v.category == Category::kWWDup) wwdup_series_->Add(1);
      if (v.category == Category::kAADup) aadup_series_->Add(1);
    }
    if (!sinks_.empty()) {
      const ClassifiedEvent classified{ev, v.category, v.policy_fluctuation};
      for (const Sink& sink : sinks_) sink(classified);
    }
  }
  pending_.clear();
}

std::uint64_t ExchangeMonitor::Replay(mrt::Reader& reader) {
  std::uint64_t updates = 0;
  while (auto rec = reader.Next()) {
    auto msg = rec->DecodeMessage();
    if (!msg) continue;
    if (const auto* update = std::get_if<bgp::UpdateMessage>(&*msg)) {
      Ingest(rec->timestamp, rec->peer_id, rec->peer_asn, *update,
             rec->payload);
      ++updates;
    }
  }
  return updates;
}

}  // namespace iri::core
