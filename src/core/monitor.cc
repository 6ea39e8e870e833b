#include "core/monitor.h"

#include <string>

#include "core/invariants.h"

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

void ExchangeMonitor::ConfigureSharding(int shards, int shard_threads,
                                        std::size_t batch_cap) {
  IRI_ASSERT(pending_.empty() && events_seen_ == 0,
             "sharding must be configured before ingestion starts");
  classifier_.Configure(shards);
  shard_threads_ = shard_threads < 1 ? 1 : shard_threads;
  batch_cap_ = batch_cap;
}

void ExchangeMonitor::AttachMetrics(obs::Registry* registry) {
  if (registry == nullptr) {
    messages_metric_ = events_metric_ = mrt_records_metric_ = nullptr;
    category_metrics_.fill(nullptr);
    ingest_site_ = obs::ProfileSite{};
    drain_site_ = obs::ProfileSite{};
    shard_events_metrics_.clear();
    shard_depth_metrics_.clear();
    return;
  }
  messages_metric_ = &registry->GetCounter("monitor.messages");
  events_metric_ = &registry->GetCounter("monitor.events");
  mrt_records_metric_ = &registry->GetCounter("mrt.records");
  for (std::size_t i = 0; i < kNumCategories; ++i) {
    category_metrics_[i] = &registry->GetCounter(
        std::string("monitor.bin.") + ToString(static_cast<Category>(i)));
  }
  ingest_site_ = obs::MakeProfileSite(*registry, "monitor.ingest");
  // Hand-rolled kWallClock site (MakeProfileSite would register calls/items
  // as deterministic): drain cadence depends on the batching configuration
  // — offline replay drains per message, live scenarios on cap and tick —
  // so even the counts must stay out of deterministic snapshots or the
  // replay-differential contract (identical monitor.* snapshots) breaks.
  drain_site_.calls = &registry->GetCounter("profile.monitor.drain.calls",
                                            obs::Stability::kWallClock);
  drain_site_.items = &registry->GetCounter("profile.monitor.drain.items",
                                            obs::Stability::kWallClock);
  drain_site_.wall_ns =
      registry->wall_clock_profiling()
          ? &registry->GetCounter("profile.monitor.drain.wall_ns",
                                  obs::Stability::kWallClock)
          : nullptr;
  // Per-shard depth instruments are kWallClock by design: shard-count-
  // dependent names must never reach a digest-feeding snapshot (golden
  // digests are pinned byte-identical across the (threads x shards)
  // matrix). The scaling bench reads them with include_wall_clock=true.
  shard_events_metrics_.clear();
  shard_depth_metrics_.clear();
  for (int s = 0; s < classifier_.num_shards(); ++s) {
    const std::string tag = std::to_string(s);
    shard_events_metrics_.push_back(&registry->GetCounter(
        "monitor.shard." + tag + ".events", obs::Stability::kWallClock));
    shard_depth_metrics_.push_back(&registry->GetGauge(
        "monitor.shard." + tag + ".depth_peak", obs::Stability::kWallClock,
        obs::GaugeMerge::kMax));
  }
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
  events_per_msg_series_ =
      &series->GetHistogram("monitor.events_per_msg", kPerMsgEdges,
                            /*window_ticks=*/6);
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
  // Stage 1: explode into the pending batch (interning the message's
  // attribute set once) and feed every category-independent consumer at tap
  // time.
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
  if (batch_cap_ == 0 || pending_.size() >= batch_cap_) Drain();
}

void ExchangeMonitor::Drain() {
  if (pending_.empty()) return;
  const std::size_t n = pending_.size();
  if (verdicts_.size() < n) verdicts_.resize(n);
  {
    // Stage 2: sharded classification. The timer's wall time is the scaling
    // bench's drain_wall_ns_sum (the fork-join, thread spawn included);
    // count/items stay deterministic and shard-independent.
    obs::ScopedTimer timer(&drain_site_, n);
    classifier_.ClassifyBatch({pending_.data(), n}, {verdicts_.data(), n},
                              shard_threads_);
  }
  if (!shard_events_metrics_.empty()) {
    const auto& counts = classifier_.last_batch_shard_counts();
    for (std::size_t s = 0; s < counts.size(); ++s) {
      shard_events_metrics_[s]->Add(counts[s]);
      shard_depth_metrics_[s]->RaiseTo(static_cast<std::int64_t>(counts[s]));
    }
  }
  // Stage 3: serial analysis walk in arrival order — the only stage that
  // observes categories, so every output byte is produced in a fixed order
  // regardless of how stage 2 was scheduled.
  for (std::size_t i = 0; i < n; ++i) {
    const ShardVerdict v = verdicts_[i];
    ++events_seen_;
    if (events_metric_ != nullptr) {
      events_metric_->Add(1);
      category_metrics_[static_cast<std::size_t>(v.category)]->Add(1);
    }
    if (updates_series_ != nullptr) {
      updates_series_->Add(1);
      if (v.category == Category::kWWDup) wwdup_series_->Add(1);
      if (v.category == Category::kAADup) aadup_series_->Add(1);
    }
    if (!sinks_.empty()) {
      const ClassifiedEvent classified{pending_[i], v.category,
                                       v.policy_fluctuation};
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
  Drain();
  return updates;
}

}  // namespace iri::core
