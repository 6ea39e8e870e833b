// The measurement apparatus: taps a route server's peerings, classifies
// every prefix update, optionally logs raw messages in MRT form, and fans
// classified events out to any number of statistics collectors.
//
// This is the software analogue of the paper's §2 methodology: "we logged
// BGP routing messages exchanged with the Routing Arbiter project's route
// servers ... [and] use several tools to decode and analyze the BGP packet
// logs".
//
// Ingestion is a three-stage pipeline (DESIGN.md §13):
//
//   stage 1 (codec, at tap time): MRT logging (zero-copy from the received
//     wire bytes), message counters, the events-per-message histogram and
//     the health monitor's per-event peer feed — everything that does not
//     depend on the event's category. The message's attribute set is
//     interned once into the monitor's AttrTable and the exploded events,
//     which carry its ids, are appended to a pending batch.
//   stage 2 (classify, at drain time): the pending batch fans out over the
//     prefix-sharded classifier (ShardedClassifier), each shard processing
//     its own events in arrival order.
//   stage 3 (analysis, at drain time): a serial walk over the batch in
//     arrival order re-joins verdicts with events and feeds the category
//     counters, series instruments and sinks — byte-identical output at any
//     (threads x shards) combination.
//
// Unconfigured monitors (unit tests, offline replay) drain at the end of
// every Ingest call, which makes the pipeline observationally identical to
// the historical one-stage path. Scenario-driven monitors drain on a batch
// cap and at every observation boundary (series tick, midnight, run end).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/classifier.h"
#include "core/event.h"
#include "mrt/log.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/timeseries.h"
#include "sim/router.h"

namespace iri::core {

class ExchangeMonitor {
 public:
  using Sink = std::function<void(const ClassifiedEvent&)>;

  // Installs this monitor as `route_server`'s update tap. The monitor must
  // outlive the router (or the tap must be cleared first).
  void Attach(sim::Router& route_server);

  // Registers a collector callback; called for every classified event in
  // arrival order.
  void AddSink(Sink sink) { sinks_.push_back(std::move(sink)); }

  // Mirrors every tapped UPDATE message into an MRT log. Not owned.
  void SetMrtWriter(mrt::Writer* writer) { mrt_ = writer; }

  // Partitions the classifier by prefix space into `shards` shards and
  // switches ingestion to batched draining: events accumulate until
  // `batch_cap` are pending (or Drain() is called) and are then classified
  // with up to `shard_threads` workers. Digests are byte-identical at any
  // (shards, shard_threads, batch_cap) combination; only throughput moves.
  // Must be called before any event is ingested.
  void ConfigureSharding(int shards, int shard_threads,
                         std::size_t batch_cap = kDefaultBatchCap);

  // Classifies everything pending and feeds the analysis stage. Safe to
  // call at any time; the scenario drains at every observation boundary.
  void Drain();

  // Attaches the monitor.* instruments (message/event counters, one counter
  // per taxonomy bin, the monitor.ingest/monitor.drain profile sites).
  // Every counter the live tap feeds is also fed by offline Replay(), so a
  // live run and its MRT replay produce identical "monitor."-prefixed
  // snapshots — the replay-differential test's contract. MRT record
  // accounting deliberately lives under "mrt.records" (outside the prefix):
  // replay has no writer. Call after ConfigureSharding: the per-shard
  // depth instruments are sized by the configured shard count.
  void AttachMetrics(obs::Registry* registry);

  // Attaches the streaming telemetry feeds: windowed series instruments
  // (monitor.updates / monitor.wwdup / monitor.aadup counters and the
  // monitor.events_per_msg sliding-window histogram) drained by the
  // scenario's periodic flush, plus the per-event peer feed of the health
  // monitor's flap-burst sessionizer. Either pointer may be null; null/null
  // detaches. Costs a few cached-pointer increments per event when attached,
  // two pointer tests when not.
  void AttachTimeSeries(obs::SeriesFlusher* series,
                        obs::HealthMonitor* health);

  // Feeds one update message through the pipeline — used both by the live
  // tap and by offline MRT replay. `wire` optionally carries the message's
  // received wire bytes; when present the MRT writer logs them directly
  // (zero-copy) instead of re-encoding `update`. Encode(Decode(x)) == x is
  // pinned by the wire-roundtrip fuzz suite, so the logged bytes are
  // identical either way.
  // `causes` is the message's provenance sideband (withdrawn-then-NLRI
  // order; empty for replay and untagged senders) — it flows into the
  // exploded events and from there into the classifier's attribution
  // matrix, never into the MRT bytes.
  void Ingest(TimePoint now, bgp::PeerId peer, bgp::Asn peer_asn,
              const bgp::UpdateMessage& update,
              std::span<const std::uint8_t> wire = {},
              const obs::CauseVec& causes = {});

  // Replays an MRT log through the monitor (offline analysis path).
  // Returns the number of UPDATE messages ingested. Drains on return.
  std::uint64_t Replay(mrt::Reader& reader);

  const ShardedClassifier& classifier() const { return classifier_; }
  std::uint64_t events_seen() const { return events_seen_; }
  std::uint64_t messages_seen() const { return messages_seen_; }
  std::size_t pending_events() const { return pending_.size(); }

  static constexpr std::size_t kDefaultBatchCap = 4096;

 private:
  ShardedClassifier classifier_;
  // Every event's attr_id/fwd_id comes from this table: each UPDATE's set
  // is interned once at stage 1, and the classifier only compares the ids.
  bgp::AttrTable attrs_;
  std::vector<Sink> sinks_;
  mrt::Writer* mrt_ = nullptr;
  bgp::Asn local_asn_ = 0;
  std::uint64_t events_seen_ = 0;
  std::uint64_t messages_seen_ = 0;
  // Pending batch (stage 1 -> stage 2 hand-off); cleared, capacity kept,
  // by every Drain.
  std::vector<UpdateEvent> pending_;
  std::vector<ShardVerdict> verdicts_;  // stage-2 output, batch-indexed
  int shard_threads_ = 1;
  std::size_t batch_cap_ = 0;  // 0 = drain at the end of every Ingest
  obs::Counter* messages_metric_ = nullptr;
  obs::Counter* events_metric_ = nullptr;
  obs::Counter* mrt_records_metric_ = nullptr;
  std::array<obs::Counter*, kNumCategories> category_metrics_{};
  obs::ProfileSite ingest_site_;
  // Times the stage-2 fan-out/join (summed into the scaling bench's
  // drain_wall_ns_sum); its deterministic count/items mirror drains and
  // drained events, shard-count independent.
  obs::ProfileSite drain_site_;
  // Per-shard depth instruments (events per shard, peak batch slice).
  // Registered kWallClock: their values are deterministic, but they exist
  // per shard — snapshots must stay byte-identical across shard counts, so
  // they are excluded from digest-feeding snapshots by stability class.
  std::vector<obs::Counter*> shard_events_metrics_;
  std::vector<obs::Gauge*> shard_depth_metrics_;
  obs::WindowedCounter* updates_series_ = nullptr;
  obs::WindowedCounter* wwdup_series_ = nullptr;
  obs::WindowedCounter* aadup_series_ = nullptr;
  obs::WindowedHistogram* events_per_msg_series_ = nullptr;
  obs::HealthMonitor* health_ = nullptr;
};

}  // namespace iri::core
