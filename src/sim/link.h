// Point-to-point link model connecting two router endpoints.
//
// Links carry encoded BGP messages (real wire bytes — every hop exercises
// the codec) with a fixed propagation latency. Scenario code fails and
// restores a link, for line failures and for CSU clock-drift episodes
// (§4.2's "misconfigured CSUs ... cause the line to oscillate"): router
// interface cards are "sensitive to millisecond loss of line carrier", so
// even a brief carrier drop takes the BGP transport down with it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netbase/time.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "sim/scheduler.h"

namespace iri::sim {

// Implemented by Router. Links call these to deliver transport events.
class LinkEndpoint {
 public:
  virtual ~LinkEndpoint() = default;
  virtual void OnTransportUp(std::uint32_t local_peer_id) = 0;
  virtual void OnTransportDown(std::uint32_t local_peer_id) = 0;
  // `causes` is the provenance sideband for the message's events (withdrawn
  // then NLRI order); empty when the sender attached none.
  virtual void OnWireData(std::uint32_t local_peer_id,
                          std::vector<std::uint8_t> bytes,
                          obs::CauseVec causes) = 0;
  // Convenience for callers without a sideband (tests, manual injection).
  void OnWireData(std::uint32_t local_peer_id,
                  std::vector<std::uint8_t> bytes) {
    OnWireData(local_peer_id, std::move(bytes), obs::CauseVec{});
  }
};

class Link {
 public:
  Link(Scheduler& sched, Duration latency) : sched_(sched), latency_(latency) {}

  // Wires up side A/B. `peer_id` is the identifier the endpoint uses for
  // this adjacency (each router numbers its own peers).
  void AttachA(LinkEndpoint* ep, std::uint32_t peer_id) { a_ = {ep, peer_id}; }
  void AttachB(LinkEndpoint* ep, std::uint32_t peer_id) { b_ = {ep, peer_id}; }

  // Attaches metrics (link.* counters, shared across all links on the
  // registry) and fail/restore trace events tagged with `name`. Either
  // pointer may be null.
  void AttachObservability(obs::Registry* registry, obs::Tracer* tracer,
                           std::string name);

  // Attaches the partition's provenance context: Fail/Restore capture the
  // ambient cause active at the transition, so session events the FSM
  // derives from this transport (downs, re-establishment dumps) can inherit
  // it. Null detaches.
  void SetProvenance(obs::ProvenanceContext* prov) { prov_ = prov; }

  // The cause captured at the most recent Fail/Restore (null when the
  // transition happened outside any cause scope, e.g. bootstrap).
  obs::CauseTag transition_cause() const { return transition_cause_; }

  bool up() const { return up_; }
  std::uint64_t bytes_carried() const { return bytes_carried_; }

  // Brings the link (and transport) up; notifies both endpoints.
  void Restore();

  // Takes the link down; in-flight data is lost, endpoints are notified.
  void Fail();

  // Sends bytes from endpoint `from` to the other side, delivered after the
  // propagation latency if the link is still up at delivery time (a fail
  // between send and delivery drops the data, as TCP segments in flight are
  // lost when carrier drops). `causes` rides in the delivery (a sideband
  // next to the wire bytes, never on them — MRT logs are unchanged).
  void Send(const LinkEndpoint* from, std::vector<std::uint8_t> bytes,
            obs::CauseVec causes = {});

 private:
  struct Side {
    LinkEndpoint* endpoint = nullptr;
    std::uint32_t peer_id = 0;
  };

  Scheduler& sched_;
  Duration latency_;
  Side a_, b_;
  bool up_ = false;
  std::uint64_t epoch_ = 0;  // bumped on every Fail; stale deliveries dropped
  std::uint64_t bytes_carried_ = 0;
  std::string name_;
  obs::Tracer* tracer_ = nullptr;
  obs::ProvenanceContext* prov_ = nullptr;
  obs::CauseTag transition_cause_;
  obs::Counter* fails_ = nullptr;
  obs::Counter* restores_ = nullptr;
  obs::Counter* messages_metric_ = nullptr;
  obs::Counter* bytes_metric_ = nullptr;
};

}  // namespace iri::sim
