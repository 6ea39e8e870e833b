#include "sim/link.h"

namespace iri::sim {

void Link::AttachObservability(obs::Registry* registry, obs::Tracer* tracer,
                               std::string name) {
  name_ = std::move(name);
  tracer_ = tracer;
  if (registry == nullptr) {
    fails_ = restores_ = messages_metric_ = bytes_metric_ = nullptr;
    return;
  }
  fails_ = &registry->GetCounter("link.fails");
  restores_ = &registry->GetCounter("link.restores");
  messages_metric_ = &registry->GetCounter("link.messages");
  bytes_metric_ = &registry->GetCounter("link.bytes");
}

void Link::Restore() {
  if (up_) return;
  up_ = true;
  if (prov_ != nullptr) transition_cause_ = prov_->Current();
  if (restores_) restores_->Add(1);
  IRI_TRACE(tracer_, sched_.Now(), "link_restore", .Str("link", name_));
  if (a_.endpoint) a_.endpoint->OnTransportUp(a_.peer_id);
  if (b_.endpoint) b_.endpoint->OnTransportUp(b_.peer_id);
}

void Link::Fail() {
  if (!up_) return;
  up_ = false;
  ++epoch_;  // orphan anything still in flight
  if (prov_ != nullptr) transition_cause_ = prov_->Current();
  if (fails_) fails_->Add(1);
  IRI_TRACE(tracer_, sched_.Now(), "link_fail",
            .Str("link", name_).U64("epoch", epoch_));
  if (a_.endpoint) a_.endpoint->OnTransportDown(a_.peer_id);
  if (b_.endpoint) b_.endpoint->OnTransportDown(b_.peer_id);
}

void Link::Send(const LinkEndpoint* from, std::vector<std::uint8_t> bytes,
                obs::CauseVec causes) {
  if (!up_) return;
  const Side* dst = (from == a_.endpoint) ? &b_ : &a_;
  if (dst->endpoint == nullptr) return;
  ++messages_carried_;
  bytes_carried_ += bytes.size();
  if (messages_metric_) {
    messages_metric_->Add(1);
    bytes_metric_->Add(bytes.size());
  }
  const std::uint64_t epoch = epoch_;
  sched_.After(latency_, [this, dst, epoch, data = std::move(bytes),
                          tags = std::move(causes)]() mutable {
    if (epoch != epoch_ || !up_) return;  // carrier dropped in flight
    dst->endpoint->OnWireData(dst->peer_id, std::move(data), std::move(tags));
  });
}

}  // namespace iri::sim
