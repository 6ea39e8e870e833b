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

void LineFailureProcess::Start() { ScheduleFailure(); }

void LineFailureProcess::ScheduleFailure() {
  const double m = rate_multiplier_ <= 0 ? 1e-6 : rate_multiplier_;
  const Duration wait =
      Duration::Seconds(rng_.Exponential(params_.mean_time_to_failure.ToSeconds() / m));
  sched_.After(wait, [this] {
    if (link_.up()) {
      link_.Fail();
      ++failures_;
    }
    ScheduleRepair();
  });
}

void LineFailureProcess::ScheduleRepair() {
  const Duration wait =
      Duration::Seconds(rng_.Exponential(params_.mean_time_to_repair.ToSeconds()));
  sched_.After(wait, [this] {
    link_.Restore();
    ScheduleFailure();
  });
}

void CsuOscillator::Start() { ScheduleEpisode(); }

void CsuOscillator::ScheduleEpisode() {
  const Duration wait =
      Duration::Seconds(rng_.Exponential(params_.mean_episode_gap.ToSeconds()));
  sched_.After(wait, [this] {
    ++episodes_;
    Beat(sched_.Now() + params_.episode_length);
  });
}

void CsuOscillator::Beat(TimePoint episode_end) {
  if (sched_.Now() >= episode_end) {
    link_.Restore();  // episode over; make sure the line is back up
    ScheduleEpisode();
    return;
  }
  ++beats_;
  link_.Fail();
  sched_.After(params_.carrier_loss, [this] { link_.Restore(); });
  // Next beat: near-constant period with a small wobble (clock drift moves
  // slowly, so successive beats stay phase-coherent).
  const double wobble =
      1.0 + params_.period_wobble * (2.0 * rng_.Uniform() - 1.0);
  sched_.After(params_.beat_period * wobble,
               [this, episode_end] { Beat(episode_end); });
}

}  // namespace iri::sim
