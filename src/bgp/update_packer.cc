#include "bgp/update_packer.h"

#include <algorithm>

namespace iri::bgp {

std::vector<UpdateMessage> PackUpdates(std::span<const RouteOp> ops,
                                       const AttrTable& attrs,
                                       std::vector<obs::CauseVec>* causes) {
  std::vector<UpdateMessage> out;
  std::vector<obs::CauseVec> out_causes;  // parallel to out when requested

  // Withdrawals first, packed densely (matches observed router behaviour:
  // the paper's multi-million-withdrawal days arrived as packed UPDATEs).
  // The cause sideband mirrors each message's withdrawn list op for op.
  UpdateMessage withdrawals;
  obs::CauseVec withdrawal_causes;
  for (const RouteOp& op : ops) {
    if (!op.IsWithdraw()) continue;
    withdrawals.withdrawn.push_back(op.prefix);
    if (causes != nullptr) withdrawal_causes.push_back(op.cause);
    if (EstimateUpdateSize(withdrawals) > kMaxMessageSize - 64) {
      out.push_back(std::move(withdrawals));
      withdrawals = {};
      if (causes != nullptr) {
        out_causes.push_back(std::move(withdrawal_causes));
        withdrawal_causes = {};
      }
    }
  }
  if (!withdrawals.withdrawn.empty()) {
    out.push_back(std::move(withdrawals));
    if (causes != nullptr) out_causes.push_back(std::move(withdrawal_causes));
  }

  // Announcements grouped by identical attribute sets (equal ids). Order
  // within a group follows arrival order; groups are emitted in order of
  // first appearance. Grouping reorders ops relative to the input, so the
  // sideband is built here, one slot per NLRI prefix, in the same order.
  std::vector<UpdateMessage> groups;
  std::vector<AttrSetId> group_ids;  // parallel to groups
  std::vector<obs::CauseVec> group_causes;
  for (const RouteOp& op : ops) {
    if (op.IsWithdraw()) continue;
    std::size_t group_index = groups.size();
    for (std::size_t i = 0; i < groups.size(); ++i) {
      if (group_ids[i] == op.attr_id &&
          EstimateUpdateSize(groups[i]) < kMaxMessageSize - 64) {
        group_index = i;
        break;
      }
    }
    if (group_index == groups.size()) {
      groups.push_back({});
      groups.back().attributes = attrs.Get(op.attr_id);
      group_ids.push_back(op.attr_id);
      if (causes != nullptr) group_causes.emplace_back();
    }
    groups[group_index].nlri.push_back(op.prefix);
    if (causes != nullptr) group_causes[group_index].push_back(op.cause);
  }
  for (std::size_t i = 0; i < groups.size(); ++i) {
    out.push_back(std::move(groups[i]));
    if (causes != nullptr) out_causes.push_back(std::move(group_causes[i]));
  }
  if (causes != nullptr) *causes = std::move(out_causes);
  return out;
}

void OutboundQueue::Enqueue(TimePoint now, RouteOp op) {
  if (pending_.empty()) deadline_ = ComputeDeadline(now);
  auto [slot, inserted] = index_.TryEmplace(op.prefix);
  if (inserted) {
    *slot = static_cast<std::uint32_t>(pending_.size());
    pending_.push_back(op);
  } else {
    // Latest wins, keeping the original order slot; an announcement that
    // supersedes a queued withdrawal remembers it (see RouteOp).
    RouteOp& prior = pending_[*slot];
    if (!op.IsWithdraw() &&
        (prior.IsWithdraw() || prior.withdraw_preceded)) {
      op.withdraw_preceded = true;
    }
    prior = op;
  }
}

TimePoint OutboundQueue::ComputeDeadline(TimePoint now) {
  const std::int64_t interval = config_.interval.nanos();
  if (config_.discipline == TimerDiscipline::kUnjittered) {
    // Fixed phase: the next multiple of the interval strictly after `now`.
    // Every unjittered router flushes on the same global phase — the weak
    // coupling Floyd & Jacobson show leads to abrupt synchronization.
    const std::int64_t k = now.nanos() / interval + 1;
    return TimePoint::FromNanos(k * interval);
  }
  const double spread = 1.0 + config_.jitter * (2.0 * rng_.Uniform() - 1.0);
  return now + config_.interval * spread;
}

void OutboundQueue::Flush(TimePoint now, std::vector<RouteOp>& out) {
  out.clear();
  if (pending_.empty() || now < deadline_) return;
  deadline_ = TimePoint::Max();
  index_.Clear();
  out.swap(pending_);  // already in first-enqueue order
}

}  // namespace iri::bgp
