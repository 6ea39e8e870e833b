#include "bgp/update_packer.h"

#include <algorithm>

namespace iri::bgp {

std::span<const UpdatePacker::Packed> UpdatePacker::Pack(
    std::span<const RouteOp> ops, const AttrTable& attrs) {
  messages_.clear();
  prefixes_.clear();
  causes_.clear();
  groups_.clear();
  group_of_.clear();
  open_group_.Clear();
  // EstimateUpdateSize of an UPDATE holding n prefixes (plus, with NLRI,
  // the set's attribute estimate) is kEmpty + 5 n (+ estimate).
  constexpr std::size_t kEmpty = kHeaderSize + 4;
  constexpr std::size_t kLimit = kMaxMessageSize - 64;

  // Withdrawals in op order; a message closes after the prefix that takes
  // its estimate past the limit.
  bool open = false;
  for (const RouteOp& op : ops) {
    if (!op.IsWithdraw()) continue;
    if (!open) {
      messages_.push_back(Packed{kInvalidAttrSetId,
                                 static_cast<std::uint32_t>(prefixes_.size()),
                                 0});
    }
    prefixes_.push_back(op.prefix);
    causes_.push_back(op.cause);
    open = kEmpty + 5 * ++messages_.back().count <= kLimit;
  }

  // Announcements: assign each to a group (an id's open group while its
  // estimate is below the limit, else a new one), then lay the groups out
  // back to back in creation order, each in arrival order.
  for (const RouteOp& op : ops) {
    if (op.IsWithdraw()) continue;
    auto [group, fresh] = open_group_.TryEmplace(op.attr_id);
    if (!fresh && kEmpty + 5 * groups_[*group].count +
                          attrs.PackingEstimate(op.attr_id) >=
                      kLimit) {
      fresh = true;
    }
    if (fresh) {
      *group = static_cast<std::uint32_t>(groups_.size());
      groups_.push_back(Group{op.attr_id, 0});
    }
    ++groups_[*group].count;
    group_of_.push_back(*group);
  }
  const std::size_t first_group = messages_.size();
  std::uint32_t next = static_cast<std::uint32_t>(prefixes_.size());
  for (const Group& g : groups_) {
    messages_.push_back(Packed{g.attr_id, next, 0});
    next += g.count;
  }
  prefixes_.resize(next);
  causes_.resize(next);
  std::size_t k = 0;
  for (const RouteOp& op : ops) {
    if (op.IsWithdraw()) continue;
    Packed& m = messages_[first_group + group_of_[k++]];
    prefixes_[m.begin + m.count] = op.prefix;
    causes_[m.begin + m.count] = op.cause;
    ++m.count;
  }
  return messages_;
}

std::vector<std::uint8_t> UpdatePacker::Wire(const Packed& m,
                                             AttrTable& attrs) const {
  const std::span<const Prefix> prefixes = Prefixes(m);
  const std::span<const Prefix> withdrawn =
      m.IsWithdrawal() ? prefixes : std::span<const Prefix>();
  const std::span<const Prefix> nlri =
      m.IsWithdrawal() ? std::span<const Prefix>() : prefixes;
  const std::span<const std::uint8_t> attributes =
      m.IsWithdrawal() ? std::span<const std::uint8_t>()
                       : attrs.Encoded(m.attr_id);
  ByteWriter out;
  out.Reserve(FramedUpdateSize(withdrawn, attributes.size(), nlri));
  FrameUpdate(withdrawn, attributes, nlri, out);
  return std::move(out).Take();
}

void OutboundQueue::Enqueue(TimePoint now, RouteOp op) {
  if (pending_.empty()) deadline_ = ComputeDeadline(now);
  std::uint32_t& pos = SlotEntry(index_, op.slot, kNotQueued);
  if (pos == kNotQueued) {
    pos = static_cast<std::uint32_t>(pending_.size());
    pending_.push_back(op);
  } else {
    // Latest wins, keeping the original position; an announcement that
    // supersedes a queued withdrawal remembers it (see RouteOp).
    RouteOp& prior = pending_[pos];
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
  constexpr double kJitter = 0.25;  // flush after interval*(1±kJitter)
  const double spread = 1.0 + kJitter * (2.0 * rng_.Uniform() - 1.0);
  return now + config_.interval * spread;
}

void OutboundQueue::Flush(TimePoint now, std::vector<RouteOp>& out) {
  out.clear();
  if (pending_.empty() || now < deadline_) return;
  deadline_ = TimePoint::Max();
  for (const RouteOp& op : pending_) index_[op.slot] = kNotQueued;
  out.swap(pending_);  // already in first-enqueue order
}

}  // namespace iri::bgp
