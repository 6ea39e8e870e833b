// Outbound update batching — the "interval timer on BGP's update processing"
// at the heart of the paper's §4.2.
//
// Real routers do not transmit each route change immediately; they queue
// changes and flush them on a timer, packing many prefixes into few UPDATE
// messages. The paper identifies a vendor's *unjittered 30-second* flush
// timer as the probable source of the 30/60 s periodicity in Figure 8 and a
// contributor (with stateless BGP) to AADup/WWDup pathologies.
//
// Two timer disciplines are modeled:
//  - kUnjittered: flushes at fixed wall-phase multiples of the interval
//    (every router on the same phase — the self-synchronization substrate).
//  - kJittered: flushes interval*(1 ± 0.25) after the first enqueued
//    change, per the route-dampening draft's recommendation.
#pragma once

#include <span>
#include <type_traits>
#include <vector>

#include "bgp/intern.h"
#include "bgp/message.h"
#include "bgp/route.h"
#include "netbase/probe_map.h"
#include "netbase/rng.h"
#include "netbase/time.h"
#include "obs/provenance.h"

namespace iri::bgp {

// One net route change bound for a peer: announce (attr_id names an
// interned set of the sending router's table) or withdraw (invalid id).
// Trivially copyable, so queue entries move as plain bytes.
struct RouteOp {
  Prefix prefix;
  AttrSetId attr_id = kInvalidAttrSetId;  // kInvalidAttrSetId == withdrawal
  // True when a withdrawal for this prefix was queued earlier in the same
  // flush window and later superseded by this announcement. A stateful
  // sender coalesces the pair away; the pathological stateless
  // implementation transmits "withdrawals for every explicitly and
  // implicitly withdrawn prefix" followed by the current route — the W,A
  // trains that put half of Figure 8's mass in the 30 s bin.
  bool withdraw_preceded = false;
  // Provenance sideband: the injected cause this op descends from. Rides the
  // queue entry under latest-wins coalescing (the surviving op's cause wins,
  // like its attribute id) and is excluded from equality — two ops that would
  // put the same bytes on the wire compare equal whatever their ancestry.
  obs::CauseTag cause{};
  PrefixSlot slot = 0;  // the prefix's slot in the sender's Rib (queue key)

  bool IsWithdraw() const { return attr_id == kInvalidAttrSetId; }

  friend bool operator==(const RouteOp& a, const RouteOp& b) {
    return a.prefix == b.prefix && a.attr_id == b.attr_id &&
           a.withdraw_preceded == b.withdraw_preceded;
  }
};
static_assert(std::is_trivially_copyable_v<RouteOp>);

// Packs one flush's route ops straight into wire-legal UPDATEs. Withdrawals
// come first, packed densely (the paper's multi-million-withdrawal days
// arrived as packed UPDATEs). Announcements are grouped by attribute id
// (equal ids are byte-equal sets of the table the ops' ids come from);
// groups are emitted in order of first appearance and keep arrival order
// inside. A message is closed once EstimateUpdateSize of its contents
// reaches kMaxMessageSize - 64 (a withdrawal message after the prefix that
// crosses that line, a group before the next prefix). Each message also
// carries its cause sideband: one tag per prefix, aligned with the wire
// event order (withdrawn prefixes, then NLRI) — grouping reorders ops, so
// the sideband must be built here to stay aligned.
//
// The packer's buffers are reused scratch: after warm-up, Pack allocates
// nothing, and Wire makes exactly one allocation, the message itself.
class UpdatePacker {
 public:
  // One packed UPDATE: either a run of withdrawals or one attribute group.
  struct Packed {
    AttrSetId attr_id;    // kInvalidAttrSetId: a withdrawal message
    std::uint32_t begin;  // first slot in prefixes() / causes()
    std::uint32_t count;  // prefixes carried

    bool IsWithdrawal() const { return attr_id == kInvalidAttrSetId; }
  };

  // Packs `ops` (ids interned in `attrs`), replacing the previous batch.
  // Returns the messages in send order; valid until the next Pack.
  std::span<const Packed> Pack(std::span<const RouteOp> ops,
                               const AttrTable& attrs);

  // Message `m`'s prefixes (withdrawn or NLRI) and their causes.
  std::span<const Prefix> Prefixes(const Packed& m) const {
    return std::span<const Prefix>(prefixes_).subspan(m.begin, m.count);
  }
  std::span<const obs::CauseTag> Causes(const Packed& m) const {
    return std::span<const obs::CauseTag>(causes_).subspan(m.begin, m.count);
  }

  // Message `m` framed for the wire (FrameUpdate over the table's cached
  // attribute bytes), in one exact-size allocation.
  std::vector<std::uint8_t> Wire(const Packed& m, AttrTable& attrs) const;

 private:
  struct Group {
    AttrSetId attr_id;
    std::uint32_t count;
  };

  std::vector<Packed> messages_;
  std::vector<Prefix> prefixes_;        // message order, all messages
  std::vector<obs::CauseTag> causes_;   // parallel to prefixes_
  std::vector<Group> groups_;           // creation order
  std::vector<std::uint32_t> group_of_; // per announcement, in op order
  // An id's open group: the newest group of the id, the only one that can
  // still have room. Probed only, so its slot order reaches nothing.
  ProbeMap<AttrSetId, std::uint32_t> open_group_;
};

enum class TimerDiscipline : std::uint8_t { kUnjittered, kJittered };

struct PackerConfig {
  Duration interval = Duration::Seconds(30);
  TimerDiscipline discipline = TimerDiscipline::kUnjittered;
};

// Per-peer outbound queue. Latest-wins per prefix: an announce queued after
// a withdraw for the same prefix supersedes it within one flush window
// (this coalescing is what can turn real flaps into apparent silence, the
// "artificial route dampening" effect the paper describes).
class OutboundQueue {
 public:
  OutboundQueue(PackerConfig config, std::uint64_t rng_seed)
      : config_(config), rng_(rng_seed) {}

  // Queues a change; arms the flush deadline if the queue was empty.
  void Enqueue(TimePoint now, RouteOp op);

  // Time of the pending flush, or TimePoint::Max() when queue is empty.
  TimePoint NextFlush() const { return deadline_; }

  bool empty() const { return pending_.empty(); }
  std::size_t pending_ops() const { return pending_.size(); }

  // Drains the queue into `out` if the deadline has passed: net ops in
  // first-enqueued order. Leaves `out` empty when called before the
  // deadline. The queue and `out` swap buffers, so a caller that reuses one
  // `out` keeps both capacities and steady-state flushing never allocates.
  void Flush(TimePoint now, std::vector<RouteOp>& out);

 private:
  TimePoint ComputeDeadline(TimePoint now);

  PackerConfig config_;
  Rng rng_;
  // Net ops in first-enqueue order: latest-wins updates overwrite their
  // original position, so the vector is already flush-ordered — no sequence
  // numbers, no sort, no per-op tree node. index_ holds each queued slot's
  // position (grown on demand); Flush resets the positions it drains.
  std::vector<RouteOp> pending_;
  std::vector<std::uint32_t> index_;  // kNotQueued = none
  static constexpr std::uint32_t kNotQueued = 0xFFFFFFFFu;
  TimePoint deadline_ = TimePoint::Max();
};

}  // namespace iri::bgp
