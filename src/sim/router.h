// A simulated BGP border router (or exchange-point route server).
//
// Composes the protocol-pure pieces from src/bgp — session FSM, RIB,
// decision process, policy engine, outbound update packer, optional flap
// dampener — under a CPU model, and speaks real wire-format BGP over Links.
//
// Two implementation personalities reproduce the paper's §4.2 findings:
//
//  * stateful (default): maintains an Adj-RIB-Out per peer and suppresses
//    updates that would not change what the peer already heard — the
//    "updated, stateful software" vendors shipped after the paper's results
//    were presented.
//  * stateless_bgp: keeps no Adj-RIB-Out. Announcements always go out on
//    flush, and every prefix that becomes unreachable (or is named in any
//    inbound withdrawal) triggers a withdrawal broadcast to ALL peers —
//    bypassing export policy, because the implementation tracks only its own
//    table, not what each peer was told. A provider that aggregates its
//    customers therefore still sprays component-prefix withdrawals at every
//    flap: the paper's WWDup engine ("withdrawals ... by autonomous systems
//    that never previously announced reachability for the withdrawn
//    prefixes").
//
// The CPU model charges per-update processing cost to a busy-until horizon;
// outbound messages (including KEEPALIVEs, unless bgp_priority_queuing is
// on) are delayed behind the backlog. Sustained update load therefore
// starves keepalives, peers' hold timers fire, sessions drop, full-table
// re-dumps add more load: the route flap storm, §3.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bgp/dampening.h"
#include "bgp/message.h"
#include "bgp/policy.h"
#include "bgp/rib.h"
#include "bgp/session.h"
#include "bgp/update_packer.h"
#include "netbase/rng.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "sim/link.h"
#include "sim/scheduler.h"

namespace iri::sim {

struct RouterConfig {
  std::string name;
  bgp::Asn asn = 0;
  IPv4Address router_id;
  IPv4Address interface_addr;  // NEXT_HOP written on exported routes

  bool stateless_bgp = false;  // the pathological vendor implementation
  bool transparent = false;    // route-server mode: no prepend, no next-hop
                               // rewrite (Routing Arbiter semantics)
  // Monitor-only collector: accept and classify inbound routes but never
  // re-export them. Measurement-equivalent to a full route server (provider
  // export policies stop RS-learned routes from ever returning to the RS)
  // while cutting simulation cost by the peer fan-out factor.
  bool no_reexport = false;

  bgp::PackerConfig packer;    // flush-timer discipline (30 s unjittered ...)
  std::uint16_t hold_time_s = 90;

  bool enable_dampening = false;  // RFC 2439, default DampeningParams

  // CPU model.
  Duration cost_per_prefix = Duration::Micros(150);   // per prefix processed
  bool bgp_priority_queuing = false;  // vendor fix: keepalives bypass backlog
  // Backlog beyond which the router crashes outright (0 disables). The paper
  // measured ~300 updates/s crashing "a widely deployed, high-end" router.
  Duration crash_backlog = Duration();
  Duration reboot_time = Duration::Seconds(90);
};

// The attribute rewrite of a router configured by `config` exporting the
// interned set `best` under `policy`: the export policy, then — unless
// transparent — the AS prepend and NEXT_HOP rewrite, then LOCAL_PREF cleared
// (it is iBGP-only; every peering here is external). Interns the result into
// `attrs` and returns its id, or kInvalidAttrSetId when the policy denies.
// Split horizon and loop avoidance are the caller's.
bgp::AttrSetId ExportAttributes(bgp::AttrTable& attrs, bgp::AttrSetId best,
                                const bgp::Policy& policy,
                                const RouterConfig& config);

// The export to one peer, memoised per input id: kInvalidAttrSetId when the
// set's AS path already holds `remote_asn` (sender-side loop avoidance),
// else ExportAttributes. Policies read only attributes, so the result
// depends only on the input set, the peer's AS, the policy and the router's
// config; it is computed once per distinct set, however many prefixes
// share it. One memo belongs to one (table, remote AS, policy, config)
// tuple: a router keeps one per peer.
class ExportMemo {
 public:
  bgp::AttrSetId Export(bgp::AttrTable& attrs, bgp::AttrSetId best,
                        bgp::Asn remote_asn, const bgp::Policy& policy,
                        const RouterConfig& config);

 private:
  // Input id -> exported id (kInvalidAttrSetId when looped or denied);
  // nullopt until first computed.
  std::vector<std::optional<bgp::AttrSetId>> out_;
};

class Router : public LinkEndpoint {
 public:
  struct Stats {
    std::uint64_t messages_rx = 0;
    std::uint64_t messages_tx = 0;
    std::uint64_t updates_rx = 0;
    std::uint64_t updates_tx = 0;
    std::uint64_t loops_rejected = 0;
    std::uint64_t decode_failures = 0;
    std::uint64_t session_ups = 0;
    std::uint64_t session_downs = 0;
    std::uint64_t crashes = 0;
    std::uint64_t damped_updates = 0;
  };

  // Tap invoked for every UPDATE received on an established session, before
  // policy — this is the Routing Arbiter measurement point. `wire` views the
  // message's received wire bytes (valid only for the duration of the call),
  // so the monitor's MRT logger can write them without re-encoding. `causes`
  // is the message's provenance sideband (withdrawn-then-NLRI order; empty
  // for untagged senders).
  using UpdateTap = std::function<void(TimePoint now, bgp::PeerId peer,
                                       bgp::Asn peer_asn,
                                       const bgp::UpdateMessage& update,
                                       std::span<const std::uint8_t> wire,
                                       const obs::CauseVec& causes)>;

  Router(Scheduler& sched, RouterConfig config, std::uint64_t seed);

  // Registers this router on one side of `link`. Returns the local peer id.
  // Policies default to accept-all.
  bgp::PeerId AttachLink(Link& link, bool side_a, bgp::Asn remote_asn,
                         bgp::Policy import_policy = bgp::Policy::AcceptAll(),
                         bgp::Policy export_policy = bgp::Policy::AcceptAll());

  // Interns `attrs` as a locally-sourced attribute set: LOCAL_PREF 1000, so
  // a local route wins the decision against any learned path. The id is
  // this router's to keep: its table never shrinks or renumbers, so a
  // caller that originates the same attributes again may cache it.
  bgp::AttrSetId InternLocal(const bgp::PathAttributes& attrs);

  // Originates a locally-sourced route (customer network / IGP injection)
  // with an attribute set from InternLocal. The set's as_path may carry
  // downstream customer ASes; this router's own AS is prepended at export
  // time.
  void Originate(const Prefix& prefix, bgp::AttrSetId attr_id);

  // Interns route.attributes (InternLocal) and originates the route. A
  // crashed router drops the call before interning anything.
  void Originate(const bgp::Route& route);

  // Withdraws a locally-sourced route.
  void WithdrawLocal(const Prefix& prefix);

  // Models an IGP/iBGP adjacency reset inside this router's AS: the local
  // routes behind the reset adjacency (a random `dirty_fraction` of them)
  // are momentarily withdrawn and immediately re-learned. On a stateful
  // router this is invisible to peers (the Adj-RIB-Out coalesces it away);
  // on a stateless router it re-sends the exported ones (AADup) and sprays
  // withdrawals for the aggregated ones that were never announced (WWDup).
  // This is the paper's §4.2 "misconfigured interaction of IGP/BGP
  // protocols" mechanism.
  void InternalReset(double dirty_fraction = 1.0);

  // Models the transient loss (and immediate relearning) of externally
  // learned routes inside this AS — e.g. a flapping private transit
  // adjacency behind a stateless border router. The paper's ISP-I
  // transmitted 2.4M withdrawals for 14,112 prefixes it had announced 259
  // of; this is that mechanism. Stateful routers coalesce it to silence.
  // `prefixes` is read before the call returns; nothing keeps the span.
  void SprayWithdrawals(std::span<const Prefix> prefixes);

  bool HasLocalRoute(const Prefix& prefix) const;

  void SetUpdateTap(UpdateTap tap) { tap_ = std::move(tap); }

  // Attaches this router to a (partition-private) registry and trace sink:
  // router.* counters mirror the hottest Stats fields, codec.encode /
  // codec.decode profile sites time the wire codec, the RIB profile sites
  // are resolved, and every peer session FSM gets the tracer (as do peers
  // attached later). Either pointer may be null.
  void AttachObservability(obs::Registry* registry, obs::Tracer* tracer);

  const bgp::Rib& rib() const { return rib_; }
  const Stats& stats() const { return stats_; }
  const RouterConfig& config() const { return config_; }
  bgp::SessionState PeerSessionState(bgp::PeerId peer) const;
  bgp::Asn PeerAsn(bgp::PeerId peer) const;
  std::size_t num_peers() const { return peers_.size(); }
  bool crashed() const { return crashed_; }

  // Current CPU backlog (how far busy-until is ahead of now).
  Duration Backlog() const;

  // Attaches the partition's provenance context: injection entry points
  // (Originate, WithdrawLocal, InternalReset, SprayWithdrawals) stamp ops
  // with the ambient cause, and emergent session events (hold-timer downs,
  // organic re-dumps) allocate their own causes. Null detaches.
  void SetProvenance(obs::ProvenanceContext* prov) { prov_ = prov; }

  // LinkEndpoint interface (driven by Link).
  using LinkEndpoint::OnWireData;  // keep the 2-arg convenience visible
  void OnTransportUp(std::uint32_t peer) override;
  void OnTransportDown(std::uint32_t peer) override;
  void OnWireData(std::uint32_t peer, std::vector<std::uint8_t> bytes,
                  obs::CauseVec causes) override;

 private:
  struct Peer {
    Link* link = nullptr;
    bgp::Asn remote_asn = 0;
    bgp::SessionFsm fsm;
    bgp::OutboundQueue queue;
    bgp::Policy import_policy;
    bgp::Policy export_policy;
    ExportMemo export_memo;  // for export_policy
    // Adj-RIB-Out: what this peer was last told, by RIB slot (grown on
    // demand); kInvalidAttrSetId when never told or withdrawn.
    std::vector<bgp::AttrSetId> adj_rib_out;
    bool established = false;
    bool flush_scheduled = false;
    // Earliest pending FSM-timer poll, TimePoint::Max() when none. The FSM's
    // OnTimer is a pure deadline poll, so instead of cancelling stale timers
    // with a generation counter (one dead scheduler task per received
    // message — millions at paper scale), the fired task re-checks
    // NextDeadline() and re-arms itself when the deadline has moved on.
    TimePoint timer_armed = TimePoint::Max();

    Peer(bgp::SessionConfig fsm_cfg, bgp::PackerConfig packer_cfg,
         std::uint64_t seed, bgp::Policy imp, bgp::Policy exp)
        : fsm(fsm_cfg),
          queue(packer_cfg, seed),
          import_policy(std::move(imp)),
          export_policy(std::move(exp)) {}
  };

  // --- session plumbing ---
  void HandleFsmActions(bgp::PeerId id, const bgp::SessionFsm::Actions& acts);
  void ScheduleFsmTimer(bgp::PeerId id);
  void FsmTimerFired(bgp::PeerId id);
  void OnSessionUp(bgp::PeerId id);
  void OnSessionDown(bgp::PeerId id);
  // Encodes and sends a session message (OPEN, KEEPALIVE, NOTIFICATION);
  // UPDATEs leave through FlushPeer's packer. Nothing when the link is down.
  void SendMessage(bgp::PeerId id, const bgp::Message& msg, bool priority);
  // Hands encoded bytes to the peer's link: now, or — unless `priority` —
  // behind the CPU backlog.
  void Transmit(Peer& p, std::vector<std::uint8_t> bytes, bool priority,
                obs::CauseVec causes);

  // --- provenance ---
  // The ambient cause at an injection entry point (null without a context).
  obs::CauseTag AmbientCause() const {
    return prov_ != nullptr ? prov_->Current() : obs::CauseTag{};
  }
  // Cause for a session-level event on `id`: the ambient cause if one is in
  // scope, else the cause captured at the peer link's last Fail/Restore,
  // else a freshly allocated emergent cause of `emergent_kind`.
  obs::CauseTag SessionCause(bgp::PeerId id, obs::CauseKind emergent_kind);

  // --- update processing ---
  void ProcessUpdate(bgp::PeerId from, const bgp::UpdateMessage& update,
                     const obs::CauseVec& causes);
  // Charges the dampener for an announcement; true means "suppress it".
  bool DampenAnnounce(bgp::PeerId from, bgp::PrefixSlot nlri,
                      bgp::AttrSetId attrs);
  // Re-exports the new state of the slot's prefix to every eligible peer,
  // stamping emitted ops with `cause`. `best` is the prefix's current best
  // route (nullptr when unreachable), as a RibChange just reported it; the
  // two-argument form resolves it with one Best() lookup, for callers whose
  // RibChange is stale (deferred or batched propagation).
  void PropagateChange(bgp::PrefixSlot slot, const bgp::Candidate* best,
                       obs::CauseTag cause);
  void PropagateChange(bgp::PrefixSlot slot, obs::CauseTag cause);
  // Stateless pathology: spray a withdrawal at every established peer,
  // bypassing export policy and Adj-RIB-Out.
  void BroadcastWithdraw(bgp::PrefixSlot slot, obs::CauseTag cause);
  bool HasLocalRoute(bgp::PrefixSlot slot) const {
    return slot < local_index_.size() && local_index_[slot] != kNoLocalRoute;
  }
  // The interned set to announce to `peer` given a prefix's best candidate,
  // or kInvalidAttrSetId when it must not be announced (split horizon, loop,
  // policy deny). Callers resolve Best() once for a whole peer fan-out or
  // Loc-RIB sweep.
  bgp::AttrSetId ExportCandidate(Peer& peer, const bgp::Candidate& best);
  void EnqueueOp(bgp::PeerId id, bgp::PrefixSlot slot, bgp::AttrSetId attr_id,
                 obs::CauseTag cause);
  void FlushPeer(bgp::PeerId id);
  void FullDump(bgp::PeerId id, obs::CauseTag cause);

  // --- CPU model ---
  // Charges `cost` and returns the time at which the work completes.
  TimePoint ChargeCpu(Duration cost);
  void Crash();
  void Reboot();

  // --- observability ---
  std::string PeerLabel(bgp::PeerId id) const;

  Scheduler& sched_;
  RouterConfig config_;
  Rng rng_;
  bgp::Rib rib_;
  bgp::Dampener dampener_;
  std::vector<Peer> peers_;
  // Locally-originated routes, flat: a dense vector in deterministic
  // (insertion / swap-erase) order plus each RIB slot's position in it.
  // InternalReset's sweep order reaches the wire: the vector's order is a
  // pure function of the Originate/WithdrawLocal call sequence.
  struct LocalRoute {
    bgp::PrefixSlot slot;
    bgp::AttrSetId attr_id;  // as installed in the RIB (LOCAL_PREF 1000)
  };
  std::vector<LocalRoute> local_routes_;
  std::vector<std::uint32_t> local_index_;  // kNoLocalRoute = none
  static constexpr std::uint32_t kNoLocalRoute = 0xFFFFFFFFu;
  bgp::PathAttributes originate_scratch_;  // reused by InternLocal
  // FlushPeer's buffers, reused across flushes (their capacity persists).
  std::vector<bgp::RouteOp> flush_ops_;
  std::vector<bgp::RouteOp> final_ops_;
  bgp::UpdatePacker packer_;
  // ProcessUpdate's prefixes whose best route changed, paired with the
  // cause of the wire event that changed them; reused per UPDATE.
  struct ChangedEntry {
    bgp::PrefixSlot slot;
    obs::CauseTag cause{};
  };
  std::vector<ChangedEntry> changed_;
  // Receive-path decode scratch: every inbound UPDATE decodes into reused
  // messages, so their buffers are allocated once per router instead of
  // once per message. Safe because delivery is scheduler-driven (OnWireData
  // never re-enters while an update is being processed).
  bgp::UpdateDecoder decoder_;
  TimePoint busy_until_;
  bool crashed_ = false;
  Stats stats_;
  UpdateTap tap_;

  // Cached instrument pointers (null when no registry is attached).
  struct RouterMetrics {
    obs::Counter* messages_rx = nullptr;
    obs::Counter* messages_tx = nullptr;
    obs::Counter* updates_rx = nullptr;
    obs::Counter* updates_tx = nullptr;
    obs::Counter* decode_failures = nullptr;
    obs::Counter* session_ups = nullptr;
    obs::Counter* session_downs = nullptr;
    obs::Counter* crashes = nullptr;
    obs::Counter* damped_updates = nullptr;
    obs::Counter* backlog_high_events = nullptr;
  } metrics_;
  obs::ProfileSite encode_site_;
  obs::ProfileSite decode_site_;
  obs::Tracer* tracer_ = nullptr;
  obs::ProvenanceContext* prov_ = nullptr;
  bool backlog_high_ = false;  // above the keepalive-starvation threshold
};

}  // namespace iri::sim
