#include "sim/router.h"

namespace iri::sim {

bgp::AttrSetId ExportAttributes(bgp::AttrTable& attrs, bgp::AttrSetId best,
                                const bgp::Policy& policy,
                                const RouterConfig& config) {
  bgp::PathAttributes out = attrs.Get(best);
  if (!policy.Apply(out)) return bgp::kInvalidAttrSetId;
  if (!config.transparent) {
    out.as_path.Prepend(config.asn);
    out.next_hop = config.interface_addr;
  }
  out.local_pref.reset();
  return attrs.Intern(out);
}

bgp::AttrSetId ExportMemo::Export(bgp::AttrTable& attrs, bgp::AttrSetId best,
                                  bgp::Asn remote_asn,
                                  const bgp::Policy& policy,
                                  const RouterConfig& config) {
  if (best >= out_.size()) out_.resize(attrs.size());
  std::optional<bgp::AttrSetId>& memo = out_[best];
  if (!memo) {
    // Sender-side loop avoidance (the receiver would reject a path through
    // its own AS anyway), then the rewrite.
    memo = attrs.Get(best).as_path.Contains(remote_asn)
               ? bgp::kInvalidAttrSetId
               : ExportAttributes(attrs, best, policy, config);
  }
  return *memo;
}

Router::Router(Scheduler& sched, RouterConfig config, std::uint64_t seed)
    : sched_(sched),
      config_(std::move(config)),
      rng_(seed),
      busy_until_(TimePoint::Origin()) {
  rib_.AddPeer(bgp::kLocalPeer, IPv4Address(0));
}

bgp::PeerId Router::AttachLink(Link& link, bool side_a, bgp::Asn remote_asn,
                               bgp::Policy import_policy,
                               bgp::Policy export_policy) {
  const bgp::PeerId id = static_cast<bgp::PeerId>(peers_.size());
  bgp::SessionConfig fsm_cfg;
  fsm_cfg.local_asn = config_.asn;
  fsm_cfg.router_id = config_.router_id;
  fsm_cfg.hold_time_s = config_.hold_time_s;
  peers_.emplace_back(fsm_cfg, config_.packer, rng_.Next(),
                      std::move(import_policy), std::move(export_policy));
  peers_[id].link = &link;
  peers_[id].remote_asn = remote_asn;
  if (side_a) {
    link.AttachA(this, id);
  } else {
    link.AttachB(this, id);
  }
  // Router ids must be registered before routes can arrive. Remote router id
  // is modeled as the remote interface; we only need a deterministic
  // tie-break value, so derive it from the remote ASN and peer id.
  rib_.AddPeer(id, IPv4Address((remote_asn << 8) | (id & 0xFF)));
  peers_[id].fsm.SetTracer(tracer_, PeerLabel(id));
  return id;
}

std::string Router::PeerLabel(bgp::PeerId id) const {
  return config_.name + "/peer" + std::to_string(id);
}

void Router::AttachObservability(obs::Registry* registry,
                                 obs::Tracer* tracer) {
  tracer_ = tracer;
  // Suppress/release transitions trace from inside the dampener itself.
  dampener_.SetTracer(tracer);
  if (registry == nullptr) {
    metrics_ = RouterMetrics{};
    encode_site_ = decode_site_ = obs::ProfileSite{};
    rib_.AttachProfile(nullptr);
  } else {
    metrics_.messages_rx = &registry->GetCounter("router.messages_rx");
    metrics_.messages_tx = &registry->GetCounter("router.messages_tx");
    metrics_.updates_rx = &registry->GetCounter("router.updates_rx");
    metrics_.updates_tx = &registry->GetCounter("router.updates_tx");
    metrics_.decode_failures = &registry->GetCounter("router.decode_failures");
    metrics_.session_ups = &registry->GetCounter("router.session_ups");
    metrics_.session_downs = &registry->GetCounter("router.session_downs");
    metrics_.crashes = &registry->GetCounter("router.crashes");
    metrics_.damped_updates = &registry->GetCounter("router.damped_updates");
    metrics_.backlog_high_events =
        &registry->GetCounter("router.backlog_high_events");
    encode_site_ = obs::MakeProfileSite(*registry, "codec.encode");
    decode_site_ = obs::MakeProfileSite(*registry, "codec.decode");
    rib_.AttachProfile(registry);
  }
  for (bgp::PeerId id = 0; id < peers_.size(); ++id) {
    peers_[id].fsm.SetTracer(tracer_, PeerLabel(id));
  }
}

bgp::AttrSetId Router::InternLocal(const bgp::PathAttributes& attrs) {
  // The scratch member keeps its buffer capacity across calls.
  originate_scratch_ = attrs;
  originate_scratch_.local_pref = 1000;
  return rib_.attrs().Intern(originate_scratch_);
}

void Router::Originate(const bgp::Route& route) {
  if (crashed_) return;
  Originate(route.prefix, InternLocal(route.attributes));
}

void Router::Originate(const Prefix& prefix, bgp::AttrSetId attr_id) {
  if (crashed_) return;
  IRI_DCHECK(rib_.attrs().Contains(attr_id) &&
                 rib_.attrs().Get(attr_id).local_pref == 1000,
             "Originate takes an attribute set from InternLocal");
  // Injection entry point: ops emitted for this change carry the ambient cause.
  const obs::CauseTag cause = AmbientCause();
  const bgp::PrefixSlot slot = rib_.Slot(prefix);
  std::uint32_t& local = bgp::SlotEntry(local_index_, slot, kNoLocalRoute);
  // Border dampening (RFC 2439 deployed at the provider edge): flapping
  // customer routes accumulate penalty and, once suppressed, are installed
  // locally but NOT advertised until the reuse timer releases them.
  bool suppressed = false;
  if (config_.enable_dampening) {
    const bool attr_change =
        local != kNoLocalRoute && !rib_.attrs().ForwardingEquivalent(
                                      local_routes_[local].attr_id, attr_id);
    const auto verdict = dampener_.OnAnnounce(
        {prefix, bgp::kLocalPeer}, sched_.Now(), attr_change);
    suppressed = verdict != bgp::DampVerdict::kPass;
  }
  if (local == kNoLocalRoute) {
    local = static_cast<std::uint32_t>(local_routes_.size());
    local_routes_.push_back(LocalRoute{slot, attr_id});
  } else {
    local_routes_[local].attr_id = attr_id;
  }
  const bgp::RibChange change = rib_.Announce(bgp::kLocalPeer, slot, attr_id);
  if (suppressed) {
    ++stats_.damped_updates;
    if (metrics_.damped_updates) metrics_.damped_updates->Add(1);
    // Re-advertise when the dampener releases the route — the "legitimate
    // announcements delayed" cost the paper warns about.
    const TimePoint reuse =
        dampener_.ReuseTime({prefix, bgp::kLocalPeer}, sched_.Now());
    sched_.At(reuse + Duration::Seconds(1), [this, prefix, slot, cause] {
      if (crashed_ || !HasLocalRoute(slot)) return;
      if (dampener_.IsSuppressed({prefix, bgp::kLocalPeer}, sched_.Now())) {
        return;  // re-flapped in the meantime; a later release is scheduled
      }
      // The delayed release still descends from the suppressed flap's cause.
      PropagateChange(slot, cause);
    });
    return;
  }
  if (change.best_changed) PropagateChange(slot, change.new_best, cause);
}

void Router::WithdrawLocal(const Prefix& prefix) {
  if (crashed_) return;
  const obs::CauseTag cause = AmbientCause();
  if (config_.enable_dampening) {
    dampener_.OnWithdraw({prefix, bgp::kLocalPeer}, sched_.Now());
  }
  const bgp::PrefixSlot slot = rib_.FindSlot(prefix);
  if (HasLocalRoute(slot)) {
    const std::uint32_t i = local_index_[slot];
    local_routes_[i] = local_routes_.back();  // swap-erase
    local_index_[local_routes_[i].slot] = i;
    local_routes_.pop_back();
    local_index_[slot] = kNoLocalRoute;
  }
  const bgp::RibChange change = rib_.Withdraw(bgp::kLocalPeer, slot);
  if (config_.stateless_bgp && change.new_best == nullptr) {
    BroadcastWithdraw(slot == bgp::kNoSlot ? rib_.Slot(prefix) : slot, cause);
  }
  if (change.best_changed) PropagateChange(slot, change.new_best, cause);
}

bool Router::HasLocalRoute(const Prefix& prefix) const {
  return HasLocalRoute(rib_.FindSlot(prefix));
}

void Router::SprayWithdrawals(std::span<const Prefix> prefixes) {
  if (crashed_ || !config_.stateless_bgp) return;
  const obs::CauseTag cause = AmbientCause();
  for (const Prefix& p : prefixes) BroadcastWithdraw(rib_.Slot(p), cause);
}

void Router::InternalReset(double dirty_fraction) {
  if (crashed_) return;
  if (!config_.stateless_bgp) {
    // A stateful implementation coalesces the withdraw/re-learn pair inside
    // one flush window: nothing reaches any peer.
    return;
  }
  // The local routes behind the reset adjacency are marked dirty by the
  // IGP/iBGP reconvergence. The stateless flush re-sends current state for
  // exported prefixes (AADup at receivers) and emits withdrawals for
  // prefixes export policy never announced (WWDup). The sweep order (which
  // reaches the wire) is the dense vector's insertion/swap-erase order — a
  // pure function of the call history, not of any hash layout.
  const obs::CauseTag cause = AmbientCause();
  const std::size_t n = local_routes_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (dirty_fraction < 1.0 && rng_.Uniform() >= dirty_fraction) continue;
    PropagateChange(local_routes_[i].slot, cause);
  }
}

bgp::SessionState Router::PeerSessionState(bgp::PeerId peer) const {
  return peers_[peer].fsm.state();
}

bgp::Asn Router::PeerAsn(bgp::PeerId peer) const {
  return peers_[peer].remote_asn;
}

Duration Router::Backlog() const {
  const TimePoint now = sched_.Now();
  return busy_until_ > now ? busy_until_ - now : Duration();
}

// ---------------------------------------------------------------- sessions

void Router::OnTransportUp(std::uint32_t peer) {
  if (crashed_) return;
  Peer& p = peers_[peer];
  bgp::SessionFsm::Actions actions;
  p.fsm.Start(sched_.Now(), actions);
  p.fsm.OnTransportUp(sched_.Now(), actions);
  HandleFsmActions(peer, actions);
  ScheduleFsmTimer(peer);
}

void Router::OnTransportDown(std::uint32_t peer) {
  Peer& p = peers_[peer];
  bgp::SessionFsm::Actions actions;
  p.fsm.OnTransportDown(sched_.Now(), actions);
  HandleFsmActions(peer, actions);
  ScheduleFsmTimer(peer);
}

void Router::OnWireData(std::uint32_t peer, std::vector<std::uint8_t> bytes,
                        obs::CauseVec causes) {
  if (crashed_) return;
  Peer& p = peers_[peer];
  ++stats_.messages_rx;
  if (metrics_.messages_rx) metrics_.messages_rx->Add(1);

  // UPDATEs — the dominant wire type — decode into the router's scratch
  // messages, reusing their buffers; everything else takes the allocating
  // Decode. The type byte sits at the fixed header offset, so routing on it
  // before decoding is exact, and the decoder applies the same validation
  // Decode would.
  const bool wire_is_update =
      bytes.size() >= bgp::kHeaderSize &&
      bytes[bgp::kHeaderSize - 1] ==
          static_cast<std::uint8_t>(bgp::MessageType::kUpdate);
  const bgp::UpdateMessage* update = nullptr;
  std::optional<bgp::Message> msg;
  {
    obs::ScopedTimer timer(&decode_site_, bytes.size());
    if (wire_is_update) {
      update = decoder_.Decode(bytes);
    } else {
      msg = bgp::Decode(bytes);
    }
  }
  if (update == nullptr && !msg) {
    ++stats_.decode_failures;
    if (metrics_.decode_failures) metrics_.decode_failures->Add(1);
    return;
  }

  // Charge the CPU for receive processing: a fixed decode overhead per
  // message plus RouterConfig::cost_per_prefix per prefix.
  constexpr Duration kCostPerMessage = Duration::Micros(60);
  Duration cost = kCostPerMessage;
  if (update != nullptr) {
    cost += config_.cost_per_prefix *
            static_cast<double>(update->withdrawn.size() +
                                update->nlri.size());
  }
  ChargeCpu(cost);
  if (crashed_) return;  // the crash may have been triggered by this load

  const bool was_established =
      p.fsm.state() == bgp::SessionState::kEstablished;
  bgp::SessionFsm::Actions actions;
  if (update != nullptr) {
    // The FSM dispatches on the message's *type* only (an UPDATE's payload
    // never reaches it — established sessions just refresh the hold timer,
    // other states tear down or ignore), so a payload-free stand-in drives
    // it identically without copying the scratch into a variant.
    const bgp::Message update_stand_in{bgp::UpdateMessage{}};
    p.fsm.OnMessage(sched_.Now(), update_stand_in, actions);
  } else {
    p.fsm.OnMessage(sched_.Now(), *msg, actions);
  }
  HandleFsmActions(peer, actions);
  ScheduleFsmTimer(peer);

  if (was_established && p.established && update != nullptr) {
    ++stats_.updates_rx;
    if (metrics_.updates_rx) metrics_.updates_rx->Add(1);
    if (tap_) tap_(sched_.Now(), peer, p.remote_asn, *update, bytes, causes);
    ProcessUpdate(peer, *update, causes);
  }
}

void Router::HandleFsmActions(bgp::PeerId id,
                              const bgp::SessionFsm::Actions& acts) {
  Peer& p = peers_[id];
  for (const auto& act : acts) {
    switch (act.type) {
      case bgp::SessionFsm::ActionType::kSendOpen: {
        bgp::OpenMessage open;
        open.asn = config_.asn;
        open.hold_time_s = config_.hold_time_s;
        open.bgp_identifier = config_.router_id;
        SendMessage(id, open, /*priority=*/true);
        break;
      }
      case bgp::SessionFsm::ActionType::kSendKeepAlive:
        SendMessage(id, bgp::KeepAliveMessage{},
                    /*priority=*/config_.bgp_priority_queuing);
        break;
      case bgp::SessionFsm::ActionType::kSendNotification:
        SendMessage(id, act.notification, /*priority=*/true);
        break;
      case bgp::SessionFsm::ActionType::kSessionUp:
        p.established = true;
        ++stats_.session_ups;
        if (metrics_.session_ups) metrics_.session_ups->Add(1);
        OnSessionUp(id);
        break;
      case bgp::SessionFsm::ActionType::kSessionDown:
        p.established = false;
        ++stats_.session_downs;
        if (metrics_.session_downs) metrics_.session_downs->Add(1);
        OnSessionDown(id);
        break;
    }
  }
}

void Router::ScheduleFsmTimer(bgp::PeerId id) {
  Peer& p = peers_[id];
  const TimePoint deadline = p.fsm.NextDeadline();
  if (deadline == TimePoint::Max()) return;
  // Lazy re-arm. SessionFsm::OnTimer is a pure deadline poll (every branch
  // guards on now >= deadline), so a poll already pending at or before the
  // new deadline will observe the moved deadline when it fires and re-arm
  // itself. The alternative — cancel-and-reschedule on every received
  // message — leaves one dead heap entry per message in the scheduler
  // (millions at paper scale; the hold timer moves on every keepalive).
  if (p.timer_armed <= deadline) return;
  p.timer_armed = deadline;
  sched_.At(deadline, [this, id] { FsmTimerFired(id); });
}

void Router::FsmTimerFired(bgp::PeerId id) {
  Peer& p = peers_[id];
  const TimePoint now = sched_.Now();
  // A poll that is not the tracked earliest one (superseded by an earlier
  // arm, or cancelled by Crash) is dead weight: drop it.
  if (p.timer_armed > now) return;
  p.timer_armed = TimePoint::Max();
  if (crashed_) return;
  const TimePoint deadline = p.fsm.NextDeadline();
  if (deadline == TimePoint::Max()) return;
  if (deadline > now) {
    // The deadline moved since this poll was armed (hold timer refreshed by
    // traffic): re-arm without consulting the FSM.
    ScheduleFsmTimer(id);
    return;
  }
  bgp::SessionFsm::Actions actions;
  p.fsm.OnTimer(now, actions);
  HandleFsmActions(id, actions);
  // Connect retry: if the transport (link) is still there, re-initiate
  // the handshake — the FSM only tracks deadlines, the "TCP connect" is
  // ours to perform.
  if (p.fsm.state() == bgp::SessionState::kConnect && p.link != nullptr &&
      p.link->up()) {
    OnTransportUp(id);
  } else {
    ScheduleFsmTimer(id);
  }
}

obs::CauseTag Router::SessionCause(bgp::PeerId id,
                                   obs::CauseKind emergent_kind) {
  obs::CauseTag cause = AmbientCause();
  if (cause.IsNull() && peers_[id].link != nullptr) {
    // The FSM derived this event from a link transition (possibly after the
    // OPEN handshake latency): inherit the cause captured at the transition.
    cause = peers_[id].link->transition_cause();
  }
  if (cause.IsNull() && prov_ != nullptr) {
    // No injected cause in scope — an emergent protocol event (hold-timer
    // expiry under load, organic re-establishment) becomes its own root.
    cause = prov_->Allocate(emergent_kind, sched_.Now());
  }
  return cause;
}

void Router::OnSessionUp(bgp::PeerId id) {
  FullDump(id, SessionCause(id, obs::CauseKind::kSessionRedump));
}

void Router::OnSessionDown(bgp::PeerId id) {
  Peer& p = peers_[id];
  p.adj_rib_out.clear();
  const obs::CauseTag cause =
      SessionCause(id, obs::CauseKind::kSessionReset);
  // Everything learned from this peer is gone: a genuine topology change.
  for (const bgp::PrefixSlot slot : rib_.ClearPeer(id)) {
    if (config_.stateless_bgp && rib_.Best(slot) == nullptr) {
      BroadcastWithdraw(slot, cause);
    }
    PropagateChange(slot, cause);
  }
}

void Router::SendMessage(bgp::PeerId id, const bgp::Message& msg,
                         bool priority) {
  Peer& p = peers_[id];
  if (p.link == nullptr || !p.link->up()) return;
  ++stats_.messages_tx;
  if (metrics_.messages_tx) metrics_.messages_tx->Add(1);
  std::vector<std::uint8_t> bytes;
  {
    obs::ScopedTimer timer(&encode_site_);
    bytes = bgp::Encode(msg);
    timer.AddItems(bytes.size());
  }
  Transmit(p, std::move(bytes), priority, obs::CauseVec{});
}

void Router::Transmit(Peer& p, std::vector<std::uint8_t> bytes, bool priority,
                      obs::CauseVec causes) {
  const TimePoint now = sched_.Now();
  // Non-priority traffic queues behind the CPU backlog; this is the delay
  // that starves KEEPALIVEs on busy route-caching routers.
  const TimePoint when = priority ? now : std::max(now, busy_until_);
  if (when <= now) {
    p.link->Send(this, std::move(bytes), std::move(causes));
  } else {
    Link* link = p.link;
    sched_.At(when, [this, link, data = std::move(bytes),
                     tags = std::move(causes)]() mutable {
      link->Send(this, std::move(data), std::move(tags));
    });
  }
}

// ------------------------------------------------------------ update path

bool Router::DampenAnnounce(bgp::PeerId from, bgp::PrefixSlot nlri,
                            bgp::AttrSetId attrs) {
  const auto* existing = rib_.Best(nlri);
  const bool attr_change =
      existing != nullptr && existing->peer == from &&
      !rib_.attrs().ForwardingEquivalent(existing->attr_id, attrs);
  const auto verdict = dampener_.OnAnnounce({rib_.PrefixOf(nlri), from},
                                            sched_.Now(), attr_change);
  if (verdict == bgp::DampVerdict::kPass) return false;
  ++stats_.damped_updates;
  if (metrics_.damped_updates) metrics_.damped_updates->Add(1);
  return true;
}

void Router::ProcessUpdate(bgp::PeerId from, const bgp::UpdateMessage& update,
                           const obs::CauseVec& causes) {
  Peer& p = peers_[from];
  // Nothing below re-enters ProcessUpdate (propagation only enqueues), so
  // one member buffer serves every UPDATE.
  changed_.clear();

  // The sideband is aligned with wire event order: withdrawn, then NLRI.
  std::size_t ev = 0;
  const auto next_cause = [&causes, &ev]() -> obs::CauseTag {
    const std::size_t i = ev++;
    return i < causes.size() ? causes[i] : obs::CauseTag{};
  };

  for (const Prefix& w : update.withdrawn) {
    const obs::CauseTag cause = next_cause();
    if (config_.enable_dampening) {
      dampener_.OnWithdraw({w, from}, sched_.Now());
    }
    const bgp::RibChange change = rib_.Withdraw(from, w);
    if (config_.stateless_bgp && change.new_best == nullptr) {
      // Any withdrawal — even for a route we never carried, whose slot is
      // minted here — is sprayed at every peer: the implementation keeps no
      // record of what it told whom.
      BroadcastWithdraw(
          change.slot == bgp::kNoSlot ? rib_.Slot(w) : change.slot, cause);
    }
    if (change.best_changed) changed_.push_back({change.slot, cause});
  }

  // The decoded attribute set passes the import policy and is interned
  // once per UPDATE, and every NLRI prefix shares that id: policies read
  // only attributes. An identity import policy (the common case) skips the
  // copy; a denial withdraws each NLRI prefix from this peer, so no earlier
  // route from it lingers.
  bgp::AttrSetId attr_id = bgp::kInvalidAttrSetId;
  const bool looped = !update.nlri.empty() &&
                      update.attributes.as_path.Contains(config_.asn);
  if (!looped && !update.nlri.empty()) {
    if (p.import_policy.IsIdentity()) {
      attr_id = rib_.attrs().Intern(update.attributes);
    } else {
      bgp::PathAttributes imported = update.attributes;
      if (p.import_policy.Apply(imported)) {
        attr_id = rib_.attrs().Intern(imported);
      }
    }
  }
  for (const Prefix& nlri : update.nlri) {
    const obs::CauseTag cause = next_cause();
    if (looped) {
      ++stats_.loops_rejected;
      continue;
    }
    const bgp::PrefixSlot slot = rib_.Slot(nlri);
    // Denied by import policy, or suppressed by the dampener: withdrawn.
    const bool withdrawn =
        attr_id == bgp::kInvalidAttrSetId ||
        (config_.enable_dampening && DampenAnnounce(from, slot, attr_id));
    const bgp::RibChange change = withdrawn
                                      ? rib_.Withdraw(from, slot)
                                      : rib_.Announce(from, slot, attr_id);
    if (change.best_changed) changed_.push_back({slot, cause});
  }

  for (const ChangedEntry& entry : changed_) {
    PropagateChange(entry.slot, entry.cause);
  }
}

void Router::PropagateChange(bgp::PrefixSlot slot, obs::CauseTag cause) {
  if (config_.no_reexport) return;
  PropagateChange(slot, rib_.Best(slot), cause);
}

void Router::PropagateChange(bgp::PrefixSlot slot, const bgp::Candidate* best,
                             obs::CauseTag cause) {
  if (config_.no_reexport) return;
  for (bgp::PeerId id = 0; id < peers_.size(); ++id) {
    Peer& p = peers_[id];
    if (!p.established) continue;
    const bgp::AttrSetId exported = best != nullptr
                                        ? ExportCandidate(p, *best)
                                        : bgp::kInvalidAttrSetId;
    EnqueueOp(id, slot, exported, cause);
  }
}

void Router::BroadcastWithdraw(bgp::PrefixSlot slot, obs::CauseTag cause) {
  for (bgp::PeerId id = 0; id < peers_.size(); ++id) {
    if (!peers_[id].established) continue;
    EnqueueOp(id, slot, bgp::kInvalidAttrSetId, cause);
  }
}

bgp::AttrSetId Router::ExportCandidate(Peer& peer,
                                       const bgp::Candidate& best) {
  // Split horizon: never hand a route back to the peer it came from.
  if (best.peer != bgp::kLocalPeer && &peer == &peers_[best.peer]) {
    return bgp::kInvalidAttrSetId;
  }
  return peer.export_memo.Export(rib_.attrs(), best.attr_id, peer.remote_asn,
                                peer.export_policy, config_);
}

void Router::EnqueueOp(bgp::PeerId id, bgp::PrefixSlot slot,
                       bgp::AttrSetId attr_id, obs::CauseTag cause) {
  Peer& p = peers_[id];
  p.queue.Enqueue(sched_.Now(), bgp::RouteOp{rib_.PrefixOf(slot), attr_id,
                                             false, cause, slot});
  if (!p.flush_scheduled) {
    p.flush_scheduled = true;
    sched_.At(p.queue.NextFlush(), [this, id] { FlushPeer(id); });
  }
}

void Router::FlushPeer(bgp::PeerId id) {
  Peer& p = peers_[id];
  p.flush_scheduled = false;
  if (crashed_) return;
  p.queue.Flush(sched_.Now(), flush_ops_);
  if (!p.established || flush_ops_.empty()) return;

  final_ops_.clear();
  for (const bgp::RouteOp& op : flush_ops_) {
    if (config_.stateless_bgp) {
      // No Adj-RIB-Out: everything goes out, duplicates included. A
      // within-window withdraw..announce pair is transmitted as W then A
      // (the implementation sends withdrawals for every withdrawn prefix,
      // then the current state). The expanded W inherits the surviving op's
      // cause — the whole train descends from the same fault.
      if (op.withdraw_preceded) {
        final_ops_.push_back(bgp::RouteOp{op.prefix, bgp::kInvalidAttrSetId,
                                          false, op.cause, op.slot});
      }
      final_ops_.push_back(op);
      continue;
    }
    // Suppress a duplicate, or a withdrawal of what the peer was never told.
    bgp::AttrSetId& told =
        bgp::SlotEntry(p.adj_rib_out, op.slot, bgp::kInvalidAttrSetId);
    if (told == op.attr_id) continue;
    told = op.attr_id;
    final_ops_.push_back(op);
  }
  if (final_ops_.empty()) return;

  // The packer reorders ops (attribute grouping), so it builds the per-
  // message cause sideband itself.
  for (const bgp::UpdatePacker::Packed& msg :
       packer_.Pack(final_ops_, rib_.attrs())) {
    // Marshaling cost per outbound prefix.
    ChargeCpu(config_.cost_per_prefix *
              (0.25 * static_cast<double>(msg.count)));
    if (crashed_) return;
    if (p.link == nullptr || !p.link->up()) continue;
    ++stats_.messages_tx;
    ++stats_.updates_tx;
    if (metrics_.messages_tx) metrics_.messages_tx->Add(1);
    if (metrics_.updates_tx) metrics_.updates_tx->Add(1);
    std::vector<std::uint8_t> bytes;
    {
      obs::ScopedTimer timer(&encode_site_);
      bytes = packer_.Wire(msg, rib_.attrs());
      timer.AddItems(bytes.size());
    }
    const std::span<const obs::CauseTag> causes = packer_.Causes(msg);
    Transmit(p, std::move(bytes), /*priority=*/false,
             obs::CauseVec(causes.begin(), causes.end()));
  }
}

void Router::FullDump(bgp::PeerId id, obs::CauseTag cause) {
  if (config_.no_reexport) return;
  // A fresh session receives the entire Loc-RIB ("large state dump
  // transmissions" when a flapping session re-establishes). Batched walk:
  // the trie visit hands us each best candidate directly, replacing the
  // collect-then-lookup pass that searched the trie twice per prefix.
  IRI_TRACE(tracer_, sched_.Now(), "redump_start",
            .Str("session", PeerLabel(id)).U64("prefixes", rib_.NumPrefixes()));
  Peer& p = peers_[id];
  std::uint64_t exported_count = 0;
  rib_.VisitBest([&](const Prefix&, const bgp::Candidate& best,
                     bgp::PrefixSlot slot) {
    const bgp::AttrSetId exported = ExportCandidate(p, best);
    if (exported != bgp::kInvalidAttrSetId) {
      ++exported_count;
      EnqueueOp(id, slot, exported, cause);
    }
  });
  IRI_TRACE(tracer_, sched_.Now(), "redump_end",
            .Str("session", PeerLabel(id)).U64("exported", exported_count));
}

// -------------------------------------------------------------- CPU model

TimePoint Router::ChargeCpu(Duration cost) {
  const TimePoint now = sched_.Now();
  if (busy_until_ < now) busy_until_ = now;
  busy_until_ += cost;
  // Backlog beyond one keepalive interval means outbound KEEPALIVEs are
  // consistently late — the precondition of the hold-timer cascade (§3).
  // Edge-triggered so a sustained storm traces as one high/drained pair.
  const Duration backlog = busy_until_ - now;
  const Duration starvation = Duration::Seconds(config_.hold_time_s / 3.0);
  if (!backlog_high_ && backlog > starvation) {
    backlog_high_ = true;
    if (metrics_.backlog_high_events) metrics_.backlog_high_events->Add(1);
    IRI_TRACE(tracer_, now, "backlog_high",
              .Str("router", config_.name).I64("backlog_ns", backlog.nanos()));
  } else if (backlog_high_ && backlog <= starvation) {
    backlog_high_ = false;
    IRI_TRACE(tracer_, now, "backlog_drained",
              .Str("router", config_.name).I64("backlog_ns", backlog.nanos()));
  }
  if (config_.crash_backlog > Duration() &&
      busy_until_ - now > config_.crash_backlog) {
    Crash();
  }
  return busy_until_;
}

void Router::Crash() {
  if (crashed_) return;
  crashed_ = true;
  ++stats_.crashes;
  if (metrics_.crashes) metrics_.crashes->Add(1);
  IRI_TRACE(tracer_, sched_.Now(), "router_crash",
            .Str("router", config_.name)
            .I64("backlog_ns", (busy_until_ - sched_.Now()).nanos()));
  // The router is gone: no NOTIFICATIONs, no teardown courtesy. Peers will
  // discover via their hold timers. All protocol state is lost.
  for (auto& p : peers_) {
    bgp::SessionFsm::Actions ignored;
    p.fsm.Stop(sched_.Now(), ignored);  // discard actions: a dead box is mute
    p.established = false;
    p.adj_rib_out.clear();
    p.timer_armed = TimePoint::Max();  // cancel outstanding timer polls
  }
  // Drop every learned route; local (customer) routes survive on NVRAM.
  std::vector<bgp::PeerId> ids;
  for (bgp::PeerId id = 0; id < peers_.size(); ++id) ids.push_back(id);
  for (bgp::PeerId id : ids) rib_.ClearPeer(id);
  sched_.After(config_.reboot_time, [this] { Reboot(); });
}

void Router::Reboot() {
  crashed_ = false;
  busy_until_ = sched_.Now();
  backlog_high_ = false;
  IRI_TRACE(tracer_, sched_.Now(), "router_recover",
            .Str("router", config_.name));
  for (bgp::PeerId id = 0; id < peers_.size(); ++id) {
    Peer& p = peers_[id];
    if (p.link != nullptr && p.link->up()) {
      // Re-initiate the BGP handshake on every surviving transport.
      OnTransportUp(id);
    }
  }
}

}  // namespace iri::sim
