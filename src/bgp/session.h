// BGP session finite-state machine (RFC 1163 §6 / RFC 4271 §8).
//
// Pure and time-parametric: callers inject the current simulated time with
// every event and collect output actions; the FSM never does I/O and owns no
// timers — it only tracks deadlines, which the simulator polls via
// NextDeadline(). This is what makes flap-storm dynamics reproducible: a
// router whose CPU is saturated simply fails to call OnTimer in time to
// refresh keepalives, and its peers' hold timers do the rest.
//
// States kConnect/kActive are collapsed into a single kConnect (the split in
// the RFC concerns TCP retry details the simulator models at the link layer).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "bgp/message.h"
#include "core/invariants.h"
#include "netbase/time.h"
#include "obs/trace.h"

namespace iri::bgp {

enum class SessionState : std::uint8_t {
  kIdle,
  kConnect,
  kOpenSent,
  kOpenConfirm,
  kEstablished,
};
inline constexpr std::size_t kNumSessionStates = 5;

// True when a single public FSM event may move a session from `from` to
// `to`. This is the legal-transition matrix the runtime audit (and the FSM
// property tests) check every handler against; e.g. nothing may jump from
// Idle or Connect straight to Established without an OPEN/KEEPALIVE
// exchange passing through OpenSent/OpenConfirm.
bool IsLegalTransition(SessionState from, SessionState to);

struct SessionConfig {
  Asn local_asn = 0;
  IPv4Address router_id;
  std::uint16_t hold_time_s = 90;  // proposed; negotiated down to peer's
};

class SessionFsm {
 public:
  // Actions the FSM asks its owner to perform.
  enum class ActionType : std::uint8_t {
    kSendOpen,
    kSendKeepAlive,
    kSendNotification,
    kSessionUp,    // entered Established
    kSessionDown,  // left Established (reason in `notification`)
  };
  struct Action {
    ActionType type;
    NotificationMessage notification;  // valid for kSendNotification/kSessionDown
  };
  // The actions of a few events, held inline: one event yields at most two
  // (e.g. NOTIFICATION + session down), and the keepalive timer fires
  // millions of times per simulated day, so no event may allocate.
  class Actions {
   public:
    static constexpr std::size_t kCapacity = 8;

    void push_back(const Action& a) {
      IRI_ASSERT(size_ < kCapacity, "SessionFsm::Actions overflow");
      items_[size_++] = a;
    }
    void clear() { size_ = 0; }
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    const Action* begin() const { return items_.data(); }
    const Action* end() const { return items_.data() + size_; }

   private:
    std::array<Action, kCapacity> items_{};
    std::size_t size_ = 0;
  };

  explicit SessionFsm(SessionConfig config) : config_(config) {}

  SessionState state() const { return state_; }
  std::uint16_t negotiated_hold_time_s() const { return negotiated_hold_s_; }

  // Attaches the trace sink for state transitions. `label` names this
  // session in the stream (the simulator uses "<router>/<peer>"); every
  // observed from != to transition emits an "fsm" event. Null detaches.
  void SetTracer(obs::Tracer* tracer, std::string label) {
    tracer_ = tracer;
    label_ = std::move(label);
  }

  // Administrative start: Idle -> Connect (transport setup begins).
  void Start(TimePoint now, Actions& out);

  // Administrative stop: sends Cease if up, returns to Idle.
  void Stop(TimePoint now, Actions& out);

  // Transport (TCP) connected / lost.
  void OnTransportUp(TimePoint now, Actions& out);
  void OnTransportDown(TimePoint now, Actions& out);

  // A decoded message arrived from the peer. UPDATE payloads are the
  // owner's business; the FSM only validates sequencing and refreshes the
  // hold timer.
  void OnMessage(TimePoint now, const Message& msg, Actions& out);

  // Fires any expired timers. The owner must call this at (or after) every
  // NextDeadline(). Late calls model CPU starvation faithfully: a hold
  // deadline that passed while the router was busy still tears the session
  // down, just later.
  void OnTimer(TimePoint now, Actions& out);

  // Earliest pending deadline, or TimePoint::Max() when none.
  TimePoint NextDeadline() const;

 private:
  // RAII audit for public event handlers: captures the state on entry,
  // IRI_ASSERTs the (entry, exit) pair against IsLegalTransition when the
  // handler returns, and emits an "fsm" trace event on every observed
  // state change.
  class TransitionAudit {
   public:
    TransitionAudit(const SessionFsm& fsm, TimePoint now)
        : fsm_(fsm), from_(fsm.state_), now_(now) {}
    ~TransitionAudit();
    TransitionAudit(const TransitionAudit&) = delete;
    TransitionAudit& operator=(const TransitionAudit&) = delete;

   private:
    const SessionFsm& fsm_;
    SessionState from_;
    TimePoint now_;
  };

  void EnterConnect(TimePoint now);
  void TearDown(TimePoint now, NotifyCode code, Actions& out);
  // Common OPEN validation/negotiation for OpenSent (and the passive-open
  // path out of Connect).
  void HandlePeerOpen(TimePoint now, const OpenMessage& open, Actions& out);
  Duration KeepaliveInterval() const {
    return Duration::Seconds(negotiated_hold_s_ / 3.0);
  }

  SessionConfig config_;
  SessionState state_ = SessionState::kIdle;
  std::uint16_t negotiated_hold_s_ = 0;
  obs::Tracer* tracer_ = nullptr;
  std::string label_;

  TimePoint hold_deadline_ = TimePoint::Max();
  TimePoint keepalive_deadline_ = TimePoint::Max();
  TimePoint connect_retry_deadline_ = TimePoint::Max();
};

const char* ToString(SessionState s);

}  // namespace iri::bgp
