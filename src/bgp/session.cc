#include "bgp/session.h"

#include <algorithm>

#include "core/invariants.h"

namespace iri::bgp {

namespace {
constexpr Duration kConnectRetry = Duration::Seconds(30);  // Connect re-arm

// kLegal[from][to]: transitions one public event handler may perform.
// Self-loops are always legal (no-op events). The forbidden cells are the
// ones a state-machine bug would most plausibly produce: entering
// Established without completing the OPEN/KEEPALIVE handshake, or leaving
// Idle by anything but an administrative Start.
constexpr bool kLegal[kNumSessionStates][kNumSessionStates] = {
    //               to: Idle   Connect OpenSent OpenConfirm Established
    /* from Idle        */ {true, true, false, false, false},
    /* from Connect     */ {true, true, true, true, false},
    /* from OpenSent    */ {true, true, true, true, false},
    /* from OpenConfirm */ {true, true, false, true, true},
    /* from Established */ {true, true, false, false, true},
};
}  // namespace

bool IsLegalTransition(SessionState from, SessionState to) {
  return kLegal[static_cast<std::size_t>(from)][static_cast<std::size_t>(to)];
}

SessionFsm::TransitionAudit::~TransitionAudit() {
  IRI_ASSERT(IsLegalTransition(from_, fsm_.state_),
             "session FSM performed an illegal state transition");
  if (from_ != fsm_.state_) {
    IRI_TRACE(fsm_.tracer_, now_, "fsm",
              .Str("session", fsm_.label_)
              .Str("from", ToString(from_))
              .Str("to", ToString(fsm_.state_)));
  }
}

const char* ToString(SessionState s) {
  switch (s) {
    case SessionState::kIdle: return "Idle";
    case SessionState::kConnect: return "Connect";
    case SessionState::kOpenSent: return "OpenSent";
    case SessionState::kOpenConfirm: return "OpenConfirm";
    case SessionState::kEstablished: return "Established";
  }
  return "?";
}

void SessionFsm::Start(TimePoint now, Actions& /*out*/) {
  TransitionAudit audit(*this, now);
  if (state_ != SessionState::kIdle) return;
  EnterConnect(now);
}

void SessionFsm::Stop(TimePoint now, Actions& out) {
  TransitionAudit audit(*this, now);
  if (state_ == SessionState::kEstablished || state_ == SessionState::kOpenSent ||
      state_ == SessionState::kOpenConfirm) {
    TearDown(now, NotifyCode::kCease, out);
  }
  state_ = SessionState::kIdle;
  hold_deadline_ = keepalive_deadline_ = connect_retry_deadline_ =
      TimePoint::Max();
}

void SessionFsm::EnterConnect(TimePoint now) {
  state_ = SessionState::kConnect;
  connect_retry_deadline_ = now + kConnectRetry;
  hold_deadline_ = keepalive_deadline_ = TimePoint::Max();
}

void SessionFsm::OnTransportUp(TimePoint now, Actions& out) {
  TransitionAudit audit(*this, now);
  if (state_ != SessionState::kConnect) return;
  state_ = SessionState::kOpenSent;
  connect_retry_deadline_ = TimePoint::Max();
  // A large initial hold deadline guards the OPEN exchange (RFC: 4 min).
  hold_deadline_ = now + Duration::Minutes(4);
  out.push_back({ActionType::kSendOpen, {}});
}

void SessionFsm::OnTransportDown(TimePoint now, Actions& out) {
  TransitionAudit audit(*this, now);
  if (state_ == SessionState::kEstablished) {
    out.push_back({ActionType::kSessionDown,
                   {NotifyCode::kCease, /*subcode=*/0}});
  }
  if (state_ != SessionState::kIdle) EnterConnect(now);
}

void SessionFsm::TearDown(TimePoint now, NotifyCode code, Actions& out) {
  out.push_back({ActionType::kSendNotification, {code, 0}});
  if (state_ == SessionState::kEstablished) {
    out.push_back({ActionType::kSessionDown, {code, 0}});
  }
  EnterConnect(now);
}

void SessionFsm::HandlePeerOpen(TimePoint now, const OpenMessage& open,
                                Actions& out) {
  if (open.version != 4 || open.hold_time_s == 1 ||
      open.hold_time_s == 2) {  // RFC forbids hold times of 1 and 2
    TearDown(now, NotifyCode::kOpenMessageError, out);
    return;
  }
  negotiated_hold_s_ = std::min(config_.hold_time_s, open.hold_time_s);
  state_ = SessionState::kOpenConfirm;
  hold_deadline_ = now + Duration::Seconds(negotiated_hold_s_);
  out.push_back({ActionType::kSendKeepAlive, {}});
  keepalive_deadline_ = now + KeepaliveInterval();
}

void SessionFsm::OnMessage(TimePoint now, const Message& msg, Actions& out) {
  TransitionAudit audit(*this, now);
  switch (state_) {
    case SessionState::kIdle:
      // Messages before the session exists are a simulator bug, not a peer
      // error.
      return;

    case SessionState::kConnect: {
      // Passive open: the peer's OPEN raced ahead of our connect retry
      // (common after an asymmetric teardown). Send our own OPEN and
      // proceed with negotiation.
      if (const auto* open = std::get_if<OpenMessage>(&msg)) {
        state_ = SessionState::kOpenSent;
        connect_retry_deadline_ = TimePoint::Max();
        out.push_back({ActionType::kSendOpen, {}});
        HandlePeerOpen(now, *open, out);
      }
      return;
    }

    case SessionState::kOpenSent: {
      const auto* open = std::get_if<OpenMessage>(&msg);
      if (open == nullptr) {
        TearDown(now, NotifyCode::kFsmError, out);
        return;
      }
      HandlePeerOpen(now, *open, out);
      return;
    }

    case SessionState::kOpenConfirm: {
      if (std::holds_alternative<KeepAliveMessage>(msg)) {
        state_ = SessionState::kEstablished;
        hold_deadline_ = now + Duration::Seconds(negotiated_hold_s_);
        out.push_back({ActionType::kSessionUp, {}});
        return;
      }
      if (std::holds_alternative<NotificationMessage>(msg)) {
        EnterConnect(now);
        return;
      }
      TearDown(now, NotifyCode::kFsmError, out);
      return;
    }

    case SessionState::kEstablished: {
      if (std::holds_alternative<NotificationMessage>(msg)) {
        out.push_back({ActionType::kSessionDown,
                       std::get<NotificationMessage>(msg)});
        EnterConnect(now);
        return;
      }
      if (std::holds_alternative<OpenMessage>(msg)) {
        TearDown(now, NotifyCode::kFsmError, out);
        return;
      }
      // KEEPALIVE or UPDATE both refresh the hold timer.
      hold_deadline_ = now + Duration::Seconds(negotiated_hold_s_);
      return;
    }
  }
}

void SessionFsm::OnTimer(TimePoint now, Actions& out) {
  TransitionAudit audit(*this, now);
  if (state_ == SessionState::kConnect && now >= connect_retry_deadline_) {
    // Transport still not up; keep waiting another interval. The simulator
    // decides when OnTransportUp happens; this just re-arms the deadline.
    connect_retry_deadline_ = now + kConnectRetry;
  }
  if ((state_ == SessionState::kOpenSent ||
       state_ == SessionState::kOpenConfirm ||
       state_ == SessionState::kEstablished) &&
      now >= hold_deadline_) {
    TearDown(now, NotifyCode::kHoldTimerExpired, out);
    return;
  }
  if ((state_ == SessionState::kOpenConfirm ||
       state_ == SessionState::kEstablished) &&
      now >= keepalive_deadline_) {
    out.push_back({ActionType::kSendKeepAlive, {}});
    keepalive_deadline_ = now + KeepaliveInterval();
  }
}

TimePoint SessionFsm::NextDeadline() const {
  TimePoint next = TimePoint::Max();
  next = std::min(next, hold_deadline_);
  next = std::min(next, keepalive_deadline_);
  next = std::min(next, connect_retry_deadline_);
  return next;
}

}  // namespace iri::bgp
