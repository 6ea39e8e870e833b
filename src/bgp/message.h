// BGP-4 message types and wire codec (RFC 1163 / RFC 4271 framing).
//
// A message is the unit the route servers logged: the paper's counts of
// "updates" are prefix events extracted from UPDATE messages (a single
// UPDATE can carry many withdrawn prefixes and many NLRI entries — Table 1's
// millions of withdrawals arrived packed this way).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "bgp/attributes.h"
#include "netbase/bytes.h"
#include "netbase/ipv4.h"

namespace iri::bgp {

inline constexpr std::size_t kHeaderSize = 19;     // marker + length + type
inline constexpr std::size_t kMaxMessageSize = 4096;

enum class MessageType : std::uint8_t {
  kOpen = 1,
  kUpdate = 2,
  kNotification = 3,
  kKeepAlive = 4,
};

struct OpenMessage {
  std::uint8_t version = 4;
  Asn asn = 0;
  std::uint16_t hold_time_s = 180;
  IPv4Address bgp_identifier;

  friend bool operator==(const OpenMessage&, const OpenMessage&) = default;
};

// An UPDATE: withdrawn prefixes plus (attributes, NLRI) announcements.
// Either part may be empty; both empty is the "End-of-RIB"-like no-op that
// real implementations occasionally emit and the classifier must tolerate.
struct UpdateMessage {
  std::vector<Prefix> withdrawn;
  PathAttributes attributes;  // meaningful only when nlri is non-empty
  std::vector<Prefix> nlri;

  friend bool operator==(const UpdateMessage&, const UpdateMessage&) = default;
};

// NOTIFICATION error codes (RFC 4271 §4.5) — the subset the simulator emits.
enum class NotifyCode : std::uint8_t {
  kMessageHeaderError = 1,
  kOpenMessageError = 2,
  kUpdateMessageError = 3,
  kHoldTimerExpired = 4,
  kFsmError = 5,
  kCease = 6,
};

struct NotificationMessage {
  NotifyCode code = NotifyCode::kCease;
  std::uint8_t subcode = 0;

  friend bool operator==(const NotificationMessage&,
                         const NotificationMessage&) = default;
};

struct KeepAliveMessage {
  friend bool operator==(const KeepAliveMessage&,
                         const KeepAliveMessage&) = default;
};

using Message =
    std::variant<OpenMessage, UpdateMessage, NotificationMessage,
                 KeepAliveMessage>;

MessageType TypeOf(const Message& msg);
std::string ToString(const Message& msg);

// Serializes a message including the 19-byte header, in one exact-size
// allocation; UPDATEs go through FrameUpdate. Keeping an UPDATE within
// kMaxMessageSize is the update packer's job.
std::vector<std::uint8_t> Encode(const Message& msg);

// Exact wire size of the UPDATE FrameUpdate writes from these parts.
std::size_t FramedUpdateSize(std::span<const Prefix> withdrawn,
                             std::size_t attribute_bytes,
                             std::span<const Prefix> nlri);

// The one UPDATE framer: writes header, withdrawn routes, the already
// encoded Path Attributes field (`attributes`, EncodeAttributes output;
// omitted when `nlri` is empty) and NLRI to `out`. Encode(UpdateMessage)
// and the update packer both frame through it, so a cached attribute
// encoding and a fresh one give the same bytes.
void FrameUpdate(std::span<const Prefix> withdrawn,
                 std::span<const std::uint8_t> attributes,
                 std::span<const Prefix> nlri, ByteWriter& out);

// Decodes one message from `wire`. Returns nullopt on any framing or
// semantic error (bad marker, bad length, truncated body, unknown type).
std::optional<Message> Decode(std::span<const std::uint8_t> wire);

// Decode-scratch fast path for the dominant wire type: decodes an UPDATE
// into `out`, reusing its withdrawn/nlri/communities buffers instead of
// allocating fresh ones per message. Returns false for non-UPDATE messages
// and for anything Decode() would reject; `out` may then hold partial
// contents and must not be read. Validation mirrors Decode() exactly.
bool DecodeUpdateInto(std::span<const std::uint8_t> wire, UpdateMessage& out);

// Reused decode targets for a stream of UPDATEs (the router's receive
// path). It keeps two messages: one for UPDATEs that carry path attributes
// and one for those that do not, so a withdrawal-only UPDATE never empties
// the AS_PATH whose buffers the next announcement decodes into, and steady
// state decodes without allocating.
class UpdateDecoder {
 public:
  // DecodeUpdateInto on the matching message: the decoded UPDATE, valid
  // until the next call, or nullptr where DecodeUpdateInto fails.
  const UpdateMessage* Decode(std::span<const std::uint8_t> wire);

 private:
  UpdateMessage with_attributes_;
  UpdateMessage without_attributes_;
};

// Prefix <-> NLRI wire helpers, shared with the MRT log codec.
void EncodeNlriPrefix(const Prefix& p, ByteWriter& out);
std::optional<Prefix> DecodeNlriPrefix(ByteReader& in);

// The update packer's size estimate, the number it splits messages on:
// header and length fields, 5 bytes per prefix, and for an UPDATE with
// NLRI EstimateAttributesSize of its attributes. It is not a bound: it
// counts 32 bytes for the fixed attributes, which encode to up to 45 (all
// optional attributes present, extended-length AS_PATH and COMMUNITY), so
// a fully loaded set encodes up to 13 bytes larger than estimated. The
// packer closes a message once the estimate reaches kMaxMessageSize - 64,
// and that margin is what keeps every packed message within
// kMaxMessageSize. The values are part of the behaviour contract: where
// messages split reaches the MRT logs and the goldens.
std::size_t EstimateUpdateSize(const UpdateMessage& update);

// The attribute part of EstimateUpdateSize: 32 bytes for the fixed
// attributes, 2 + 2 per AS for each AS_PATH segment, 4 per community.
std::size_t EstimateAttributesSize(const PathAttributes& attrs);

}  // namespace iri::bgp
