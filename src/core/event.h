// The unit of analysis: a single per-prefix routing update event as seen at
// a collection point (one route-server peering).
//
// A BGP UPDATE message carries many prefixes; the paper's statistics count
// *prefix updates* ("routers ... exchange between three and six million
// routing prefix updates each day"). ExplodeUpdate flattens messages into
// that unit.
#pragma once

#include <type_traits>
#include <vector>

#include "bgp/intern.h"
#include "bgp/message.h"
#include "bgp/route.h"
#include "netbase/time.h"
#include "obs/provenance.h"

namespace iri::core {

// Trivially copyable: the announced attribute set is carried as its id in
// the monitor's AttrTable, plus that set's forwarding id, which is all the
// classifier compares.
struct UpdateEvent {
  TimePoint time;
  bgp::PeerId peer = 0;   // collector-local peering id
  bgp::Asn peer_asn = 0;  // AS of the announcing border router
  bool is_withdraw = false;
  Prefix prefix;
  // Meaningful only when !is_withdraw: equal attr_ids are byte-equal sets,
  // equal fwd_ids are ForwardingEquivalent sets (same NEXT_HOP and AS_PATH).
  bgp::AttrSetId attr_id = bgp::kEmptyAttrSetId;
  bgp::ForwardingId fwd_id = 0;
  // Provenance sideband: the injected root cause this event descends from
  // (null for MRT replay and untagged senders).
  obs::CauseTag cause{};

  bgp::PrefixPeer Key() const { return {prefix, peer}; }
};
static_assert(std::is_trivially_copyable_v<UpdateEvent>);

// Flattens an UPDATE message into per-prefix events appended to `out`,
// withdrawals first (matching their position in the wire format). The
// message's attribute set is interned into `attrs` once, however many NLRI
// prefixes share it. `causes` is the message's provenance sideband, indexed
// in the same wire event order. Returns the number of events appended.
inline std::size_t ExplodeUpdate(TimePoint now, bgp::PeerId peer,
                                 bgp::Asn peer_asn,
                                 const bgp::UpdateMessage& update,
                                 bgp::AttrTable& attrs,
                                 std::vector<UpdateEvent>& out,
                                 const obs::CauseVec& causes = {}) {
  UpdateEvent ev;
  ev.time = now;
  ev.peer = peer;
  ev.peer_asn = peer_asn;
  std::size_t ci = 0;
  const auto next_cause = [&causes, &ci] {
    const obs::CauseTag tag =
        ci < causes.size() ? causes[ci] : obs::CauseTag{};
    ++ci;
    return tag;
  };
  ev.is_withdraw = true;
  for (const Prefix& w : update.withdrawn) {
    ev.prefix = w;
    ev.cause = next_cause();
    out.push_back(ev);
  }
  if (!update.nlri.empty()) {
    ev.is_withdraw = false;
    ev.attr_id = attrs.Intern(update.attributes);
    ev.fwd_id = attrs.Forwarding(ev.attr_id);
    for (const Prefix& p : update.nlri) {
      ev.prefix = p;
      ev.cause = next_cause();
      out.push_back(ev);
    }
  }
  return update.withdrawn.size() + update.nlri.size();
}

}  // namespace iri::core
