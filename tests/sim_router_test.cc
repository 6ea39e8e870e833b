// Router-level behaviour: propagation, split horizon, loop prevention,
// stateless vs stateful pathology, session loss, dumps, dampening, CPU
// crash — small hand-built topologies.
#include "sim/router.h"

#include <gtest/gtest.h>

#include "core/event.h"
#include "netbase/rng.h"

namespace iri::sim {
namespace {

Prefix P(const std::string& s) { return *Prefix::Parse(s); }

bgp::Route LocalRoute(const std::string& prefix,
                      std::vector<bgp::Asn> downstream = {}) {
  bgp::Route r;
  r.prefix = P(prefix);
  r.attributes.origin = bgp::Origin::kIgp;
  r.attributes.as_path = bgp::AsPath::Sequence(std::move(downstream));
  return r;
}

// A small hand-wired network of routers.
class Net {
 public:
  Router& AddRouter(const std::string& name, bgp::Asn asn,
                    RouterConfig overrides = {}) {
    RouterConfig cfg = overrides;
    cfg.name = name;
    cfg.asn = asn;
    cfg.router_id = IPv4Address(10, 0, 0, static_cast<std::uint8_t>(asn));
    cfg.interface_addr = IPv4Address(10, 1, 0, static_cast<std::uint8_t>(asn));
    if (cfg.packer.interval == Duration::Seconds(30)) {
      // Snappy flushes by default in tests; periodicity tests override.
      cfg.packer.interval = Duration::Seconds(1);
      cfg.packer.discipline = bgp::TimerDiscipline::kUnjittered;
    }
    routers.push_back(std::make_unique<Router>(sched, cfg, seed_++));
    return *routers.back();
  }

  Link& Connect(Router& a, Router& b,
                bgp::Policy a_export = bgp::Policy::AcceptAll(),
                bgp::Policy b_export = bgp::Policy::AcceptAll()) {
    links.push_back(std::make_unique<Link>(sched, Duration::Millis(1)));
    Link& link = *links.back();
    a.AttachLink(link, /*side_a=*/true, b.config().asn,
                 bgp::Policy::AcceptAll(), std::move(a_export));
    b.AttachLink(link, /*side_a=*/false, a.config().asn,
                 bgp::Policy::AcceptAll(), std::move(b_export));
    return link;
  }

  void Start() {
    for (auto& link : links) link->Restore();
    Settle();
  }

  void Settle(Duration extra = Duration::Seconds(5)) {
    sched.RunUntil(sched.Now() + extra);
  }

  Scheduler sched;
  std::vector<std::unique_ptr<Router>> routers;
  std::vector<std::unique_ptr<Link>> links;

 private:
  std::uint64_t seed_ = 1;
};

TEST(Router, SessionEstablishes) {
  Net net;
  Router& a = net.AddRouter("A", 100);
  Router& b = net.AddRouter("B", 200);
  net.Connect(a, b);
  net.Start();
  EXPECT_EQ(a.PeerSessionState(0), bgp::SessionState::kEstablished);
  EXPECT_EQ(b.PeerSessionState(0), bgp::SessionState::kEstablished);
  EXPECT_EQ(a.stats().session_ups, 1u);
}

TEST(Router, RoutePropagatesWithPrependAndNextHop) {
  Net net;
  Router& a = net.AddRouter("A", 100);
  Router& b = net.AddRouter("B", 200);
  net.Connect(a, b);
  net.Start();
  a.Originate(LocalRoute("192.42.113.0/24"));
  net.Settle();

  const auto* best = b.rib().Best(P("192.42.113.0/24"));
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(b.rib().AttributesOf(*best).as_path.ToString(), "100");
  EXPECT_EQ(b.rib().AttributesOf(*best).next_hop, a.config().interface_addr);
  // eBGP: LOCAL_PREF must not leak.
  EXPECT_FALSE(b.rib().AttributesOf(*best).local_pref.has_value());
}

TEST(Router, DownstreamAsPathPreserved) {
  Net net;
  Router& a = net.AddRouter("A", 100);
  Router& b = net.AddRouter("B", 200);
  net.Connect(a, b);
  net.Start();
  a.Originate(LocalRoute("192.42.113.0/24", {64512}));  // customer AS
  net.Settle();
  const auto* best = b.rib().Best(P("192.42.113.0/24"));
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(b.rib().AttributesOf(*best).as_path.ToString(), "100 64512");
}

TEST(Router, WithdrawalPropagates) {
  Net net;
  Router& a = net.AddRouter("A", 100);
  Router& b = net.AddRouter("B", 200);
  net.Connect(a, b);
  net.Start();
  a.Originate(LocalRoute("192.42.113.0/24"));
  net.Settle();
  ASSERT_NE(b.rib().Best(P("192.42.113.0/24")), nullptr);
  a.WithdrawLocal(P("192.42.113.0/24"));
  net.Settle();
  EXPECT_EQ(b.rib().Best(P("192.42.113.0/24")), nullptr);
}

TEST(Router, TransitThroughMiddleRouter) {
  Net net;
  Router& a = net.AddRouter("A", 100);
  Router& b = net.AddRouter("B", 200);
  Router& c = net.AddRouter("C", 300);
  net.Connect(a, b);
  net.Connect(b, c);
  net.Start();
  a.Originate(LocalRoute("192.42.113.0/24"));
  net.Settle();
  const auto* best = c.rib().Best(P("192.42.113.0/24"));
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(c.rib().AttributesOf(*best).as_path.ToString(), "200 100");
  EXPECT_EQ(c.rib().AttributesOf(*best).next_hop, b.config().interface_addr);
}

TEST(Router, SplitHorizonDoesNotEchoRoute) {
  Net net;
  Router& a = net.AddRouter("A", 100);
  Router& b = net.AddRouter("B", 200);
  net.Connect(a, b);
  net.Start();
  a.Originate(LocalRoute("192.42.113.0/24"));
  net.Settle();
  // A must not hear its own route back (B applies split horizon and
  // sender-side loop avoidance).
  EXPECT_EQ(a.rib().CandidatesFor(P("192.42.113.0/24")).size(), 1u);
  EXPECT_EQ(a.stats().loops_rejected, 0u);
}

TEST(Router, RingTopologyConvergesWithoutLoops) {
  Net net;
  Router& a = net.AddRouter("A", 100);
  Router& b = net.AddRouter("B", 200);
  Router& c = net.AddRouter("C", 300);
  net.Connect(a, b);
  net.Connect(b, c);
  net.Connect(c, a);
  net.Start();
  a.Originate(LocalRoute("192.42.113.0/24"));
  net.Settle(Duration::Seconds(30));

  // Everyone converges; C prefers the direct path via A.
  const auto* c_best = c.rib().Best(P("192.42.113.0/24"));
  ASSERT_NE(c_best, nullptr);
  EXPECT_EQ(c.rib().AttributesOf(*c_best).as_path.ToString(), "100");
  // The ring must quiesce: no persistent oscillation.
  const auto executed = net.sched.executed();
  net.Settle(Duration::Minutes(5));
  // Only keepalive-ish activity may continue.
  EXPECT_LT(net.sched.executed() - executed, 200u);
}

TEST(Router, SessionLossWithdrawsLearnedRoutes) {
  Net net;
  Router& a = net.AddRouter("A", 100);
  Router& b = net.AddRouter("B", 200);
  Router& c = net.AddRouter("C", 300);
  Link& ab = net.Connect(a, b);
  net.Connect(b, c);
  net.Start();
  a.Originate(LocalRoute("192.42.113.0/24"));
  net.Settle();
  ASSERT_NE(c.rib().Best(P("192.42.113.0/24")), nullptr);

  ab.Fail();
  net.Settle();
  EXPECT_EQ(b.rib().Best(P("192.42.113.0/24")), nullptr);
  EXPECT_EQ(c.rib().Best(P("192.42.113.0/24")), nullptr);
  EXPECT_GE(b.stats().session_downs, 1u);
}

TEST(Router, FullDumpOnSessionRecovery) {
  Net net;
  Router& a = net.AddRouter("A", 100);
  Router& b = net.AddRouter("B", 200);
  Link& ab = net.Connect(a, b);
  net.Start();
  for (int i = 0; i < 10; ++i) {
    a.Originate(LocalRoute("10." + std::to_string(i) + ".0.0/16"));
  }
  net.Settle();
  ASSERT_EQ(b.rib().NumPrefixes(), 10u);

  ab.Fail();
  net.Settle();
  EXPECT_EQ(b.rib().NumPrefixes(), 0u);

  ab.Restore();
  net.Settle(Duration::Minutes(1));
  EXPECT_EQ(b.rib().NumPrefixes(), 10u);
}

TEST(Router, MultihomedFailover) {
  // C hears 192.42.113/24 via both A (short) and B (long); when A's copy
  // goes away C fails over to B's.
  Net net;
  Router& a = net.AddRouter("A", 100);
  Router& b = net.AddRouter("B", 200);
  Router& c = net.AddRouter("C", 300);
  net.Connect(a, c);
  net.Connect(b, c);
  net.Start();
  a.Originate(LocalRoute("192.42.113.0/24"));
  b.Originate(LocalRoute("192.42.113.0/24", {64512}));
  net.Settle();
  ASSERT_EQ(c.rib().CandidatesFor(P("192.42.113.0/24")).size(), 2u);
  EXPECT_EQ(c.rib()
                .AttributesOf(*c.rib().Best(P("192.42.113.0/24")))
                .as_path.ToString(),
            "100");

  a.WithdrawLocal(P("192.42.113.0/24"));
  net.Settle();
  const auto* best = c.rib().Best(P("192.42.113.0/24"));
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(c.rib().AttributesOf(*best).as_path.ToString(), "200 64512");
}

// --- the paper's §4.2 pathology: stateless vs stateful ---

struct TapCounter {
  std::uint64_t announced = 0, withdrawn = 0;

  void Attach(Router& router) {
    router.SetUpdateTap([this](TimePoint, bgp::PeerId, bgp::Asn,
                               const bgp::UpdateMessage& u,
                               std::span<const std::uint8_t>,
                               const obs::CauseVec&) {
      announced += u.nlri.size();
      withdrawn += u.withdrawn.size();
    });
  }
};

RouterConfig Stateless() {
  RouterConfig cfg;
  cfg.stateless_bgp = true;
  return cfg;
}

TEST(Router, StatelessSpraysWithdrawalsForUnannouncedPrefixes) {
  // B's export policy hides the route from C; B is stateless, so the
  // withdrawal still reaches C — the WWDup mechanism.
  Net net;
  Router& a = net.AddRouter("A", 100);
  Router& b = net.AddRouter("B", 200, Stateless());
  Router& c = net.AddRouter("C", 300);
  net.Connect(a, b);
  bgp::Policy deny_all_exports = bgp::Policy::DenyAll();
  net.Connect(b, c, /*a_export=*/std::move(deny_all_exports));
  net.Start();

  TapCounter c_tap;
  c_tap.Attach(c);

  a.Originate(LocalRoute("192.42.113.0/24"));
  net.Settle();
  EXPECT_EQ(c_tap.announced, 0u);  // policy hid the announcement

  a.WithdrawLocal(P("192.42.113.0/24"));
  net.Settle();
  EXPECT_GE(c_tap.withdrawn, 1u);  // ...but the withdrawal leaked through
}

TEST(Router, StatefulSuppressesWithdrawalsForUnannouncedPrefixes) {
  Net net;
  Router& a = net.AddRouter("A", 100);
  Router& b = net.AddRouter("B", 200);  // stateful
  Router& c = net.AddRouter("C", 300);
  net.Connect(a, b);
  net.Connect(b, c, bgp::Policy::DenyAll());
  net.Start();

  TapCounter c_tap;
  c_tap.Attach(c);

  a.Originate(LocalRoute("192.42.113.0/24"));
  a.WithdrawLocal(P("192.42.113.0/24"));
  net.Settle();
  EXPECT_EQ(c_tap.announced, 0u);
  EXPECT_EQ(c_tap.withdrawn, 0u);  // Adj-RIB-Out check killed the WWDup
}

TEST(Router, SessionLossWithdrawsInAddressOrder) {
  // R is stateful and re-exports: when its session to B drops, the
  // withdrawals for everything it learned from B reach C in the order
  // Rib::ClearPeer reports them, which must be ascending address order
  // whatever order B announced in.
  Net net;
  Router& b = net.AddRouter("B", 100);
  Router& r = net.AddRouter("R", 200);
  Router& c = net.AddRouter("C", 300);
  Link& br = net.Connect(b, r);
  net.Connect(r, c);
  net.Start();

  std::vector<Prefix> prefixes;
  for (int i = 0; i < 64; ++i) {
    // Every fourth prefix is a /16 covering the three /24s after it.
    const auto second = static_cast<std::uint8_t>(i - i % 4);
    const auto third = static_cast<std::uint8_t>(i % 4);
    prefixes.push_back(third == 0
                           ? Prefix(IPv4Address(10, second, 0, 0), 16)
                           : Prefix(IPv4Address(10, second, third, 0), 24));
  }
  std::vector<Prefix> shuffled = prefixes;
  Rng rng(17);
  for (std::size_t i = shuffled.size() - 1; i > 0; --i) {
    std::swap(shuffled[i], shuffled[rng.Below(i + 1)]);
  }
  ASSERT_NE(shuffled, prefixes);
  for (const Prefix& p : shuffled) b.Originate(LocalRoute(p.ToString()));
  net.Settle();
  ASSERT_EQ(c.rib().NumPrefixes(), prefixes.size());

  std::vector<Prefix> withdrawn;
  c.SetUpdateTap([&withdrawn](TimePoint, bgp::PeerId, bgp::Asn,
                              const bgp::UpdateMessage& u,
                              std::span<const std::uint8_t>,
                              const obs::CauseVec&) {
    withdrawn.insert(withdrawn.end(), u.withdrawn.begin(), u.withdrawn.end());
  });
  br.Fail();
  net.Settle();
  EXPECT_EQ(withdrawn, prefixes);  // prefixes is built in address order
  EXPECT_EQ(c.rib().NumPrefixes(), 0u);
}

TEST(Router, StatefulSuppressesDuplicateAnnouncements) {
  Net net;
  Router& a = net.AddRouter("A", 100);
  Router& b = net.AddRouter("B", 200);
  net.Connect(a, b);
  net.Start();
  TapCounter b_tap;
  b_tap.Attach(b);

  a.Originate(LocalRoute("192.42.113.0/24"));
  net.Settle();
  const auto first = b_tap.announced;
  EXPECT_EQ(first, 1u);
  // Re-originating the identical route must not emit a duplicate.
  a.Originate(LocalRoute("192.42.113.0/24"));
  net.Settle();
  EXPECT_EQ(b_tap.announced, first);
}

TEST(Router, StatelessEmitsDuplicateAfterA1A2A1Oscillation) {
  // The paper's §4.2 sequence: announcements A1, A2, A1 inside one flush
  // window net out to A1 — which a stateless router re-sends even though
  // the peer already holds A1 (AADup); a stateful router stays silent.
  for (bool stateless : {true, false}) {
    Net net;
    RouterConfig cfg = stateless ? Stateless() : RouterConfig{};
    cfg.packer.interval = Duration::Seconds(10);
    cfg.packer.discipline = bgp::TimerDiscipline::kUnjittered;
    Router& a = net.AddRouter("A", 100, cfg);
    Router& b = net.AddRouter("B", 200);
    net.Connect(a, b);
    net.Start();
    TapCounter b_tap;
    b_tap.Attach(b);

    a.Originate(LocalRoute("192.42.113.0/24"));  // A1
    net.Settle(Duration::Seconds(15));
    ASSERT_EQ(b_tap.announced, 1u);

    // A1 -> A2 -> A1 within one 10 s window.
    a.Originate(LocalRoute("192.42.113.0/24", {64512}));  // A2
    a.Originate(LocalRoute("192.42.113.0/24"));           // back to A1
    net.Settle(Duration::Seconds(15));
    if (stateless) {
      EXPECT_EQ(b_tap.announced, 2u) << "duplicate A1 expected";
    } else {
      EXPECT_EQ(b_tap.announced, 1u) << "stateful coalesces to silence";
    }
  }
}

TEST(Router, InternalResetVisibleOnlyWhenStateless) {
  for (bool stateless : {false, true}) {
    Net net;
    Router& a = net.AddRouter("A", 100,
                              stateless ? Stateless() : RouterConfig{});
    Router& b = net.AddRouter("B", 200);
    net.Connect(a, b);
    net.Start();
    TapCounter b_tap;
    b_tap.Attach(b);
    a.Originate(LocalRoute("192.42.113.0/24"));
    net.Settle();
    const auto base_announced = b_tap.announced;

    a.InternalReset();
    net.Settle();
    if (stateless) {
      EXPECT_GT(b_tap.announced, base_announced) << "AADup expected";
    } else {
      EXPECT_EQ(b_tap.announced, base_announced) << "coalesced to silence";
      EXPECT_EQ(b_tap.withdrawn, 0u);
    }
  }
}

TEST(Router, SprayWithdrawalsNoOpWhenStateful) {
  Net net;
  Router& a = net.AddRouter("A", 100);
  Router& b = net.AddRouter("B", 200);
  net.Connect(a, b);
  net.Start();
  TapCounter b_tap;
  b_tap.Attach(b);
  const std::vector<Prefix> targets = {P("1.0.0.0/8"), P("2.0.0.0/8")};
  a.SprayWithdrawals(targets);
  net.Settle();
  EXPECT_EQ(b_tap.withdrawn, 0u);
}

// Cause tags are a sideband: wiring one ProvenanceContext through every
// router and link must not move a byte on the wire. The same chain runs
// twice, fully tagged and with no context at all (the null-context path
// unit tests and offline replay use), driven through every injection entry
// point; C must receive the same UPDATEs at the same times either way.
TEST(Router, CauseTagsNeverChangeTheWire) {
  struct Received {
    TimePoint time;
    bgp::PeerId peer = 0;
    std::vector<std::uint8_t> wire;
    bool operator==(const Received&) const = default;
  };
  struct Capture {
    std::vector<Received> updates;
    obs::CauseVec causes;  // every sideband tag, in arrival order
  };
  const auto run = [](bool tagged) {
    Capture cap;
    Net net;
    obs::ProvenanceContext ctx;
    obs::ProvenanceContext* prov = tagged ? &ctx : nullptr;
    Router& a = net.AddRouter("A", 100, Stateless());
    Router& b = net.AddRouter("B", 200);
    Router& c = net.AddRouter("C", 300);
    net.Connect(a, b);
    net.Connect(b, c);
    for (auto& router : net.routers) router->SetProvenance(prov);
    for (auto& link : net.links) link->SetProvenance(prov);
    c.SetUpdateTap([&cap](TimePoint now, bgp::PeerId peer, bgp::Asn,
                          const bgp::UpdateMessage&,
                          std::span<const std::uint8_t> wire,
                          const obs::CauseVec& causes) {
      cap.updates.push_back({now, peer, {wire.begin(), wire.end()}});
      cap.causes.insert(cap.causes.end(), causes.begin(), causes.end());
    });
    net.Start();

    // Three prefixes sharing one attribute set, each under its own cause,
    // inside one flush window: the packer must still send one UPDATE.
    const std::vector<Prefix> prefixes = {P("192.42.113.0/24"),
                                          P("192.42.114.0/24"),
                                          P("192.42.115.0/24")};
    const obs::CauseKind kinds[] = {obs::CauseKind::kCustomerFlap,
                                    obs::CauseKind::kMultihoming,
                                    obs::CauseKind::kFailover};
    for (std::size_t i = 0; i < prefixes.size(); ++i) {
      obs::CauseScope scope(prov, kinds[i], net.sched.Now());
      a.Originate(LocalRoute(prefixes[i].ToString()));
    }
    net.Settle();
    {
      obs::CauseScope scope(prov, obs::CauseKind::kCustomerFlap,
                            net.sched.Now());
      a.WithdrawLocal(prefixes[2]);
    }
    net.Settle();
    {
      obs::CauseScope scope(prov, obs::CauseKind::kInternalReset,
                            net.sched.Now());
      a.InternalReset();
    }
    net.Settle();
    {
      obs::CauseScope scope(prov, obs::CauseKind::kPathoSpray,
                            net.sched.Now());
      a.SprayWithdrawals(prefixes);
    }
    net.Settle(Duration::Seconds(30));
    return cap;
  };

  const Capture tagged = run(true);
  const Capture untagged = run(false);
  ASSERT_FALSE(tagged.updates.empty());
  EXPECT_EQ(tagged.updates, untagged.updates)
      << "cause tags changed what C received on the wire";
  ASSERT_FALSE(tagged.causes.empty());
  EXPECT_EQ(tagged.causes.size(), untagged.causes.size());
  for (const obs::CauseTag& tag : tagged.causes) EXPECT_FALSE(tag.IsNull());
  for (const obs::CauseTag& tag : untagged.causes) EXPECT_TRUE(tag.IsNull());
}

TEST(Router, TransparentModeKeepsPathAndNextHop) {
  Net net;
  RouterConfig rs_cfg;
  rs_cfg.transparent = true;
  Router& a = net.AddRouter("A", 100);
  Router& rs = net.AddRouter("RS", 7, rs_cfg);
  Router& b = net.AddRouter("B", 300);
  net.Connect(a, rs);
  net.Connect(rs, b);
  net.Start();
  a.Originate(LocalRoute("192.42.113.0/24"));
  net.Settle();
  const auto* best = b.rib().Best(P("192.42.113.0/24"));
  ASSERT_NE(best, nullptr);
  // The route server adds no AS hop and keeps A's next hop.
  EXPECT_EQ(b.rib().AttributesOf(*best).as_path.ToString(), "100");
  EXPECT_EQ(b.rib().AttributesOf(*best).next_hop, a.config().interface_addr);
}

TEST(Router, NoReexportCollectsButStaysSilent) {
  Net net;
  RouterConfig rs_cfg;
  rs_cfg.transparent = true;
  rs_cfg.no_reexport = true;
  Router& a = net.AddRouter("A", 100);
  Router& rs = net.AddRouter("RS", 7, rs_cfg);
  Router& b = net.AddRouter("B", 300);
  net.Connect(a, rs);
  net.Connect(rs, b);
  net.Start();
  a.Originate(LocalRoute("192.42.113.0/24"));
  net.Settle();
  EXPECT_NE(rs.rib().Best(P("192.42.113.0/24")), nullptr);
  EXPECT_EQ(b.rib().Best(P("192.42.113.0/24")), nullptr);
}

TEST(Router, DampeningSuppressesFlappingRoute) {
  Net net;
  RouterConfig damp_cfg;
  damp_cfg.enable_dampening = true;
  Router& a = net.AddRouter("A", 100);
  Router& b = net.AddRouter("B", 200, damp_cfg);
  net.Connect(a, b);
  net.Start();

  // Flap hard: announce/withdraw repeatedly with alternating paths (each
  // re-announcement is an attribute change, accumulating penalty).
  for (int i = 0; i < 12; ++i) {
    a.Originate(LocalRoute("192.42.113.0/24",
                           i % 2 ? std::vector<bgp::Asn>{64512}
                                 : std::vector<bgp::Asn>{}));
    net.Settle(Duration::Seconds(3));
  }
  EXPECT_GT(b.stats().damped_updates, 0u);
  // While suppressed, B does not use the route.
  EXPECT_EQ(b.rib().Best(P("192.42.113.0/24")), nullptr);
}

TEST(Router, CrashesUnderUpdateLoadAndReboots) {
  Net net;
  RouterConfig frail;
  frail.crash_backlog = Duration::Millis(300);
  frail.cost_per_prefix = Duration::Millis(2);
  frail.reboot_time = Duration::Seconds(30);
  Router& a = net.AddRouter("A", 100);
  Router& b = net.AddRouter("B", 200, frail);
  net.Connect(a, b);
  net.Start();

  // Blast updates: 500 prefixes at 2 ms each = 1 s of backlog >> 300 ms.
  for (int i = 0; i < 500; ++i) {
    a.Originate(LocalRoute("10." + std::to_string(i / 250) + "." +
                           std::to_string(i % 250) + ".0/24"));
  }
  net.Settle(Duration::Seconds(10));
  EXPECT_GE(b.stats().crashes, 1u);

  // While the table stays huge, every reboot re-triggers the crash: the
  // paper's route-flap-storm crashloop. Shrink the table so the re-dump
  // fits the router's capacity, then recovery must succeed.
  for (int i = 40; i < 500; ++i) {
    a.WithdrawLocal(P("10." + std::to_string(i / 250) + "." +
                      std::to_string(i % 250) + ".0/24"));
  }
  net.Settle(Duration::Minutes(10));
  EXPECT_FALSE(b.crashed());
  EXPECT_EQ(b.PeerSessionState(0), bgp::SessionState::kEstablished);
  EXPECT_EQ(b.rib().NumPrefixes(), 40u);
}

TEST(Router, UpdateTapSeesInboundUpdates) {
  Net net;
  Router& a = net.AddRouter("A", 100);
  Router& b = net.AddRouter("B", 200);
  net.Connect(a, b);
  net.Start();

  std::vector<bgp::Asn> tap_asns;
  b.SetUpdateTap([&tap_asns](TimePoint, bgp::PeerId, bgp::Asn asn,
                             const bgp::UpdateMessage&,
                             std::span<const std::uint8_t>,
                             const obs::CauseVec&) {
    tap_asns.push_back(asn);
  });
  a.Originate(LocalRoute("192.42.113.0/24"));
  net.Settle();
  ASSERT_FALSE(tap_asns.empty());
  EXPECT_EQ(tap_asns[0], 100u);
}

// The codec.encode profile site (resolved under profiling) counts one call
// per message that goes out on an up link, with the message's bytes as
// items: UPDATEs are framed only for a peer whose link is up. To reach a flush for an established peer
// behind a down link, A's side of the A–C link is handed to a silent
// endpoint before the link fails, so A never hears of the loss.
TEST(Router, EncodeSiteCountsOnlyMessagesOnUpLinks) {
  struct Silent : LinkEndpoint {
    void OnTransportUp(std::uint32_t) override {}
    void OnTransportDown(std::uint32_t) override {}
    void OnWireData(std::uint32_t, std::vector<std::uint8_t>,
                    obs::CauseVec) override {}
  };
  Net net;
  Router& a = net.AddRouter("A", 100);
  Router& b = net.AddRouter("B", 200);
  Router& c = net.AddRouter("C", 300);
  net.Connect(a, b);
  Link& to_c = net.Connect(a, c);
  obs::Registry registry;
  registry.SetWallClockProfiling(true);
  a.AttachObservability(&registry, nullptr);
  net.Start();
  ASSERT_EQ(a.PeerSessionState(1), bgp::SessionState::kEstablished);

  Silent silent;
  to_c.AttachA(&silent, 0);
  to_c.Fail();
  ASSERT_EQ(a.PeerSessionState(1), bgp::SessionState::kEstablished);

  const obs::Counter& calls =
      registry.GetCounter("profile.codec.encode.calls");
  const obs::Counter& items =
      registry.GetCounter("profile.codec.encode.items");
  const std::uint64_t calls_before = calls.value();
  const std::uint64_t items_before = items.value();
  const std::uint64_t sent_before = a.stats().messages_tx;
  const Link& to_b = *net.links[0];
  const std::uint64_t bytes_before = to_b.bytes_carried();
  a.Originate(LocalRoute("192.42.113.0/24"));
  net.Settle(Duration::Seconds(2));  // one flush, before any keepalive

  EXPECT_EQ(a.stats().messages_tx - sent_before, 1u);
  EXPECT_EQ(calls.value() - calls_before, 1u) << "only B's UPDATE is encoded";
  EXPECT_EQ(items.value() - items_before, to_b.bytes_carried() - bytes_before);
  EXPECT_NE(b.rib().Best(P("192.42.113.0/24")), nullptr);
  EXPECT_EQ(c.rib().Best(P("192.42.113.0/24")), nullptr);
}

// Differential check of the export memo: for every (policy, router mode)
// pair, ExportMemo::Export must return the id a fresh ExportAttributes
// returns, and that id must name exactly the set a deep rewrite written here
// produces, or kInvalidAttrSetId for a path through the receiving peer's AS.
TEST(ExportMemo, MatchesFreshExportAndDeepReference) {
  bgp::Policy identity = bgp::Policy::AcceptAll();
  // Attribute rules, like the scenario's provider export policy.
  bgp::Policy by_attributes = bgp::Policy::DenyAll();
  {
    bgp::PolicyRule deny_tagged;
    deny_tagged.match.has_community = 13;
    deny_tagged.action.deny = true;
    by_attributes.Add(deny_tagged);
    bgp::PolicyRule strip_via_701;
    strip_via_701.match.neighbor_as = 701;
    strip_via_701.action.strip_communities = true;
    strip_via_701.action.set_local_pref = 7;
    by_attributes.Add(strip_via_701);
    bgp::PolicyRule allow_own;
    allow_own.match.has_community = 42;
    by_attributes.Add(allow_own);
  }
  const bgp::Policy* policies[] = {&identity, &by_attributes};
  // The receiving peer's AS: a third of the input paths already hold it, so
  // the memo's loop check must deny them.
  constexpr bgp::Asn kRemoteAsn = 702;

  for (const bool transparent : {false, true}) {
    for (const bgp::Policy* policy : policies) {
      RouterConfig config;
      config.asn = 100;
      config.interface_addr = IPv4Address(10, 1, 0, 100);
      config.transparent = transparent;
      bgp::AttrTable table;
      ExportMemo memo;
      Rng rng(transparent ? 5 : 6);
      for (int i = 0; i < 3000; ++i) {
        bgp::PathAttributes in;
        in.as_path = bgp::AsPath::Sequence(
            {static_cast<bgp::Asn>(700 + rng.Below(3)), 9});
        in.next_hop = IPv4Address(10, 0, 0, static_cast<std::uint8_t>(rng.Below(2)));
        if (rng.Bernoulli(0.5)) in.local_pref = 1000;
        if (rng.Bernoulli(0.3)) in.med = static_cast<std::uint32_t>(rng.Below(3));
        if (rng.Bernoulli(0.5)) in.communities.push_back(42);
        if (rng.Bernoulli(0.2)) in.communities.push_back(13);
        const bgp::AttrSetId in_id = table.Intern(in);

        const bgp::AttrSetId memo_id =
            memo.Export(table, in_id, kRemoteAsn, *policy, config);
        const bgp::AttrSetId fresh_id =
            in.as_path.Contains(kRemoteAsn)
                ? bgp::kInvalidAttrSetId
                : ExportAttributes(table, in_id, *policy, config);
        ASSERT_EQ(memo_id, fresh_id)
            << "step " << i << " transparent " << transparent;

        bgp::PathAttributes want = in;
        if (in.as_path.Contains(kRemoteAsn) || !policy->Apply(want)) {
          EXPECT_EQ(memo_id, bgp::kInvalidAttrSetId) << "step " << i;
          continue;
        }
        if (!transparent) {
          want.as_path.Prepend(config.asn);
          want.next_hop = config.interface_addr;
        }
        want.local_pref.reset();
        ASSERT_NE(memo_id, bgp::kInvalidAttrSetId) << "step " << i;
        EXPECT_EQ(table.Get(memo_id), want) << "step " << i;
      }
    }
  }
}

}  // namespace
}  // namespace iri::sim
