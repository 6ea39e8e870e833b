// The taxonomy classifier is the heart of the reproduction: every table and
// figure depends on these transitions being exactly right.
#include "core/classifier.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "core/monitor.h"
#include "netbase/rng.h"

namespace iri::core {
namespace {

Prefix P(const std::string& s) { return *Prefix::Parse(s); }

bgp::PathAttributes Attrs(std::vector<bgp::Asn> path,
                          std::uint32_t next_hop_octet = 1,
                          std::optional<std::uint32_t> med = std::nullopt) {
  bgp::PathAttributes a;
  a.as_path = bgp::AsPath::Sequence(std::move(path));
  a.next_hop = IPv4Address(10, 0, 0, static_cast<std::uint8_t>(next_hop_octet));
  a.med = med;
  return a;
}

// Every event's ids come from this one table, as a monitor's events all
// come from its own.
bgp::AttrTable& Table() {
  static bgp::AttrTable table;
  return table;
}

UpdateEvent Announce(const std::string& prefix,
                     const bgp::PathAttributes& attrs, bgp::PeerId peer = 1,
                     double t = 0) {
  UpdateEvent ev;
  ev.time = TimePoint::Origin() + Duration::Seconds(t);
  ev.peer = peer;
  ev.peer_asn = 100 + peer;
  ev.prefix = P(prefix);
  ev.attr_id = Table().Intern(attrs);
  ev.fwd_id = Table().Forwarding(ev.attr_id);
  return ev;
}

UpdateEvent Withdraw(const std::string& prefix, bgp::PeerId peer = 1,
                     double t = 0) {
  UpdateEvent ev;
  ev.time = TimePoint::Origin() + Duration::Seconds(t);
  ev.peer = peer;
  ev.peer_asn = 100 + peer;
  ev.is_withdraw = true;
  ev.prefix = P(prefix);
  return ev;
}

TEST(Classifier, FirstAnnouncementIsInitial) {
  Classifier c;
  auto out = c.Classify(Announce("10.0.0.0/8", Attrs({701})));
  EXPECT_EQ(out.category, Category::kInitial);
}

TEST(Classifier, IdenticalReannouncementIsAADup) {
  Classifier c;
  c.Classify(Announce("10.0.0.0/8", Attrs({701})));
  auto out = c.Classify(Announce("10.0.0.0/8", Attrs({701})));
  EXPECT_EQ(out.category, Category::kAADup);
  EXPECT_FALSE(out.policy_fluctuation);
}

TEST(Classifier, TupleIdenticalAttributeChangeIsPolicyFluctuation) {
  Classifier c;
  c.Classify(Announce("10.0.0.0/8", Attrs({701})));
  // Same (prefix, next hop, path), different MED: AADup carrying a policy
  // fluctuation — the paper's distinction in §4.1.
  auto out = c.Classify(Announce("10.0.0.0/8", Attrs({701}, 1, 30)));
  EXPECT_EQ(out.category, Category::kAADup);
  EXPECT_TRUE(out.policy_fluctuation);
}

TEST(Classifier, PathChangeIsAADiff) {
  Classifier c;
  c.Classify(Announce("10.0.0.0/8", Attrs({701})));
  auto out = c.Classify(Announce("10.0.0.0/8", Attrs({701, 1239})));
  EXPECT_EQ(out.category, Category::kAADiff);
}

TEST(Classifier, NextHopChangeIsAADiff) {
  Classifier c;
  c.Classify(Announce("10.0.0.0/8", Attrs({701}, 1)));
  auto out = c.Classify(Announce("10.0.0.0/8", Attrs({701}, 2)));
  EXPECT_EQ(out.category, Category::kAADiff);
}

TEST(Classifier, WithdrawalOfAnnouncedRouteIsWithdraw) {
  Classifier c;
  c.Classify(Announce("10.0.0.0/8", Attrs({701})));
  auto out = c.Classify(Withdraw("10.0.0.0/8"));
  EXPECT_EQ(out.category, Category::kWithdraw);
}

TEST(Classifier, ReannounceSameRouteAfterWithdrawIsWADup) {
  Classifier c;
  c.Classify(Announce("10.0.0.0/8", Attrs({701})));
  c.Classify(Withdraw("10.0.0.0/8"));
  auto out = c.Classify(Announce("10.0.0.0/8", Attrs({701})));
  EXPECT_EQ(out.category, Category::kWADup);
}

TEST(Classifier, ReannounceDifferentRouteAfterWithdrawIsWADiff) {
  Classifier c;
  c.Classify(Announce("10.0.0.0/8", Attrs({701})));
  c.Classify(Withdraw("10.0.0.0/8"));
  auto out = c.Classify(Announce("10.0.0.0/8", Attrs({1239, 9})));
  EXPECT_EQ(out.category, Category::kWADiff);
}

TEST(Classifier, WithdrawalOfUnknownRouteIsWWDup) {
  Classifier c;
  auto out = c.Classify(Withdraw("192.42.113.0/24"));
  EXPECT_EQ(out.category, Category::kWWDup);
}

TEST(Classifier, RepeatedWithdrawalsAreWWDup) {
  Classifier c;
  c.Classify(Announce("10.0.0.0/8", Attrs({701})));
  c.Classify(Withdraw("10.0.0.0/8"));
  for (int i = 0; i < 5; ++i) {
    auto out = c.Classify(Withdraw("10.0.0.0/8"));
    EXPECT_EQ(out.category, Category::kWWDup);
  }
  EXPECT_EQ(c.totals()[static_cast<std::size_t>(Category::kWWDup)], 5u);
}

TEST(Classifier, PaperTwoMinuteTrace) {
  // The §4.1 example: ISP-X is the only announcer of 192.42.113/24; ISP-Y
  // repeatedly withdraws it without ever having announced it.
  Classifier c;
  constexpr bgp::PeerId kIspX = 1, kIspY = 2;
  c.Classify(Announce("192.42.113.0/24", Attrs({9}), kIspX));
  for (int i = 0; i < 6; ++i) {
    auto out = c.Classify(Withdraw("192.42.113.0/24", kIspY, 10.0 * i));
    EXPECT_EQ(out.category, Category::kWWDup) << "withdrawal " << i;
  }
  // ISP-X's own state is untouched by ISP-Y's pathology.
  auto out = c.Classify(Announce("192.42.113.0/24", Attrs({9}), kIspX));
  EXPECT_EQ(out.category, Category::kAADup);
}

TEST(Classifier, PerPeerStateIsIndependent) {
  Classifier c;
  c.Classify(Announce("10.0.0.0/8", Attrs({701}), 1));
  auto out = c.Classify(Announce("10.0.0.0/8", Attrs({1239}), 2));
  EXPECT_EQ(out.category, Category::kInitial);  // first from peer 2
  EXPECT_EQ(c.TrackedRoutes(), 2u);
}

TEST(Classifier, WADupComparesAgainstPreWithdrawalRoute) {
  Classifier c;
  c.Classify(Announce("10.0.0.0/8", Attrs({701, 9})));
  c.Classify(Withdraw("10.0.0.0/8"));
  c.Classify(Withdraw("10.0.0.0/8"));  // WWDup in between must not disturb
  auto out = c.Classify(Announce("10.0.0.0/8", Attrs({701, 9})));
  EXPECT_EQ(out.category, Category::kWADup);
}

TEST(Classifier, OscillationSequenceClassifiesAlternately) {
  // A1 A2 A1 A2: after the initial, every flip is AADiff.
  Classifier c;
  const auto a1 = Attrs({701, 9});
  const auto a2 = Attrs({701, 1239, 9});
  c.Classify(Announce("10.0.0.0/8", a1));
  EXPECT_EQ(c.Classify(Announce("10.0.0.0/8", a2)).category,
            Category::kAADiff);
  EXPECT_EQ(c.Classify(Announce("10.0.0.0/8", a1)).category,
            Category::kAADiff);
  EXPECT_EQ(c.Classify(Announce("10.0.0.0/8", a2)).category,
            Category::kAADiff);
}

TEST(Classifier, TotalsAccumulate) {
  Classifier c;
  c.Classify(Announce("10.0.0.0/8", Attrs({701})));   // Initial
  c.Classify(Announce("10.0.0.0/8", Attrs({701})));   // AADup
  c.Classify(Withdraw("10.0.0.0/8"));                 // Withdraw
  c.Classify(Announce("10.0.0.0/8", Attrs({701})));   // WADup
  c.Classify(Withdraw("11.0.0.0/8"));                 // WWDup
  const auto& t = c.totals();
  EXPECT_EQ(t[static_cast<std::size_t>(Category::kInitial)], 1u);
  EXPECT_EQ(t[static_cast<std::size_t>(Category::kAADup)], 1u);
  EXPECT_EQ(t[static_cast<std::size_t>(Category::kWithdraw)], 1u);
  EXPECT_EQ(t[static_cast<std::size_t>(Category::kWADup)], 1u);
  EXPECT_EQ(t[static_cast<std::size_t>(Category::kWWDup)], 1u);
}

TEST(Classifier, ResetClearsState) {
  Classifier c;
  c.Classify(Announce("10.0.0.0/8", Attrs({701})));
  c.Reset();
  EXPECT_EQ(c.TrackedRoutes(), 0u);
  auto out = c.Classify(Announce("10.0.0.0/8", Attrs({701})));
  EXPECT_EQ(out.category, Category::kInitial);
}

TEST(Classifier, CategoryPredicates) {
  EXPECT_TRUE(IsInstability(Category::kWADiff));
  EXPECT_TRUE(IsInstability(Category::kAADiff));
  EXPECT_TRUE(IsInstability(Category::kWADup));
  EXPECT_FALSE(IsInstability(Category::kAADup));
  EXPECT_FALSE(IsInstability(Category::kWWDup));
  EXPECT_TRUE(IsPathology(Category::kAADup));
  EXPECT_TRUE(IsPathology(Category::kWWDup));
  EXPECT_FALSE(IsPathology(Category::kWithdraw));
  EXPECT_FALSE(IsPathology(Category::kInitial));
}

TEST(Classifier, ToStringCoversAllCategories) {
  EXPECT_STREQ(ToString(Category::kWADiff), "WADiff");
  EXPECT_STREQ(ToString(Category::kAADiff), "AADiff");
  EXPECT_STREQ(ToString(Category::kWADup), "WADup");
  EXPECT_STREQ(ToString(Category::kAADup), "AADup");
  EXPECT_STREQ(ToString(Category::kWWDup), "WWDup");
  EXPECT_STREQ(ToString(Category::kWithdraw), "Withdraw");
  EXPECT_STREQ(ToString(Category::kInitial), "Initial");
}

TEST(ExplodeUpdate, FlattensWithdrawalsFirst) {
  bgp::UpdateMessage u;
  u.withdrawn = {P("10.0.0.0/8"), P("11.0.0.0/8")};
  u.attributes = Attrs({701});
  u.nlri = {P("12.0.0.0/8")};
  std::vector<UpdateEvent> events;
  ExplodeUpdate(TimePoint::Origin() + Duration::Seconds(9), 3, 103, u,
                Table(), events);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_TRUE(events[0].is_withdraw);
  EXPECT_TRUE(events[1].is_withdraw);
  EXPECT_FALSE(events[2].is_withdraw);
  EXPECT_EQ(events[2].prefix, P("12.0.0.0/8"));
  EXPECT_EQ(Table().Get(events[2].attr_id), u.attributes);
  for (const auto& ev : events) {
    EXPECT_EQ(ev.peer, 3u);
    EXPECT_EQ(ev.peer_asn, 103u);
    EXPECT_EQ(ev.time, TimePoint::Origin() + Duration::Seconds(9));
  }
}

// ---------------------------------------------------------------------------
// Differential check of the id-comparing classifier against a deep-equality
// reference: per-(Prefix, peer) state holding the last announced
// PathAttributes value (the empty set for fresh state), compared with
// operator== and ForwardingEquivalent.

class ReferenceClassifier {
 public:
  ShardVerdict Classify(const Prefix& prefix, bgp::PeerId peer,
                        const std::optional<bgp::PathAttributes>& attrs) {
    auto [it, fresh] = state_.try_emplace(bgp::PrefixPeer{prefix, peer});
    State& st = it->second;
    ShardVerdict v;
    if (!attrs) {
      if (fresh || !st.announced) {
        v.category = Category::kWWDup;
      } else {
        v.category = Category::kWithdraw;
        st.announced = false;
      }
      return v;
    }
    const bool same_forwarding = st.last.ForwardingEquivalent(*attrs);
    if (fresh) {
      v.category = Category::kInitial;
    } else if (st.announced) {
      v.category = same_forwarding ? Category::kAADup : Category::kAADiff;
      v.policy_fluctuation = same_forwarding && !(st.last == *attrs);
    } else {
      v.category = same_forwarding ? Category::kWADup : Category::kWADiff;
    }
    st.announced = true;
    st.last = *attrs;
    return v;
  }

 private:
  struct State {
    bool announced = false;
    bgp::PathAttributes last;
  };
  std::map<bgp::PrefixPeer, State> state_;
};

// Attribute palette: the empty set, a set forwarding-equivalent to it, two
// forwarding-distinct routes A and B, and policy-only variants of A.
std::vector<bgp::PathAttributes> DifferentialPalette() {
  std::vector<bgp::PathAttributes> palette(1);  // [0] the empty set
  bgp::PathAttributes empty_fwd;  // no NEXT_HOP, empty path, but a MED
  empty_fwd.med = 3;
  palette.push_back(empty_fwd);
  palette.push_back(Attrs({701, 9}));                   // A
  palette.push_back(Attrs({701, 1239, 9}));             // B
  palette.push_back(Attrs({701, 9}, 1, 10));            // A, MED 10
  palette.push_back(Attrs({701, 9}, 1, 20));            // A, MED 20
  palette.push_back(Attrs({701, 9}, 2));                // A via another hop
  return palette;
}

TEST(ClassifierDifferential, IdVerdictsMatchDeepReference) {
  const std::vector<bgp::PathAttributes> palette = DifferentialPalette();
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    bgp::AttrTable table;
    Classifier classifier;
    ReferenceClassifier reference;
    auto check = [&](const Prefix& prefix, bgp::PeerId peer,
                     const std::optional<bgp::PathAttributes>& attrs,
                     int step) {
      UpdateEvent ev;
      ev.peer = peer;
      ev.prefix = prefix;
      ev.is_withdraw = !attrs;
      if (attrs) {
        ev.attr_id = table.Intern(*attrs);
        ev.fwd_id = table.Forwarding(ev.attr_id);
      }
      const ShardVerdict got = classifier.ClassifyVerdict(ev);
      const ShardVerdict want = reference.Classify(prefix, peer, attrs);
      ASSERT_EQ(got.category, want.category)
          << "seed " << seed << " step " << step;
      ASSERT_EQ(got.policy_fluctuation, want.policy_fluctuation)
          << "seed " << seed << " step " << step;
    };
    for (int step = 0; step < 3000; ++step) {
      const Prefix prefix(
          IPv4Address(10, 0, static_cast<std::uint8_t>(rng.Below(12)), 0), 24);
      const auto peer = static_cast<bgp::PeerId>(rng.Below(3));
      switch (rng.Below(6)) {
        case 0:  // withdrawal (WWDup when already withdrawn or unseen)
          check(prefix, peer, std::nullopt, step);
          break;
        case 1:  // WWDup on a fresh key, then an announcement of the empty
                 // set or of its forwarding twin
          check(Prefix(IPv4Address(11, 0, static_cast<std::uint8_t>(
                                                 rng.Below(200)), 0),
                       24),
                peer, std::nullopt, step);
          check(prefix, peer, std::nullopt, step);
          check(prefix, peer, palette[rng.Below(2)], step);
          break;
        case 2: {  // A<->B oscillation on one route
          const int flips = 2 + static_cast<int>(rng.Below(4));
          for (int f = 0; f < flips; ++f) {
            check(prefix, peer, palette[2 + f % 2], step);
          }
          break;
        }
        default:
          check(prefix, peer, palette[rng.Below(palette.size())], step);
          break;
      }
    }
    // The stream reaches every category.
    for (std::size_t c = 0; c < kNumCategories; ++c) {
      EXPECT_GT(classifier.totals()[c], 0u)
          << "seed " << seed << " never produced " << ToString(Category(c));
    }
  }
}

// The same check end to end through ExchangeMonitor::Ingest, which interns
// each UPDATE's attribute set once for all its NLRI prefixes.
TEST(ClassifierDifferential, MonitorVerdictsMatchDeepReference) {
  const std::vector<bgp::PathAttributes> palette = DifferentialPalette();
  Rng rng(99);
  ExchangeMonitor monitor;
  ReferenceClassifier reference;
  std::vector<ShardVerdict> got;
  monitor.AddSink([&got](const ClassifiedEvent& ev) {
    got.push_back({ev.category, ev.policy_fluctuation});
  });
  std::vector<ShardVerdict> want;
  for (int m = 0; m < 2000; ++m) {
    bgp::UpdateMessage msg;
    const auto peer = static_cast<bgp::PeerId>(rng.Below(3));
    const std::size_t nw = rng.Below(3);
    for (std::size_t i = 0; i < nw; ++i) {
      msg.withdrawn.push_back(Prefix(
          IPv4Address(10, 0, static_cast<std::uint8_t>(rng.Below(16)), 0), 24));
    }
    const std::size_t na = rng.Below(4);
    if (na > 0) msg.attributes = palette[rng.Below(palette.size())];
    for (std::size_t i = 0; i < na; ++i) {
      msg.nlri.push_back(Prefix(
          IPv4Address(10, 0, static_cast<std::uint8_t>(rng.Below(16)), 0), 24));
    }
    monitor.Ingest(TimePoint::Origin() + Duration::Seconds(m), peer,
                   100 + peer, msg);
    for (const Prefix& w : msg.withdrawn) {
      want.push_back(reference.Classify(w, peer, std::nullopt));
    }
    for (const Prefix& p : msg.nlri) {
      want.push_back(reference.Classify(p, peer, msg.attributes));
    }
  }
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].category, want[i].category) << "event " << i;
    ASSERT_EQ(got[i].policy_fluctuation, want[i].policy_fluctuation)
        << "event " << i;
  }
}

}  // namespace
}  // namespace iri::core
