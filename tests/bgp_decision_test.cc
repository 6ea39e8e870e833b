#include "bgp/decision.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace iri::bgp {
namespace {

Candidate Make(PeerId peer, std::vector<Asn> path,
               std::optional<std::uint32_t> local_pref = std::nullopt,
               std::optional<std::uint32_t> med = std::nullopt,
               Origin origin = Origin::kIgp) {
  Candidate c;
  c.peer = peer;
  c.peer_router_id = IPv4Address(10, 0, 0, static_cast<std::uint8_t>(peer));
  PathAttributes attrs;
  attrs.as_path = AsPath::Sequence(std::move(path));
  attrs.local_pref = local_pref;
  attrs.med = med;
  attrs.origin = origin;
  c.decision = DecisionFields::Of(attrs);
  return c;
}

TEST(Decision, EmptyReturnsMinusOne) {
  EXPECT_EQ(SelectBest({}), -1);
}

TEST(Decision, SingleCandidateWins) {
  const Candidate c = Make(1, {701});
  EXPECT_EQ(SelectBest({&c, 1}), 0);
}

TEST(Decision, HighestLocalPrefWins) {
  std::vector<Candidate> cands = {Make(1, {701}, 100),
                                  Make(2, {701, 1239, 3561}, 200)};
  // Longer path but higher LOCAL_PREF wins.
  EXPECT_EQ(SelectBest(cands), 1);
}

TEST(Decision, MissingLocalPrefDefaultsTo100) {
  std::vector<Candidate> cands = {Make(1, {701}), Make(2, {1239}, 99)};
  EXPECT_EQ(SelectBest(cands), 0);  // implicit 100 beats explicit 99
}

TEST(Decision, ShorterPathWins) {
  std::vector<Candidate> cands = {Make(1, {701, 1239}), Make(2, {3561})};
  EXPECT_EQ(SelectBest(cands), 1);
}

TEST(Decision, PrependingDemotesRoute) {
  std::vector<Candidate> cands = {Make(1, {701, 701, 701, 9}),
                                  Make(2, {1239, 9})};
  EXPECT_EQ(SelectBest(cands), 1);
}

TEST(Decision, LowerOriginWins) {
  std::vector<Candidate> cands = {
      Make(1, {701}, std::nullopt, std::nullopt, Origin::kIncomplete),
      Make(2, {1239}, std::nullopt, std::nullopt, Origin::kIgp)};
  EXPECT_EQ(SelectBest(cands), 1);
}

TEST(Decision, MedComparedOnlyWithinSameNeighborAs) {
  // Same neighbor AS: lower MED wins.
  std::vector<Candidate> same = {Make(1, {701, 9}, std::nullopt, 200),
                                 Make(2, {701, 9}, std::nullopt, 100)};
  EXPECT_EQ(SelectBest(same), 1);

  // Different neighbor AS: MED ignored, falls through to router id
  // (peer 1 has the lower id).
  std::vector<Candidate> diff = {Make(1, {701, 9}, std::nullopt, 200),
                                 Make(2, {1239, 9}, std::nullopt, 100)};
  EXPECT_EQ(SelectBest(diff), 0);
}

TEST(Decision, MissingMedTreatedAsZero) {
  std::vector<Candidate> cands = {Make(1, {701, 9}, std::nullopt, 10),
                                  Make(2, {701, 9})};
  EXPECT_EQ(SelectBest(cands), 1);
}

TEST(Decision, RouterIdBreaksFinalTie) {
  std::vector<Candidate> cands = {Make(9, {701}), Make(3, {1239})};
  EXPECT_EQ(SelectBest(cands), 1);  // peer 3 has lower router id
}

TEST(Decision, EmptyPathBeatsAnyPath) {
  // Locally-originated routes have zero-length paths.
  std::vector<Candidate> cands = {Make(1, {701}), Make(2, {})};
  EXPECT_EQ(SelectBest(cands), 1);
}

TEST(Decision, PreferenceIsAntisymmetric) {
  const auto a = Make(1, {701, 1239}, 100, 5);
  const auto b = Make(2, {701, 9}, 100, 7);
  EXPECT_NE(Preferred(a, b), Preferred(b, a));
}

TEST(Decision, OrderIndependence) {
  std::vector<Candidate> cands = {
      Make(1, {701, 1239}), Make(2, {3561}), Make(3, {701}, 200),
      Make(4, {9, 9}, std::nullopt, std::nullopt, Origin::kEgp)};
  const int best = SelectBest(cands);
  const Candidate winner = cands[static_cast<std::size_t>(best)];

  std::sort(cands.begin(), cands.end(),
            [](const Candidate& x, const Candidate& y) {
              return x.peer > y.peer;
            });
  const int best2 = SelectBest(cands);
  EXPECT_EQ(cands[static_cast<std::size_t>(best2)].peer, winner.peer);
}

// Property: Preferred() is a strict total order over a set of distinct
// candidates (transitivity spot-check via sorting consistency).
TEST(Decision, PreferredSortsConsistently) {
  std::vector<Candidate> cands;
  for (PeerId p = 1; p <= 12; ++p) {
    cands.push_back(Make(p, {static_cast<Asn>(100 + p % 4), 9},
                         100 + (p % 3) * 10, p * 7 % 50,
                         static_cast<Origin>(p % 3)));
  }
  std::vector<Candidate> sorted = cands;
  std::sort(sorted.begin(), sorted.end(), Preferred);
  // The SelectBest winner must equal the sort front.
  const int best = SelectBest(cands);
  EXPECT_EQ(sorted.front().peer, cands[static_cast<std::size_t>(best)].peer);
  // Strictness: no element preferred over itself.
  for (const auto& c : cands) EXPECT_FALSE(Preferred(c, c));
}

}  // namespace
}  // namespace iri::bgp
