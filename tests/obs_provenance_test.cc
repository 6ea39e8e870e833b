// Unit coverage for the causal-provenance layer (obs/provenance.h): cause
// allocation, ambient scoping, the attribution matrix, and the fixed-order
// merge contract.
#include "obs/provenance.h"

#include <gtest/gtest.h>

#include <string>

namespace iri::obs {
namespace {

TEST(ProvenanceContext, AllocatesDenseIdsInOrder) {
  ProvenanceContext ctx;
  const CauseTag a = ctx.Allocate(CauseKind::kCustomerFlap, TimePoint::Origin());
  const CauseTag b = ctx.Allocate(CauseKind::kMaintenance,
                                  TimePoint::Origin() + Duration::Seconds(5));
  EXPECT_EQ(a.id, 1u);
  EXPECT_EQ(b.id, 2u);
  EXPECT_EQ(a.Kind(), CauseKind::kCustomerFlap);
  ASSERT_EQ(ctx.Count(), 2u);
  EXPECT_EQ(ctx.infos()[0].kind, CauseKind::kCustomerFlap);
  EXPECT_EQ(ctx.infos()[1].kind, CauseKind::kMaintenance);
  EXPECT_EQ(ctx.infos()[1].injected,
            TimePoint::Origin() + Duration::Seconds(5));
}

TEST(ProvenanceContext, CauseScopeSetsAndRestoresAmbientCause) {
  ProvenanceContext ctx;
  EXPECT_TRUE(ctx.Current().IsNull());
  {
    CauseScope outer(&ctx, CauseKind::kCsuEpisode, TimePoint::Origin());
    EXPECT_EQ(ctx.Current().Kind(), CauseKind::kCsuEpisode);
    {
      const CauseTag inner_tag =
          ctx.Allocate(CauseKind::kPathoSpray, TimePoint::Origin());
      CauseScope inner(&ctx, inner_tag);
      EXPECT_EQ(ctx.Current().id, inner_tag.id);
    }
    EXPECT_EQ(ctx.Current().Kind(), CauseKind::kCsuEpisode);
  }
  EXPECT_TRUE(ctx.Current().IsNull());
}

TEST(ShardProvenance, RecordsMatrixCellsAndBlastRadius) {
  ShardProvenance prov;
  const CauseTag cause{3, static_cast<std::uint8_t>(CauseKind::kMaintenance)};
  const TimePoint t0 = TimePoint::Origin() + Duration::Seconds(10);
  const TimePoint t1 = TimePoint::Origin() + Duration::Seconds(40);
  prov.Record(/*cls=*/1, cause, t0, /*first_touch=*/true);
  prov.Record(/*cls=*/1, cause, t1, /*first_touch=*/false);
  prov.Record(/*cls=*/2, CauseTag{}, t1, /*first_touch=*/true);

  EXPECT_EQ(prov.attributed(), 2u);
  EXPECT_EQ(prov.unattributed(), 1u);
  EXPECT_EQ(prov.MatrixAt(1, static_cast<std::size_t>(CauseKind::kMaintenance)),
            2u);
  EXPECT_EQ(prov.ClassTotal(1), 2u);
  EXPECT_EQ(prov.ClassAttributed(1), 2u);
  EXPECT_EQ(prov.ClassTotal(2), 1u);
  EXPECT_EQ(prov.ClassAttributed(2), 0u);

  ASSERT_EQ(prov.cause_stats().size(), 3u) << "stats are id-indexed (id-1)";
  const auto& s = prov.cause_stats()[2];
  EXPECT_EQ(s.updates, 2u);
  EXPECT_EQ(s.prefixes, 1u) << "only first touches count toward blast radius";
  EXPECT_EQ(s.first_seen, t0);
  EXPECT_EQ(s.last_seen, t1);
}

TEST(ShardProvenance, MergeSumsMatrixAndCombinesStats) {
  const TimePoint t0 = TimePoint::Origin();
  const TimePoint t1 = TimePoint::Origin() + Duration::Minutes(1);
  const CauseTag cause{1, static_cast<std::uint8_t>(CauseKind::kOscillation)};
  ShardProvenance a, b;
  a.Record(0, cause, t0, true);
  b.Record(0, cause, t1, true);
  b.Record(3, CauseTag{}, t1, true);

  ShardProvenance merged;
  merged.Merge(a);
  merged.Merge(b);
  EXPECT_EQ(merged.attributed(), 2u);
  EXPECT_EQ(merged.unattributed(), 1u);
  EXPECT_EQ(
      merged.MatrixAt(0, static_cast<std::size_t>(CauseKind::kOscillation)),
      2u);
  ASSERT_EQ(merged.cause_stats().size(), 1u);
  EXPECT_EQ(merged.cause_stats()[0].updates, 2u);
  EXPECT_EQ(merged.cause_stats()[0].prefixes, 2u);
  EXPECT_EQ(merged.cause_stats()[0].first_seen, t0);
  EXPECT_EQ(merged.cause_stats()[0].last_seen, t1);
  EXPECT_TRUE(ShardProvenance{}.Empty());
  EXPECT_FALSE(merged.Empty());
}

TEST(CauseKindNames, EveryKindHasAStableName) {
  for (std::size_t k = 0; k < kNumCauseKinds; ++k) {
    const char* name = ToString(static_cast<CauseKind>(k));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::string(name).size(), 0u);
  }
  EXPECT_STREQ(ToString(CauseKind::kNone), "none");
  EXPECT_STREQ(ToString(CauseKind::kSessionRedump), "session_redump");
}

}  // namespace
}  // namespace iri::obs
