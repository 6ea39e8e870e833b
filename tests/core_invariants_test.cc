#include "core/invariants.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "core/classifier.h"
#include "netbase/rng.h"
#include "sim/parallel.h"

namespace iri {
namespace {

using inv::Policy;

class InvariantsTest : public ::testing::Test {
 protected:
  void SetUp() override { inv::ResetForTest(); }
  void TearDown() override { inv::ResetForTest(); }

  static std::uint64_t Failed() { return inv::FailureCount(); }
};

TEST_F(InvariantsTest, PassingAssertsDoNotFail) {
  IRI_ASSERT(1 + 1 == 2, "arithmetic");
  IRI_ASSERT(true, "trivial");
  EXPECT_EQ(Failed(), 0u);
}

TEST_F(InvariantsTest, LogPolicyCountsFailuresAndContinues) {
  inv::SetPolicy(Policy::kLog);
  bool reached_after_failure = false;
  IRI_ASSERT(false, "deliberate failure under log policy");
  reached_after_failure = true;  // must still run: kLog never aborts
  EXPECT_TRUE(reached_after_failure);
  EXPECT_EQ(Failed(), 1u);
  IRI_ASSERT(false, "second deliberate failure");
  EXPECT_EQ(Failed(), 2u);
}

TEST_F(InvariantsTest, AbortPolicyDiesWithDiagnostic) {
  // The default policy is abort; the diagnostic names the expression.
  EXPECT_DEATH(IRI_ASSERT(2 + 2 == 5, "math is broken"), "2 \\+ 2 == 5");
}

TEST_F(InvariantsTest, ResetForTestRestoresAbortPolicy) {
  inv::SetPolicy(Policy::kLog);
  inv::ResetForTest();
  EXPECT_DEATH(IRI_ASSERT(false, "abort restored"), "violated");
}

TEST_F(InvariantsTest, ConditionIsEvaluatedExactlyOnce) {
  int evaluations = 0;
  IRI_ASSERT([&] { ++evaluations; return true; }(), "single evaluation");
  EXPECT_EQ(evaluations, 1);
}

TEST_F(InvariantsTest, DcheckMatchesBuildMode) {
  inv::SetPolicy(Policy::kLog);
  IRI_DCHECK(false, "debug-only failure");
#ifdef NDEBUG
  // Compiled out: the condition is not evaluated, so nothing fails.
  EXPECT_EQ(Failed(), 0u);
#else
  EXPECT_EQ(Failed(), 1u);
#endif
}

// Failures raised on partition workers all land in the one count that
// invariants.cc keeps; nothing else about an assert is shared.
TEST_F(InvariantsTest, FailuresOnWorkerThreadsAreAllCounted) {
  constexpr int kWorkers = 4;
  constexpr int kFailuresPerWorker = 25;
  inv::SetPolicy(Policy::kLog);
  sim::ParallelFor(kWorkers, kWorkers, [](int worker) {
    for (int i = 0; i < kFailuresPerWorker; ++i) {
      IRI_ASSERT(worker < 0, "deliberate failure on a worker");
    }
  });
  EXPECT_EQ(Failed(), std::uint64_t{kWorkers} * kFailuresPerWorker);
}

#ifdef NDEBUG
TEST_F(InvariantsTest, DcheckConditionNotEvaluatedWhenCompiledOut) {
  int evaluations = 0;
  IRI_DCHECK([&] { ++evaluations; return true; }(), "never runs");
  EXPECT_EQ(evaluations, 0);
}
#endif

// ---------------------------------------------------------------------------
// Classifier conservation over a randomized (seeded) update stream: the
// seven bins must partition the event stream exactly, and the
// instability/pathology super-classes must stay disjoint, whatever order
// announcements and withdrawals arrive in.

core::UpdateEvent RandomEvent(Rng& rng, bgp::AttrTable& table) {
  core::UpdateEvent ev;
  ev.time = TimePoint::Origin() +
            Duration::Seconds(static_cast<double>(rng.Below(86400)));
  // A small universe on purpose: collisions in (Prefix, peer) are what
  // exercise every classifier transition.
  ev.peer = static_cast<bgp::PeerId>(rng.Below(4));
  ev.peer_asn = static_cast<bgp::Asn>(100 + ev.peer);
  ev.prefix = Prefix(IPv4Address(10, 0, static_cast<std::uint8_t>(rng.Below(16)), 0), 24);
  ev.is_withdraw = rng.Bernoulli(0.45);
  if (!ev.is_withdraw) {
    bgp::PathAttributes attrs;
    attrs.next_hop = IPv4Address(192, 0, 2, static_cast<std::uint8_t>(rng.Below(3)));
    attrs.as_path = bgp::AsPath::Sequence(
        {static_cast<bgp::Asn>(100 + rng.Below(3)), 65000});
    if (rng.Bernoulli(0.3)) attrs.med = static_cast<std::uint32_t>(rng.Below(2));
    ev.attr_id = table.Intern(attrs);
    ev.fwd_id = table.Forwarding(ev.attr_id);
  }
  return ev;
}

TEST_F(InvariantsTest, ClassifierConservesCategoryCountsOverRandomStream) {
  constexpr std::uint64_t kEvents = 20000;
  Rng rng(0xC0FFEE);
  core::Classifier classifier;
  bgp::AttrTable table;
  std::uint64_t instability = 0, pathology = 0, neither = 0;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    const core::ClassifiedEvent ev =
        classifier.Classify(RandomEvent(rng, table));
    const bool is_instability = core::IsInstability(ev.category);
    const bool is_pathology = core::IsPathology(ev.category);
    ASSERT_FALSE(is_instability && is_pathology)
        << "category " << core::ToString(ev.category)
        << " is both instability and pathology";
    instability += is_instability;
    pathology += is_pathology;
    neither += !is_instability && !is_pathology;
  }
  // Conservation: bins partition the stream.
  std::uint64_t bin_sum = 0;
  for (std::uint64_t n : classifier.totals()) bin_sum += n;
  EXPECT_EQ(bin_sum, kEvents);
  EXPECT_EQ(classifier.total_events(), kEvents);
  // The two super-classes plus Withdraw/Initial also partition it.
  EXPECT_EQ(instability + pathology + neither, kEvents);
  EXPECT_EQ(neither, classifier.totals()[static_cast<std::size_t>(
                         core::Category::kWithdraw)] +
                         classifier.totals()[static_cast<std::size_t>(
                             core::Category::kInitial)]);
  // The stream is adversarial enough to hit every bin.
  for (std::size_t c = 0; c < core::kNumCategories; ++c) {
    EXPECT_GT(classifier.totals()[c], 0u)
        << "bin " << core::ToString(static_cast<core::Category>(c))
        << " never fired — the random stream is not exercising it";
  }
  // No invariant tripped along the way.
  EXPECT_EQ(Failed(), 0u);
}

}  // namespace
}  // namespace iri
