// Scale invariance of the reproduction (the tentpole's guard rail): the
// Table-1 category *shares* are a property of the instability mechanisms,
// not of the universe size, so running the same seed at different
// scale_denominator values must reproduce the same mix. This is what makes
// the cheap CI-scale runs (1/64) evidence about the full-paper-scale
// corpus (bench/full_paper.cc and perfbench, scale_denominator = 1): if shares
// drifted with scale, small-scale results would say nothing about Table 1.
//
// Absolute magnitudes DO scale (that's the point of the knob) — only the
// normalized shares are compared, and with a loose tolerance: the two runs
// draw different event streams from the same processes, so the shares are
// two finite samples of the same underlying mix, not the same bytes.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>

#include "core/classifier.h"
#include "workload/scenario.h"

namespace iri {
namespace {

using Shares = std::array<double, core::kNumCategories>;

Shares RunShares(double scale_denominator) {
  workload::ScenarioConfig cfg;
  cfg.topology.scale = 1.0 / scale_denominator;
  cfg.topology.num_providers = 12;
  cfg.topology.seed = 1996;
  cfg.seed = 1997;
  cfg.duration = Duration::Days(1);
  workload::ExchangeScenario scenario(cfg);
  scenario.Run();

  const auto& totals = scenario.monitor().classifier().totals();
  double total = 0;
  for (const auto count : totals) total += static_cast<double>(count);
  Shares shares{};
  EXPECT_GT(total, 1000) << "scale 1/" << scale_denominator
                         << " produced too few events to compare mixes";
  for (std::size_t c = 0; c < core::kNumCategories; ++c) {
    shares[c] = static_cast<double>(totals[c]) / total;
  }
  return shares;
}

TEST(ScaleInvariance, Table1SharesAgreeAcrossScales) {
  const Shares coarse = RunShares(64);
  const Shares fine = RunShares(8);

  for (std::size_t c = 0; c < core::kNumCategories; ++c) {
    const auto category = static_cast<core::Category>(c);
    std::printf("%-8s 1/64: %6.2f%%   1/8: %6.2f%%\n",
                core::ToString(category), 100 * coarse[c], 100 * fine[c]);
    // Absolute share tolerance: generous enough for two independent finite
    // samples, tight enough that a mechanism switching on or off with
    // scale (the failure this test exists to catch) blows straight
    // through it.
    EXPECT_NEAR(coarse[c], fine[c], 0.06)
        << core::ToString(category) << " share changed with scale";
  }

  // The paper's headline ordering must hold at both scales: pathological
  // withdrawals (WWDup) dominate the stream.
  const auto wwdup = static_cast<std::size_t>(core::Category::kWWDup);
  for (std::size_t c = 0; c < core::kNumCategories; ++c) {
    if (c == wwdup) continue;
    EXPECT_GT(coarse[wwdup], coarse[c]) << "WWDup not dominant at 1/64";
    EXPECT_GT(fine[wwdup], fine[c]) << "WWDup not dominant at 1/8";
  }
}

}  // namespace
}  // namespace iri
