#include "core/experiments.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/error.h"

namespace nwdec::core {
namespace {

TEST(Fig5ExperimentTest, ReproducesThePaperValues) {
  const std::vector<fig5_row> rows = run_fig5();
  ASSERT_EQ(rows.size(), 3u);

  // Binary: Phi = 2N = 20 for both codes, no Gray benefit.
  EXPECT_EQ(rows[0].radix, 2u);
  EXPECT_EQ(rows[0].tree_phi, paper_claims::binary_phi);
  EXPECT_EQ(rows[0].gray_phi, paper_claims::binary_phi);

  // Ternary: TC = 24, GC = 20 -> 16.7% ~ the paper's 17%.
  EXPECT_EQ(rows[1].radix, 3u);
  EXPECT_EQ(rows[1].tree_phi, paper_claims::ternary_tree_phi);
  EXPECT_EQ(rows[1].gray_phi, paper_claims::binary_phi);
  EXPECT_NEAR(rows[1].gray_saving_percent,
              paper_claims::gray_step_saving_percent, 1.0);

  // Quaternary: Gray still cancels the overhead.
  EXPECT_EQ(rows[2].radix, 4u);
  EXPECT_GT(rows[2].tree_phi, rows[2].gray_phi);
  EXPECT_EQ(rows[2].gray_phi, paper_claims::binary_phi);
}

TEST(Fig6ExperimentTest, SurfacesHaveTheRightShape) {
  const std::vector<fig6_surface> surfaces = run_fig6();
  ASSERT_EQ(surfaces.size(), 6u);  // {8, 10} x {TC, GC, BGC}
  for (const fig6_surface& s : surfaces) {
    EXPECT_EQ(s.sqrt_normalized.rows(), 20u);
    EXPECT_EQ(s.sqrt_normalized.cols(), s.length);
    // Last-defined nanowire has nu = 1 everywhere: sqrt = 1.
    for (std::size_t j = 0; j < s.length; ++j) {
      EXPECT_DOUBLE_EQ(s.sqrt_normalized(19, j), 1.0);
    }
    // The z-range matches the paper's plots: 1 .. ~sqrt(N).
    EXPECT_GE(s.worst_digit_level, 1.0);
    EXPECT_LE(s.worst_digit_level, std::sqrt(20.0) + 1e-12);
  }
}

TEST(Fig6ExperimentTest, GrayFamilyReducesAverageVariability) {
  const std::vector<fig6_surface> surfaces = run_fig6();
  // Order per length block: TC, GC, BGC.
  for (std::size_t block = 0; block < 2; ++block) {
    const fig6_surface& tc = surfaces[3 * block];
    const fig6_surface& gc = surfaces[3 * block + 1];
    const fig6_surface& bgc = surfaces[3 * block + 2];
    EXPECT_LT(gc.average_variability, tc.average_variability);
    EXPECT_LE(bgc.average_variability, gc.average_variability + 0.2);
    // BGC flattens the worst digit.
    EXPECT_LE(bgc.worst_digit_level, gc.worst_digit_level);
  }
}

TEST(Fig6ExperimentTest, PaperEighteenPercentIsTheSqrtLevelReduction) {
  // The paper's "-18%" is the reduction of the plotted surface level
  // (standard-deviation units); at L = 8 ours lands at ~18.1%.
  const std::vector<fig6_surface> surfaces = run_fig6();
  const fig6_surface& tc = surfaces[0];
  const fig6_surface& gc = surfaces[1];
  const double reduction =
      100.0 * (1.0 - gc.average_sqrt_level / tc.average_sqrt_level);
  EXPECT_GT(reduction, 14.0);
  EXPECT_LT(reduction, 23.0);
  // Consistency of the cached average with the surface itself.
  EXPECT_NEAR(tc.average_sqrt_level,
              tc.sqrt_normalized.sum() /
                  static_cast<double>(tc.sqrt_normalized.size()),
              1e-12);
}

TEST(Fig6ExperimentTest, LongerCodesReduceAverageVariability) {
  const std::vector<fig6_surface> surfaces = run_fig6();
  // Paper: "longer codes have less digit transitions and help reduce the
  // average variability" -- compare L = 8 vs L = 10 per code type.
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_LT(surfaces[3 + t].average_variability,
              surfaces[t].average_variability + 1e-12)
        << "type index " << t;
  }
}

TEST(GridTest, YieldGridCoversTheFigureSeries) {
  const std::vector<design_point> grid = yield_grid();
  EXPECT_EQ(grid.size(), 3u * 3u + 2u * 4u);
  const std::vector<design_point> f7 = fig7_grid();
  EXPECT_EQ(f7.size(), 2u * 3u + 2u * 3u);
}

std::vector<design_evaluation> run_on_paper_platform(
    const std::vector<design_point>& grid, std::size_t mc_trials = 0,
    std::uint64_t seed = 1) {
  return run_yield_experiment(crossbar::crossbar_spec{},
                              device::paper_technology(), grid, mc_trials,
                              seed);
}

TEST(YieldExperimentTest, EvaluationIsInternallyConsistent) {
  const design_evaluation e =
      run_on_paper_platform({{codes::code_type::gray, 2, 8}}).front();
  EXPECT_EQ(e.code_space, 16u);
  EXPECT_EQ(e.fabrication_steps, 40u);  // 2N for binary, N = 20
  EXPECT_NEAR(e.crosspoint_yield, e.nanowire_yield * e.nanowire_yield, 1e-12);
  EXPECT_NEAR(e.effective_bits, e.crosspoint_yield * 131072.0, 1e-6);
  EXPECT_NEAR(e.bit_area_nm2, e.total_area_nm2 / e.effective_bits, 1e-9);
  EXPECT_FALSE(e.has_monte_carlo);
}

TEST(YieldExperimentTest, LabelsAreReadable) {
  const std::vector<design_evaluation> results =
      run_on_paper_platform({{codes::code_type::balanced_gray, 2, 10},
                             {codes::code_type::gray, 3, 8}});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].point.label(), "BGC-10");
  EXPECT_EQ(results[1].point.label(), "GC3-8");
}

TEST(YieldExperimentTest, MonteCarloAttachmentIsSane) {
  const design_evaluation e =
      run_on_paper_platform({{codes::code_type::balanced_gray, 2, 8}}, 60, 9)
          .front();
  ASSERT_TRUE(e.has_monte_carlo);
  EXPECT_GT(e.mc_nanowire_yield, 0.0);
  EXPECT_LE(e.mc_ci_low, e.mc_nanowire_yield);
  EXPECT_GE(e.mc_ci_high, e.mc_nanowire_yield);
  // Operational Monte Carlo should not fall far below the analytic model.
  EXPECT_GT(e.mc_nanowire_yield, e.nanowire_yield - 0.05);
}

TEST(YieldExperimentTest, ResultsFollowGridOrder) {
  const std::vector<design_evaluation> results = run_on_paper_platform(
      {{codes::code_type::tree, 2, 6}, {codes::code_type::hot, 2, 6}});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].point.type, codes::code_type::tree);
  EXPECT_EQ(results[1].point.type, codes::code_type::hot);
}

TEST(BestBitAreaTest, PicksTheMinimum) {
  const std::vector<design_evaluation> results =
      run_on_paper_platform({{codes::code_type::tree, 2, 6},
                             {codes::code_type::balanced_gray, 2, 10},
                             {codes::code_type::tree, 2, 8}});
  const design_evaluation& best = best_bit_area(results);
  EXPECT_EQ(best.point.type, codes::code_type::balanced_gray);
  EXPECT_THROW(best_bit_area({}), invalid_argument_error);
}

TEST(FindEvaluationTest, FindsAndThrows) {
  const auto results = run_on_paper_platform({{codes::code_type::tree, 2, 6}});
  EXPECT_NO_THROW(find_evaluation(results, codes::code_type::tree, 6));
  EXPECT_THROW(find_evaluation(results, codes::code_type::gray, 6),
               not_found_error);
}

}  // namespace
}  // namespace nwdec::core
