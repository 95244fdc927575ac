// Sigma-cliff refinement: bracketing correctness, resolution, cache reuse
// across repeated refinements, and input validation.
#include "service/refine.h"

#include <gtest/gtest.h>

#include "service/sweep_service.h"
#include "util/error.h"

namespace nwdec::service {
namespace {

sweep_service make_service(service_options options = {}) {
  return sweep_service(crossbar::crossbar_spec{}, device::paper_technology(),
                       options);
}

refine_request analytic_request() {
  refine_request request;
  request.design = {codes::code_type::balanced_gray, 2, 8};
  request.mc_trials = 0;  // analytic bisection
  request.sigma_low = 0.01;
  request.sigma_high = 0.15;
  request.yield_threshold = 0.5;
  request.resolution = 1e-4;
  return request;
}

TEST(RefineTest, BracketsTheAnalyticCliffToResolution) {
  sweep_service service = make_service();
  const refine_result result = refine(service, analytic_request());

  ASSERT_TRUE(result.bracketed);
  EXPECT_LE(result.sigma_high - result.sigma_low, 1e-4);
  EXPECT_GE(result.yield_low, 0.5);
  EXPECT_LT(result.yield_high, 0.5);
  EXPECT_GE(result.sigma_low, 0.01);
  EXPECT_LE(result.sigma_high, 0.15);
  EXPECT_EQ(result.evaluations, result.trace.size());
  // Bisection cost: 2 endpoints + ~log2(0.14 / 1e-4) midpoints.
  EXPECT_LE(result.evaluations, 2u + 12u);

  // The probed points really carry the reported yields.
  EXPECT_EQ(result.trace[0].request.sigma_vt, 0.01);
  EXPECT_EQ(result.trace[1].request.sigma_vt, 0.15);
}

TEST(RefineTest, ReportsUnbracketedIntervals) {
  sweep_service service = make_service();
  refine_request request = analytic_request();
  request.sigma_high = 0.02;  // yield still above threshold at both ends
  const refine_result high_yield = refine(service, request);
  EXPECT_FALSE(high_yield.bracketed);
  EXPECT_EQ(high_yield.evaluations, 2u);
  EXPECT_GE(high_yield.yield_high, 0.5);

  request = analytic_request();
  request.sigma_low = 0.12;  // collapsed at both ends
  request.sigma_high = 0.2;
  const refine_result collapsed = refine(service, request);
  EXPECT_FALSE(collapsed.bracketed);
  EXPECT_LT(collapsed.yield_low, 0.5);
}

TEST(RefineTest, RepeatedRefinementIsFullyCachedAndByteIdentical) {
  sweep_service service = make_service();
  const refine_result cold = refine(service, analytic_request());
  const refine_result warm = refine(service, analytic_request());

  EXPECT_EQ(cold.cached, 0u);
  EXPECT_EQ(warm.cached, warm.evaluations);  // every probe memoized
  EXPECT_EQ(warm.evaluations, cold.evaluations);
  EXPECT_EQ(to_json(warm), to_json(cold));
}

TEST(RefineTest, MonteCarloRefinementUsesTheMcYield) {
  service_options options;
  options.seed = 97;
  sweep_service service = make_service(options);
  refine_request request = analytic_request();
  request.mc_trials = 60;
  request.resolution = 5e-3;
  const refine_result result = refine(service, request);
  ASSERT_TRUE(result.bracketed);
  for (const stored_result& probe : result.trace) {
    EXPECT_TRUE(probe.evaluation.has_monte_carlo);
    EXPECT_EQ(probe.mc_trials_used, 60u);
  }
  EXPECT_GE(result.yield_low, 0.5);
  EXPECT_LT(result.yield_high, 0.5);
}

TEST(RefineTest, OverlappingRefinementsShareCachedMidpoints) {
  sweep_service service = make_service();
  refine(service, analytic_request());
  // A nested interval starting at the first run's first midpoint (the same
  // floating-point expression bisection uses, so the fingerprints match).
  refine_request nested = analytic_request();
  nested.sigma_low = 0.5 * (0.01 + 0.15);
  nested.sigma_high = 0.15;
  const refine_result second = refine(service, nested);
  EXPECT_GT(second.cached, 0u);
}

TEST(RefineTest, ValidatesRequests) {
  sweep_service service = make_service();
  refine_request request = analytic_request();
  request.sigma_high = request.sigma_low;
  EXPECT_THROW(refine(service, request), invalid_argument_error);
  request = analytic_request();
  request.sigma_low = -0.01;
  EXPECT_THROW(refine(service, request), invalid_argument_error);
  request = analytic_request();
  request.yield_threshold = 1.5;
  EXPECT_THROW(refine(service, request), invalid_argument_error);
  request = analytic_request();
  request.resolution = 0.0;
  EXPECT_THROW(refine(service, request), invalid_argument_error);
}

}  // namespace
}  // namespace nwdec::service
