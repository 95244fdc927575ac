// Determinism and correctness of the zero-allocation Monte-Carlo engine:
// bit-identical results across thread counts, agreement with the legacy
// scalar reference, and sigma scans on one prebuilt context.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "codes/factory.h"
#include "crossbar/contact_groups.h"
#include "device/tech_params.h"
#include "util/error.h"
#include "yield/analytic_yield.h"
#include "yield/monte_carlo_yield.h"

namespace nwdec::yield {
namespace {

struct fixture {
  device::technology tech = device::paper_technology();
  codes::code code = codes::make_code(codes::code_type::gray, 2, 8);
  decoder::decoder_design design{code, 20, tech};
  crossbar::contact_group_plan plan =
      crossbar::plan_contact_groups(20, code.size(), tech);
};

void expect_bit_identical(const mc_yield_result& a, const mc_yield_result& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.nanowire_yield, b.nanowire_yield);
  EXPECT_EQ(a.crosspoint_yield, b.crosspoint_yield);
  EXPECT_EQ(a.ci.low, b.ci.low);
  EXPECT_EQ(a.ci.high, b.ci.high);
}

TEST(McEngineTest, BitIdenticalAcrossThreadCounts) {
  // Same seed + same trial count must give the same bits for 1, 2, and 8
  // workers, in both criteria, with every stochastic channel active
  // (process noise, boundary discards, structural defects).
  fixture f;
  for (const mc_mode mode : {mc_mode::window, mc_mode::operational}) {
    mc_options options;
    options.mode = mode;
    options.trials = 200;
    options.defects = fab::defect_params{0.05, 0.02};

    options.threads = 1;
    rng r1(42);
    const mc_yield_result one = monte_carlo_yield(f.design, f.plan, options, r1);
    options.threads = 2;
    rng r2(42);
    const mc_yield_result two = monte_carlo_yield(f.design, f.plan, options, r2);
    options.threads = 8;
    rng r8(42);
    const mc_yield_result eight =
        monte_carlo_yield(f.design, f.plan, options, r8);

    expect_bit_identical(one, two);
    expect_bit_identical(one, eight);
  }
}

TEST(McEngineTest, LegacySignatureForwardsToEngine) {
  fixture f;
  rng legacy_rng(7);
  const mc_yield_result legacy = monte_carlo_yield(
      f.design, f.plan, mc_mode::operational, 100, legacy_rng);
  mc_options options;
  options.mode = mc_mode::operational;
  options.trials = 100;
  options.threads = 1;
  rng engine_rng(7);
  const mc_yield_result engine =
      monte_carlo_yield(f.design, f.plan, options, engine_rng);
  expect_bit_identical(legacy, engine);
}

TEST(McEngineTest, AgreesWithScalarReference) {
  // The engine collapses each region's nu accumulated doses into one
  // N(0, sigma*sqrt(nu)) deviate; the reference walks the flow op by op.
  // The distributions are identical, so the estimates must agree within
  // statistical error.
  fixture f;
  for (const mc_mode mode : {mc_mode::window, mc_mode::operational}) {
    rng engine_rng(17);
    mc_options options;
    options.mode = mode;
    options.trials = 800;
    options.threads = 2;
    const mc_yield_result engine =
        monte_carlo_yield(f.design, f.plan, options, engine_rng);
    rng reference_rng(18);
    const mc_yield_result reference = monte_carlo_yield_reference(
        f.design, f.plan, mode, 800, reference_rng);
    EXPECT_NEAR(engine.nanowire_yield, reference.nanowire_yield, 0.025)
        << "mode " << static_cast<int>(mode);
  }
}

TEST(McEngineTest, ReferenceAgreesWithDefectsToo) {
  fixture f;
  const std::optional<fab::defect_params> defects(
      fab::defect_params{0.10, 0.03});
  rng engine_rng(29);
  mc_options options;
  options.mode = mc_mode::window;
  options.trials = 800;
  options.threads = 4;
  options.defects = defects;
  const mc_yield_result engine =
      monte_carlo_yield(f.design, f.plan, options, engine_rng);
  rng reference_rng(31);
  const mc_yield_result reference = monte_carlo_yield_reference(
      f.design, f.plan, mc_mode::window, 800, reference_rng, defects);
  EXPECT_NEAR(engine.nanowire_yield, reference.nanowire_yield, 0.03);
}

TEST(McEngineTest, MultithreadedWindowModeMatchesAnalyticModel) {
  // The cross-validation the legacy test runs single-threaded must hold on
  // the sharded path as well.
  fixture f;
  const yield_result analytic = analytic_yield(f.design, f.plan);
  mc_options options;
  options.mode = mc_mode::window;
  options.trials = 600;
  options.threads = 4;
  rng random(123);
  const mc_yield_result mc =
      monte_carlo_yield(f.design, f.plan, options, random);
  EXPECT_NEAR(mc.nanowire_yield, analytic.nanowire_yield, 0.02);
}

TEST(McEngineTest, SigmaOverrideDefaultsToTechnologySigma) {
  fixture f;
  mc_options options;
  options.mode = mc_mode::operational;
  options.trials = 120;
  rng r1(3);
  const mc_yield_result implicit =
      monte_carlo_yield(f.design, f.plan, options, r1);
  options.sigma_vt = f.tech.sigma_vt;
  rng r2(3);
  const mc_yield_result explicit_sigma =
      monte_carlo_yield(f.design, f.plan, options, r2);
  expect_bit_identical(implicit, explicit_sigma);
}

TEST(McEngineTest, SigmaScanOnOneContextFallsMonotonically) {
  // One prebuilt context serves every sigma through the override; more
  // process variability must cost yield.
  fixture f;
  const trial_context context(f.design, f.plan);
  mc_options options;
  options.mode = mc_mode::window;
  options.trials = 300;
  options.threads = 2;
  std::vector<double> yields;
  for (const double sigma : {0.02, 0.05, 0.09}) {
    options.sigma_vt = sigma;
    yields.push_back(monte_carlo_yield(context, options, 2009).nanowire_yield);
  }
  EXPECT_GE(yields[0], yields[1]);
  EXPECT_GE(yields[1], yields[2]);
  EXPECT_GT(yields[0], yields[2]);
}

TEST(McEngineTest, PrebuiltContextMatchesConvenienceOverload) {
  fixture f;
  mc_options options;
  options.mode = mc_mode::operational;
  options.trials = 150;
  rng random(9);
  const std::uint64_t run_key = random.engine()();
  const trial_context context(f.design, f.plan);
  const mc_yield_result from_context =
      monte_carlo_yield(context, options, run_key);
  rng again(9);
  const mc_yield_result from_design =
      monte_carlo_yield(f.design, f.plan, options, again);
  expect_bit_identical(from_context, from_design);
}

TEST(McEngineTest, InvalidOptionsRejected) {
  fixture f;
  rng random(1);
  mc_options options;
  options.trials = 0;
  EXPECT_THROW(monte_carlo_yield(f.design, f.plan, options, random),
               invalid_argument_error);
  options.trials = 10;
  options.sigma_vt = -0.1;
  EXPECT_THROW(monte_carlo_yield(f.design, f.plan, options, random),
               invalid_argument_error);
}

TEST(McModeTest, NamesRoundTripAndATypoNamesBothSpellings) {
  for (const mc_mode mode : {mc_mode::window, mc_mode::operational}) {
    EXPECT_EQ(parse_mc_mode(mc_mode_name(mode)), mode);
  }
  EXPECT_STREQ(mc_mode_name(mc_mode::window), "window");
  EXPECT_STREQ(mc_mode_name(mc_mode::operational), "operational");
  try {
    parse_mc_mode("windwo");
    ADD_FAILURE() << "a misspelled mode parsed";
  } catch (const invalid_argument_error& failure) {
    const std::string what = failure.what();
    EXPECT_NE(what.find("'windwo'"), std::string::npos) << what;
    EXPECT_NE(what.find("window"), std::string::npos) << what;
    EXPECT_NE(what.find("operational"), std::string::npos) << what;
  }
}

TEST(McEngineResumeTest, AnyBatchScheduleMatchesOneRunBitIdentically) {
  // The resumable entry point's core contract: trial i always consumes
  // stream from_counter(run_key, i) and the accumulator folds in trial
  // order, so 400 trials in one, two, or many unequal batches are the same
  // bits -- across thread counts too.
  fixture f;
  const trial_context context(f.design, f.plan);
  mc_options options;
  options.mode = mc_mode::operational;
  options.defects = fab::defect_params{0.03, 0.01};
  const std::uint64_t run_key = 0xfeedfacecafebeefULL;

  options.trials = 400;
  const mc_yield_result straight =
      monte_carlo_yield(context, options, run_key);

  const std::vector<std::vector<std::size_t>> schedules = {
      {400}, {200, 200}, {1, 399}, {100, 150, 150}, {7, 93, 200, 100}};
  for (const std::vector<std::size_t>& schedule : schedules) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      mc_run_state state;
      mc_yield_result resumed;
      for (const std::size_t batch : schedule) {
        options.trials = batch;
        options.threads = threads;
        resumed = monte_carlo_yield_resume(context, options, run_key, state);
      }
      EXPECT_EQ(state.trials(), 400u);
      expect_bit_identical(resumed, straight);
    }
  }
}

TEST(McEngineResumeTest, ContinuesFromPersistedMoments) {
  // Saving (trials, mean, M2) and rebuilding the state elsewhere continues
  // the run exactly -- the result store's resume-across-restarts path.
  fixture f;
  const trial_context context(f.design, f.plan);
  mc_options options;
  options.mode = mc_mode::window;
  const std::uint64_t run_key = 99;

  options.trials = 300;
  const mc_yield_result straight =
      monte_carlo_yield(context, options, run_key);

  mc_run_state first;
  options.trials = 120;
  monte_carlo_yield_resume(context, options, run_key, first);

  mc_run_state rebuilt = mc_run_state::from_moments(
      first.trials(), first.per_trial_yield.mean(),
      first.per_trial_yield.sum_squared_deviations());
  options.trials = 180;
  const mc_yield_result finished =
      monte_carlo_yield_resume(context, options, run_key, rebuilt);
  expect_bit_identical(finished, straight);
}

TEST(McEngineResumeTest, ReportsTheMergedEstimate) {
  fixture f;
  const trial_context context(f.design, f.plan);
  mc_options options;
  options.mode = mc_mode::operational;
  mc_run_state state;
  options.trials = 50;
  const mc_yield_result after_first =
      monte_carlo_yield_resume(context, options, 7, state);
  EXPECT_EQ(after_first.trials, 50u);
  const mc_yield_result after_second =
      monte_carlo_yield_resume(context, options, 7, state);
  EXPECT_EQ(after_second.trials, 100u);
  EXPECT_EQ(state.trials(), 100u);
  EXPECT_EQ(after_second.nanowire_yield, state.mean());
  // More trials tighten the normal-approximation CI (same distribution).
  EXPECT_LE(after_second.ci.high - after_second.ci.low,
            after_first.ci.high - after_first.ci.low);
}

}  // namespace
}  // namespace nwdec::yield
