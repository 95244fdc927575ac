// Bit-identity of the batched Monte-Carlo trial kernel: for every block
// size, thread count, trial count (including partial tail blocks), mode,
// and stochastic channel, the blocked engine must reproduce the scalar
// per-trial path -- its equivalence oracle (mc_options::block_size == 1) --
// to the bit. The batched path changes how deviates are generated and how
// conductance is checked, never which deviates or which verdicts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "codes/factory.h"
#include "crossbar/contact_groups.h"
#include "device/tech_params.h"
#include "util/cpu.h"
#include "util/error.h"
#include "util/rng.h"
#include "yield/monte_carlo_yield.h"

namespace nwdec::yield {
namespace {

struct fixture {
  device::technology tech = device::paper_technology();
  codes::code code = codes::make_code(codes::code_type::gray, 2, 8);
  decoder::decoder_design design{code, 20, tech};
  crossbar::contact_group_plan plan =
      crossbar::plan_contact_groups(20, code.size(), tech);
  trial_context context{design, plan};
};

void expect_bit_identical(const mc_yield_result& a, const mc_yield_result& b,
                          const std::string& what) {
  EXPECT_EQ(a.trials, b.trials) << what;
  EXPECT_EQ(a.nanowire_yield, b.nanowire_yield) << what;
  EXPECT_EQ(a.crosspoint_yield, b.crosspoint_yield) << what;
  EXPECT_EQ(a.ci.low, b.ci.low) << what;
  EXPECT_EQ(a.ci.high, b.ci.high) << what;
}

TEST(McBlockKernelTest, BitIdenticalAcrossBlockSizesAndThreads) {
  // The ISSUE's matrix: block sizes {1, 7, 64} x threads {1, 4}, both
  // criteria, with and without defects, and trial counts that leave
  // partial tail blocks (97 = 64 + 33; 5 < any block).
  fixture f;
  for (const mc_mode mode : {mc_mode::window, mc_mode::operational}) {
    for (const bool with_defects : {false, true}) {
      for (const std::size_t trials : {1UL, 5UL, 97UL, 256UL}) {
        mc_options options;
        options.mode = mode;
        options.trials = trials;
        options.threads = 1;
        options.block_size = 1;  // the scalar oracle
        if (with_defects) options.defects = fab::defect_params{0.05, 0.02};
        const mc_yield_result oracle =
            monte_carlo_yield(f.context, options, 0xfeedULL);

        for (const std::size_t block : {1UL, 7UL, 64UL}) {
          for (const std::size_t threads : {1UL, 4UL}) {
            options.block_size = block;
            options.threads = threads;
            const mc_yield_result got =
                monte_carlo_yield(f.context, options, 0xfeedULL);
            expect_bit_identical(
                oracle, got,
                "mode " + std::to_string(static_cast<int>(mode)) +
                    " defects " + std::to_string(with_defects) + " trials " +
                    std::to_string(trials) + " block " +
                    std::to_string(block) + " threads " +
                    std::to_string(threads));
          }
        }
      }
    }
  }
}

TEST(McBlockKernelTest, DefaultBlockSizeIsTheBatchedKernel) {
  // block_size 0 resolves to the kernel default; it must agree with the
  // explicit oracle, proving the default engine path rides the new kernel
  // without changing any result.
  fixture f;
  mc_options options;
  options.mode = mc_mode::operational;
  options.trials = 150;
  options.threads = 1;
  options.block_size = 1;
  const mc_yield_result oracle =
      monte_carlo_yield(f.context, options, 2009);
  options.block_size = 0;
  const mc_yield_result defaulted =
      monte_carlo_yield(f.context, options, 2009);
  expect_bit_identical(oracle, defaulted, "default block size");
}

TEST(McBlockKernelTest, AllDefectiveTrialCountsZero) {
  // broken_probability 1 disables every nanowire in every trial; both
  // kernels must agree on the all-zero outcome (and on the degenerate
  // statistics that follow).
  fixture f;
  mc_options options;
  options.mode = mc_mode::operational;
  options.trials = 40;
  options.threads = 1;
  options.defects = fab::defect_params{1.0, 0.0};
  options.block_size = 1;
  const mc_yield_result oracle = monte_carlo_yield(f.context, options, 11);
  EXPECT_EQ(oracle.nanowire_yield, 0.0);
  options.block_size = 16;
  const mc_yield_result blocked = monte_carlo_yield(f.context, options, 11);
  expect_bit_identical(oracle, blocked, "all-defective");
}

TEST(McBlockKernelTest, SmallestLegalDesign) {
  // Codes need full_length >= 2, so M = 2 with two nanowires is the
  // smallest constructible design (a true single-region block is covered
  // at the decoder kernel level); each verdict ANDs just two region masks
  // and must still agree with the scalar path.
  device::technology tech = device::paper_technology();
  codes::code code = codes::make_code(codes::code_type::hot, 2, 2);
  decoder::decoder_design design(code, 2, tech);
  const auto plan = crossbar::plan_contact_groups(2, code.size(), tech);
  const trial_context context(design, plan);
  for (const mc_mode mode : {mc_mode::window, mc_mode::operational}) {
    mc_options options;
    options.mode = mode;
    options.trials = 33;
    options.threads = 1;
    options.block_size = 1;
    const mc_yield_result oracle = monte_carlo_yield(context, options, 3);
    options.block_size = 8;
    const mc_yield_result blocked = monte_carlo_yield(context, options, 3);
    expect_bit_identical(oracle, blocked, "single-region");
  }
}

TEST(McBlockKernelTest, ResumeSchedulesAgreeAcrossBlockSizes) {
  // Any batch schedule summing to T is one fixed T-trial run, bit for bit
  // (mc_run_state contract) -- and now also for any block size, so the
  // sweep service's adaptive budgets ride the batched kernel unchanged.
  fixture f;
  mc_options options;
  options.mode = mc_mode::operational;
  options.trials = 120;
  options.threads = 1;
  options.block_size = 1;
  mc_run_state fixed_state;
  const mc_yield_result fixed =
      monte_carlo_yield_resume(f.context, options, 17, fixed_state);

  for (const std::size_t block : {7UL, 32UL}) {
    mc_run_state state;
    mc_yield_result resumed;
    options.block_size = block;
    for (const std::size_t batch : {50UL, 3UL, 67UL}) {
      options.trials = batch;
      resumed = monte_carlo_yield_resume(f.context, options, 17, state);
    }
    options.trials = 120;
    expect_bit_identical(fixed, resumed,
                         "block " + std::to_string(block));
  }
}

// --- trial-by-trial exactness of the lane-mask kernel: run_trial_block's
// per-trial good counts equal the scalar oracle's (run_trial on the same
// counter-based stream) for every lane count -- one and several mask
// words, full and partial -- on every compiled dispatch path.

struct exactness_case {
  std::string name;
  codes::code_type type;
  unsigned radix;
  std::size_t length;
  std::size_t nanowires;
  double sigma;
};

std::vector<std::uint32_t> oracle_counts(const trial_context& context,
                                         std::uint64_t key,
                                         std::uint64_t first,
                                         std::size_t count, mc_mode mode,
                                         double sigma,
                                         const fab::defect_params* defects) {
  trial_scratch scratch;
  std::vector<std::uint32_t> counts(count);
  for (std::size_t t = 0; t < count; ++t) {
    rng stream = rng::from_counter(key, first + t);
    counts[t] = static_cast<std::uint32_t>(
        context.run_trial(stream, scratch, mode, sigma, defects));
  }
  return counts;
}

TEST(McBlockKernelTest, PerTrialCountsMatchTheScalarOracle) {
  struct path_guard {
    cpu::simd_path saved = cpu::active_path();
    ~path_guard() { cpu::force_path(saved); }
  } restore;
  const device::technology tech = device::paper_technology();
  const std::vector<exactness_case> cases = {
      // One contact group of 300 members: the quadratic regime.
      {"TC-20 N300", codes::code_type::tree, 2, 20, 300, 0.03},
      // Several groups with boundary discards (at-risk nanowires).
      {"GC-8 N64", codes::code_type::gray, 2, 8, 64, 0.05},
      {"GC-6 radix 3 N90", codes::code_type::gray, 3, 6, 90, 0.03},
      {"HC-6 radix 3 N200", codes::code_type::hot, 3, 6, 200, 0.03},
      // Omega below the layout rule's minimum group: groups wider than the
      // code space, whose repeated words still act as impostors.
      {"GC-4 N20 wide groups", codes::code_type::gray, 2, 4, 20, 0.05},
      {"GC-2 radix 3 N20 wide groups", codes::code_type::gray, 3, 2, 20,
       0.05},
  };
  const std::size_t lane_counts[] = {1, 7, 32, 63, 64, 65, 128};
  const std::uint64_t key = 0x5eedULL, first = 3;
  const fab::defect_params defect_rates{0.05, 0.02};

  for (const exactness_case& c : cases) {
    const codes::code code = codes::make_code(c.type, c.radix, c.length);
    const decoder::decoder_design design(code, c.nanowires, tech);
    const auto plan =
        crossbar::plan_contact_groups(c.nanowires, code.size(), tech);
    const trial_context context(design, plan);
    if (c.name == "TC-20 N300") {
      ASSERT_EQ(plan.group_count, 1u);
    } else if (c.name.find("wide groups") != std::string::npos) {
      ASSERT_FALSE(plan.excess_nanowires.empty()) << c.name;
    } else {
      ASSERT_FALSE(plan.boundary_risks.empty()) << c.name;
    }
    for (const mc_mode mode : {mc_mode::window, mc_mode::operational}) {
      for (const bool with_defects : {false, true}) {
        const fab::defect_params* defects =
            with_defects ? &defect_rates : nullptr;
        cpu::force_path(cpu::simd_path::scalar);
        const std::vector<std::uint32_t> oracle =
            oracle_counts(context, key, first, 128, mode, c.sigma, defects);
        for (const cpu::simd_path path : cpu::available_paths()) {
          cpu::force_path(path);
          // One scratch for every lane count: buffers warmed by a wider
          // block must not leak stale lanes into a narrower one.
          trial_scratch scratch;
          for (const std::size_t lanes : lane_counts) {
            std::vector<std::uint32_t> got(lanes, 0xdead);
            context.run_trial_block(key, first, lanes, scratch, mode,
                                    c.sigma, defects, got.data());
            const std::vector<std::uint32_t> expected(
                oracle.begin(), oracle.begin() + lanes);
            EXPECT_EQ(got, expected)
                << c.name << " path " << cpu::simd_path_name(path)
                << " mode " << mc_mode_name(mode) << " defects "
                << with_defects << " lanes " << lanes;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace nwdec::yield
