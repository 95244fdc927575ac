// End-to-end bit-identity of the runtime SIMD dispatch: a whole Monte-Carlo
// run must produce byte-equal results whichever kernel path executes it.
// The scalar path run at block_size 1 is the oracle; every available path
// is forced in turn and crossed with block sizes, thread counts, both
// criteria, and the defect channel. Any per-lane rounding or draw-order
// divergence between the per-ISA kernel translation units shows up here as
// a hard failure, not a statistical drift.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "codes/factory.h"
#include "crossbar/contact_groups.h"
#include "device/tech_params.h"
#include "util/cpu.h"
#include "yield/monte_carlo_yield.h"

namespace nwdec::yield {
namespace {

struct path_guard {
  cpu::simd_path saved = cpu::active_path();
  ~path_guard() { cpu::force_path(saved); }
};

void expect_bit_identical(const mc_yield_result& a, const mc_yield_result& b,
                          const std::string& what) {
  EXPECT_EQ(a.trials, b.trials) << what;
  EXPECT_EQ(a.nanowire_yield, b.nanowire_yield) << what;
  EXPECT_EQ(a.crosspoint_yield, b.crosspoint_yield) << what;
  EXPECT_EQ(a.ci.low, b.ci.low) << what;
  EXPECT_EQ(a.ci.high, b.ci.high) << what;
}

struct design_case {
  const char* name;
  codes::code code;
  std::size_t nanowires;
};

std::vector<design_case> dispatch_designs() {
  std::vector<design_case> cases;
  // Smallest constructible design (two regions per verdict) and the
  // paper's mid-size gray decoder.
  cases.push_back({"hot-2x2-N2", codes::make_code(codes::code_type::hot, 2, 2),
                   2});
  cases.push_back({"gray-2x8-N20",
                   codes::make_code(codes::code_type::gray, 2, 8), 20});
  return cases;
}

TEST(SimdDispatchTest, EveryPathBitIdenticalAcrossTheMatrix) {
  path_guard restore;
  const device::technology tech = device::paper_technology();
  for (const design_case& dc : dispatch_designs()) {
    const decoder::decoder_design design(dc.code, dc.nanowires, tech);
    const auto plan =
        crossbar::plan_contact_groups(dc.nanowires, dc.code.size(), tech);
    const trial_context context(design, plan);
    for (const mc_mode mode : {mc_mode::window, mc_mode::operational}) {
      for (const bool with_defects : {false, true}) {
        mc_options options;
        options.mode = mode;
        options.trials = 97;  // leaves partial tail blocks at every size
        options.threads = 1;
        options.block_size = 1;
        if (with_defects) options.defects = fab::defect_params{0.05, 0.02};

        cpu::force_path(cpu::simd_path::scalar);
        const mc_yield_result oracle =
            monte_carlo_yield(context, options, 0xd15bULL);

        for (const cpu::simd_path path : cpu::available_paths()) {
          cpu::force_path(path);
          for (const std::size_t block : {16UL, 32UL, 64UL}) {
            for (const std::size_t threads : {1UL, 4UL}) {
              options.block_size = block;
              options.threads = threads;
              const mc_yield_result got =
                  monte_carlo_yield(context, options, 0xd15bULL);
              expect_bit_identical(
                  oracle, got,
                  std::string(dc.name) + " path " +
                      cpu::simd_path_name(path) + " mode " +
                      std::to_string(static_cast<int>(mode)) + " defects " +
                      std::to_string(with_defects) + " block " +
                      std::to_string(block) + " threads " +
                      std::to_string(threads));
            }
          }
        }
      }
    }
  }
}

TEST(SimdDispatchTest, ScalarOracleItselfIsPathInvariant) {
  // block_size 1 never touches the classify kernels, but its deviates ride
  // the same dispatched bulk conversions -- so even the oracle must not
  // move when the path does.
  path_guard restore;
  const device::technology tech = device::paper_technology();
  const codes::code code = codes::make_code(codes::code_type::gray, 2, 8);
  const decoder::decoder_design design(code, 20, tech);
  const auto plan = crossbar::plan_contact_groups(20, code.size(), tech);
  const trial_context context(design, plan);
  mc_options options;
  options.mode = mc_mode::operational;
  options.trials = 60;
  options.threads = 1;
  options.block_size = 1;
  options.defects = fab::defect_params{0.05, 0.02};
  cpu::force_path(cpu::simd_path::scalar);
  const mc_yield_result oracle = monte_carlo_yield(context, options, 7);
  for (const cpu::simd_path path : cpu::available_paths()) {
    cpu::force_path(path);
    const mc_yield_result got = monte_carlo_yield(context, options, 7);
    expect_bit_identical(oracle, got, cpu::simd_path_name(path));
  }
}

}  // namespace
}  // namespace nwdec::yield
