// Microbenchmark of the Monte-Carlo yield engine: the allocating scalar
// reference loop vs the zero-allocation trial_context engine at equal trial
// counts. Engine runs must be bit-identical across thread counts; the
// reference samples the same distribution through the op-by-op walk, so
// its agreement is statistical (overlapping CIs). Reports trials/sec for
//   * the scalar reference (the seed implementation),
//   * the engine on one thread (the zero-allocation speedup),
//   * the engine on --threads workers (the sharding speedup),
// and writes a JSON record for the bench trajectory / CI artifact.
//
// The kernel section then compares the scalar per-trial path (block_size 1,
// kept as the equivalence oracle) against the batched lane-mask kernel
// across block sizes AND across every runtime SIMD dispatch path compiled
// into the binary (forced one at a time), at one thread and best-of-3
// timing so a noisy box cannot fake a regression; the JSON records the
// gate cells' min/median/max over the three repeats, so the gate's
// run-to-run spread is visible. A second table repeats the comparison on one contact
// group of 300 members (TC-20, N=300), where the group rule is quadratic.
// Two gates decide the exit code: every (path, block size) cell of both
// designs must be bit-identical to its scalar oracle, and the best batched
// rate on the default dispatch path (first design) must clear the kernel
// floor -- 3x when the box dispatches avx2 or avx512, 2x (the pre-dispatch
// bound) when only narrow paths exist, with the path recorded in the JSON
// so CI can tell the cases apart.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "codes/factory.h"
#include "core/sweep_engine.h"
#include "crossbar/contact_groups.h"
#include "decoder/decoder_design.h"
#include "device/tech_params.h"
#include "util/cli.h"
#include "util/cpu.h"
#include "yield/monte_carlo_yield.h"

namespace {

using namespace nwdec;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool identical(const yield::mc_yield_result& a,
               const yield::mc_yield_result& b) {
  return a.nanowire_yield == b.nanowire_yield &&
         a.crosspoint_yield == b.crosspoint_yield && a.ci.low == b.ci.low &&
         a.ci.high == b.ci.high && a.trials == b.trials;
}

// Trials/second of one kernel cell over its timed repeats.
struct rate_spread {
  double min = 0.0, median = 0.0, max = 0.0;
};

std::string spread_json(const rate_spread& r) {
  std::ostringstream out;
  out.precision(12);
  out << "{\"min\": " << r.min << ", \"median\": " << r.median
      << ", \"max\": " << r.max << "}";
  return out.str();
}

// One design's kernel comparison: the scalar per-trial oracle on the forced
// scalar path, then every (dispatch path, block size) cell, best of 3.
struct kernel_section {
  rate_spread scalar;
  rate_spread best;           ///< the best cell on the default path
  std::size_t best_block = 0;
  bool identical = true;      ///< every cell equals the scalar oracle
  std::map<std::string, double> path_rates;  ///< best rate per forced path
};

kernel_section run_kernel_section(const yield::trial_context& context,
                                  yield::mc_mode mode, std::size_t trials,
                                  std::uint64_t key,
                                  const std::vector<cpu::simd_path>& paths,
                                  cpu::simd_path default_path,
                                  text_table& table) {
  const auto run = [&](std::size_t block_size,
                       yield::mc_yield_result& result) {
    yield::mc_options options;
    options.mode = mode;
    options.trials = trials;
    options.threads = 1;
    options.block_size = block_size;
    std::vector<double> rates;
    for (int repeat = 0; repeat < 3; ++repeat) {
      const auto t0 = std::chrono::steady_clock::now();
      result = yield::monte_carlo_yield(context, options, key);
      rates.push_back(trials / seconds_since(t0));
    }
    std::sort(rates.begin(), rates.end());
    return rate_spread{rates.front(), rates[rates.size() / 2], rates.back()};
  };

  // The scalar per-trial oracle runs on the forced scalar dispatch path:
  // the genuinely scalar floor, not a vectorized copy of it. Every forced
  // path below must reproduce its result bit for bit.
  kernel_section section;
  cpu::force_path(cpu::simd_path::scalar);
  yield::mc_yield_result scalar_result;
  section.scalar = run(1, scalar_result);
  table.add_row({"scalar (block 1)", "scalar",
                 format_fixed(section.scalar.max, 0), "1.0x", "oracle"});
  for (const cpu::simd_path path : paths) {
    cpu::force_path(path);
    const char* path_name = cpu::simd_path_name(path);
    for (const std::size_t block_size : {16, 32, 64, 128}) {
      yield::mc_yield_result blocked_result;
      const rate_spread rate = run(block_size, blocked_result);
      const bool same = identical(blocked_result, scalar_result);
      section.identical = section.identical && same;
      section.path_rates[path_name] =
          std::max(section.path_rates[path_name], rate.max);
      if (path == default_path && rate.max > section.best.max) {
        section.best = rate;
        section.best_block = block_size;
      }
      table.add_row({"batched, block " + std::to_string(block_size),
                     path_name, format_fixed(rate.max, 0),
                     format_fixed(rate.max / section.scalar.max, 2) + "x",
                     same ? "yes" : "NO (BUG)"});
    }
  }
  cpu::force_path(default_path);
  return section;
}

std::string path_rates_json(const std::map<std::string, double>& rates) {
  std::ostringstream out;
  out.precision(12);
  out << "{";
  bool first = true;
  for (const auto& [path_name, rate] : rates) {
    out << (first ? "" : ", ") << "\"" << path_name << "\": " << rate;
    first = false;
  }
  out << "}";
  return out.str();
}

// The bench proper, over a parsed command line; main() turns a throw
// (a bad --mode or --code) into exit 1.
int run(const cli_parser& cli) {
  const std::size_t trials = cli.get_flag("quick")
                                 ? 300
                                 : static_cast<std::size_t>(
                                       cli.get_int("trials"));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  std::size_t threads = static_cast<std::size_t>(cli.get_int("threads"));
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  const yield::mc_mode mode = yield::parse_mc_mode(cli.get_string("mode"));

  const device::technology tech = device::paper_technology();
  const codes::code code =
      codes::make_code(codes::parse_code_type(cli.get_string("code")), 2,
                       static_cast<std::size_t>(cli.get_int("length")));
  const std::size_t nanowires =
      static_cast<std::size_t>(cli.get_int("nanowires"));
  const decoder::decoder_design design(code, nanowires, tech);
  const auto plan =
      crossbar::plan_contact_groups(nanowires, code.size(), tech);

  // Resolve the dispatch path up front (honors NWDEC_SIMD_PATH) so every
  // section below reports against it.
  const cpu::simd_path default_path = cpu::active_path();
  const std::string cpu_features = cpu::to_string(cpu::detect());
  const std::vector<cpu::simd_path> paths = cpu::available_paths();

  bench::banner("MC engine",
                "zero-allocation multithreaded Monte-Carlo yield");
  std::cout << "design: " << codes::code_type_name(code.type) << " M=" <<
      code.length << ", N=" << nanowires << ", mode="
            << yield::mc_mode_name(mode) << ", trials=" << trials << "\n"
            << "cpu: " << cpu_features << "; kernel dispatch: "
            << cpu::simd_path_name(default_path) << " (available:";
  for (const cpu::simd_path path : paths) {
    std::cout << " " << cpu::simd_path_name(path);
  }
  std::cout << ")\n\n";

  // Scalar reference (the seed implementation, counter-based streams).
  rng reference_rng(seed);
  auto start = std::chrono::steady_clock::now();
  const yield::mc_yield_result reference = yield::monte_carlo_yield_reference(
      design, plan, mode, trials, reference_rng);
  const double reference_seconds = seconds_since(start);

  // Engine, one worker: isolates the zero-allocation speedup.
  yield::mc_options options;
  options.mode = mode;
  options.trials = trials;
  options.threads = 1;
  rng engine1_rng(seed);
  start = std::chrono::steady_clock::now();
  const yield::mc_yield_result engine1 =
      yield::monte_carlo_yield(design, plan, options, engine1_rng);
  const double engine1_seconds = seconds_since(start);

  // Engine, sharded across workers.
  options.threads = threads;
  rng engine_t_rng(seed);
  start = std::chrono::steady_clock::now();
  const yield::mc_yield_result engine_t =
      yield::monte_carlo_yield(design, plan, options, engine_t_rng);
  const double engine_t_seconds = seconds_since(start);

  // Engine runs share per-trial streams, so any thread count must agree to
  // the bit; the scalar reference samples the op-by-op walk, so agreement
  // with it is statistical (both 95% CIs must overlap).
  const bool bit_identical = identical(engine1, engine_t);
  const bool reference_agrees = engine1.ci.low <= reference.ci.high &&
                                reference.ci.low <= engine1.ci.high;
  const double reference_rate = trials / reference_seconds;
  const double engine1_rate = trials / engine1_seconds;
  const double engine_t_rate = trials / engine_t_seconds;
  const double speedup = engine1_rate / reference_rate;
  const double scaling = engine_t_rate / engine1_rate;

  text_table table({"variant", "seconds", "trials/sec", "vs reference"});
  table.add_row({"scalar reference", format_fixed(reference_seconds, 4),
                 format_fixed(reference_rate, 0), "1.0x"});
  table.add_row({"engine, 1 thread", format_fixed(engine1_seconds, 4),
                 format_fixed(engine1_rate, 0),
                 format_fixed(speedup, 1) + "x"});
  table.add_row({"engine, " + std::to_string(threads) + " threads",
                 format_fixed(engine_t_seconds, 4),
                 format_fixed(engine_t_rate, 0),
                 format_fixed(engine_t_rate / reference_rate, 1) + "x"});
  table.print(std::cout);

  std::cout << "\nengine yield "
            << format_fixed(100.0 * engine1.nanowire_yield, 2) << "% ["
            << format_fixed(100.0 * engine1.ci.low, 2) << ", "
            << format_fixed(100.0 * engine1.ci.high, 2) << "]; reference "
            << format_fixed(100.0 * reference.nanowire_yield, 2) << "% ["
            << format_fixed(100.0 * reference.ci.low, 2) << ", "
            << format_fixed(100.0 * reference.ci.high, 2) << "]\n"
            << "thread counts "
            << (bit_identical ? "bit-identical" : "DIVERGED (BUG)")
            << "; reference CIs "
            << (reference_agrees ? "overlap" : "DO NOT OVERLAP (BUG)")
            << "\n";

  // ------------------------------------------------- batched kernel gate
  // Scalar per-trial path vs the batched block kernel on a prebuilt
  // context. The kernel section keeps its own trial count: --quick's 300
  // trials finish in under 2 ms, far too little signal for a hard 2x gate,
  // while 6000 trials still run in well under a second.
  const std::size_t kernel_trials = std::max<std::size_t>(trials, 6000);
  const yield::trial_context context(design, plan);
  rng kernel_rng(seed);
  const std::uint64_t kernel_key = kernel_rng.engine()();
  text_table kernel_table(
      {"kernel", "path", "trials/sec", "vs scalar", "identical"});
  const kernel_section kernel =
      run_kernel_section(context, mode, kernel_trials, kernel_key, paths,
                         default_path, kernel_table);
  // The floor scales with the widest path the box actually dispatches: on
  // an AVX2/AVX-512 machine the vectorized kernels owe 3x; a narrow box
  // keeps the pre-dispatch 2x bound (recorded with its path in the JSON).
  const bool wide_dispatch = default_path == cpu::simd_path::avx2 ||
                             default_path == cpu::simd_path::avx512;
  const double kernel_gate = wide_dispatch ? 3.0 : 2.0;
  const double kernel_rate = kernel.best.max;
  const double scalar_rate = kernel.scalar.max;
  const double kernel_speedup = kernel_rate / scalar_rate;
  const bool kernel_fast_enough = kernel_speedup >= kernel_gate;
  // The gate's spread: the slowest kernel repeat against the fastest
  // scalar one, the medians, and the fastest against the slowest.
  const rate_spread speedup_spread{kernel.best.min / kernel.scalar.max,
                                   kernel.best.median / kernel.scalar.median,
                                   kernel.best.max / kernel.scalar.min};

  std::cout << "\nbatched kernel vs scalar per-trial path (" << kernel_trials
            << " trials, best of 3, every dispatch path):\n\n";
  kernel_table.print(std::cout);
  std::cout << "\nbest block " << kernel.best_block << " on dispatch path "
            << cpu::simd_path_name(default_path) << ": "
            << format_fixed(kernel_speedup, 2) << "x scalar ("
            << (kernel.identical ? "bit-identical" : "DIVERGED (BUG)")
            << ", " << (kernel_fast_enough ? "meets" : "MISSES") << " the "
            << format_fixed(kernel_gate, 1) << "x gate; repeats span "
            << format_fixed(speedup_spread.min, 2) << "x / "
            << format_fixed(speedup_spread.median, 2) << "x / "
            << format_fixed(speedup_spread.max, 2) << "x min/median/max)\n";

  // One contact group of 300 members: the group rule's quadratic regime
  // (the cold-design and addressability-scan sizes). Bit-checked like the
  // first design; its speed is reported, not gated.
  const codes::code large_code =
      codes::make_code(codes::code_type::tree, 2, 20);
  const std::size_t large_nanowires = 300;
  const decoder::decoder_design large_design(large_code, large_nanowires,
                                             tech);
  const auto large_plan = crossbar::plan_contact_groups(
      large_nanowires, large_code.size(), tech);
  const yield::trial_context large_context(large_design, large_plan);
  const std::size_t large_trials = cli.get_flag("quick") ? 512 : 2048;
  text_table large_table(
      {"kernel", "path", "trials/sec", "vs scalar", "identical"});
  const kernel_section large =
      run_kernel_section(large_context, mode, large_trials, kernel_key,
                         paths, default_path, large_table);
  std::cout << "\nlarge contact group: TC M=20, N=" << large_nanowires << " ("
            << large_plan.group_count << " group, " << large_trials
            << " trials, best of 3, every dispatch path):\n\n";
  large_table.print(std::cout);
  std::cout << "\nbest block " << large.best_block << ": "
            << format_fixed(large.best.max / large.scalar.max, 2)
            << "x scalar ("
            << (large.identical ? "bit-identical" : "DIVERGED (BUG)")
            << ")\n";
  const bool all_identical = kernel.identical && large.identical;

  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out.precision(12);
    out << "{\n"
        << "  \"bench\": \"mc_engine\",\n"
        << "  \"code\": \"" << codes::code_type_name(code.type) << "\",\n"
        << "  \"length\": " << code.length << ",\n"
        << "  \"nanowires\": " << nanowires << ",\n"
        << "  \"mode\": \"" << yield::mc_mode_name(mode) << "\",\n"
        << "  \"trials\": " << trials << ",\n"
        << "  \"seed\": " << seed << ",\n"
        << "  \"threads\": " << threads << ",\n"
        << "  \"hardware_concurrency\": "
        << std::max(1u, std::thread::hardware_concurrency()) << ",\n"
        << "  \"reference_trials_per_second\": " << reference_rate << ",\n"
        << "  \"engine1_trials_per_second\": " << engine1_rate << ",\n"
        << "  \"engineT_trials_per_second\": " << engine_t_rate << ",\n"
        << "  \"single_thread_speedup\": " << speedup << ",\n"
        << "  \"thread_scaling\": " << scaling << ",\n"
        << "  \"nanowire_yield\": " << engine1.nanowire_yield << ",\n"
        << "  \"reference_nanowire_yield\": " << reference.nanowire_yield
        << ",\n"
        << "  \"bit_identical_across_threads\": "
        << (bit_identical ? "true" : "false") << ",\n"
        << "  \"reference_cis_overlap\": "
        << (reference_agrees ? "true" : "false") << ",\n"
        << "  \"kernel_trials\": " << kernel_trials << ",\n"
        << "  \"kernel_scalar_trials_per_second\": " << scalar_rate << ",\n"
        << "  \"kernel_trials_per_second\": " << kernel_rate << ",\n"
        << "  \"block_size\": " << kernel.best_block << ",\n"
        << "  \"kernel_speedup_vs_scalar\": " << kernel_speedup << ",\n"
        << "  \"kernel_gate\": " << kernel_gate << ",\n"
        << "  \"kernel_scalar_rate_spread\": " << spread_json(kernel.scalar)
        << ",\n"
        << "  \"kernel_rate_spread\": " << spread_json(kernel.best) << ",\n"
        << "  \"kernel_speedup_spread\": " << spread_json(speedup_spread)
        << ",\n"
        << "  \"large_group\": {\"code\": \"TC\", \"length\": 20, "
        << "\"nanowires\": " << large_nanowires
        << ", \"contact_groups\": " << large_plan.group_count
        << ", \"trials\": " << large_trials
        << ", \"scalar_rate_spread\": " << spread_json(large.scalar)
        << ", \"kernel_rate_spread\": " << spread_json(large.best)
        << ", \"block_size\": " << large.best_block
        << ", \"speedup_vs_scalar\": " << large.best.max / large.scalar.max
        << ", \"path_trials_per_second\": "
        << path_rates_json(large.path_rates)
        << ", \"bit_identical_to_scalar\": "
        << (large.identical ? "true" : "false") << "},\n"
        << "  \"kernel_dispatch_path\": \""
        << cpu::simd_path_name(default_path) << "\",\n"
        << "  \"cpu_features\": \"" << cpu_features << "\",\n"
        << "  \"simd_paths_available\": [";
    for (std::size_t k = 0; k < paths.size(); ++k) {
      out << (k == 0 ? "" : ", ") << "\"" << cpu::simd_path_name(paths[k])
          << "\"";
    }
    out << "],\n"
        << "  \"kernel_path_trials_per_second\": "
        << path_rates_json(kernel.path_rates) << ",\n"
        << "  \"bit_identical_to_scalar\": "
        << (all_identical ? "true" : "false") << "\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }

  // Exercise the unified design-space engine on a small sigma grid so the
  // bench trajectory records the amortized path too: one cached design and
  // context serve all three points.
  crossbar::crossbar_spec sweep_spec;
  sweep_spec.nanowires_per_half_cave = nanowires;
  const core::sweep_engine engine(sweep_spec, tech);
  core::sweep_axes axes;
  axes.designs = {{code.type, code.radix, code.length}};
  axes.sigmas_vt = {0.03, 0.05, 0.07};
  axes.mc_trials = std::max<std::size_t>(trials / 4, 50);
  core::sweep_engine_options sweep_options;
  sweep_options.threads = threads;
  sweep_options.seed = seed;
  sweep_options.mode = mode;
  const core::sweep_engine_report sweep = engine.run(axes, sweep_options);
  std::cout << "\nsweep_engine over sigma {0.03, 0.05, 0.07} V:\n";
  for (const core::sweep_engine_entry& entry : sweep.entries) {
    std::cout << "  sigma=" << format_fixed(entry.request.sigma_vt, 3)
              << "  analytic Y="
              << format_percent(entry.evaluation.nanowire_yield)
              << "  MC Y=" << format_percent(entry.evaluation.mc_nanowire_yield)
              << "  (" << format_fixed(entry.mc_trials_per_second, 0)
              << " trials/sec)\n";
  }

  return bit_identical && reference_agrees && all_identical &&
                 kernel_fast_enough
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  cli_parser cli("bench_mc_engine",
                 "Monte-Carlo yield engine: scalar reference vs "
                 "zero-allocation multithreaded engine");
  cli.add_string("code", "GC", "code family (TC/GC/BGC/HC/AHC)");
  cli.add_int("length", 8, "full code length M");
  cli.add_int("nanowires", 20, "nanowires per half cave (N)");
  cli.add_int("trials", 4000, "Monte-Carlo trials per measurement");
  cli.add_int("threads", 0, "engine worker threads (0 = hardware)");
  cli.add_int("seed", 2009, "base seed");
  cli.add_string("mode", "operational", "criterion: window | operational");
  cli.add_string("json", "BENCH_mc_engine.json", "JSON output path ('' = off)");
  cli.add_flag("quick", "smoke mode: few trials, for CI");
  if (!cli.parse(argc, argv)) return 0;
  try {
    return run(cli);
  } catch (const std::exception& failure) {
    std::cerr << "bench_mc_engine: " << failure.what() << "\n";
    return 1;
  }
}
