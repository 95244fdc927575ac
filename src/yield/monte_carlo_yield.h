// Monte-Carlo yield: fabricate virtual half caves (fab::process_simulator)
// and count how many nanowires actually decode.
//
// Two addressability criteria are available (yield/trial_context.h):
//   * window: a nanowire works when every region's realized V_T lies in the
//     addressability window. This is the criterion the analytic model
//     integrates, so window-mode Monte Carlo must agree with
//     analytic_yield() within statistical error (the tests enforce it).
//   * operational: a nanowire works when driving its own address makes it
//     -- and nothing else in its contact group -- conduct, evaluated on
//     realized voltages. This is the real decode experiment; the window
//     criterion is sufficient but not necessary, so operational yield is
//     >= window yield (typically by a few percent).
// Optionally a structural defect map (fab/defects.h) is sampled per trial.
//
// Engine architecture: trials are grouped into fixed-size blocks
// (mc_options::block_size) and contiguous block ranges are sharded across
// std::thread workers. Worker state is a trial_context (immutable,
// precomputed per-design tables, shared) plus a per-thread trial_scratch
// (reusable buffers and structure-of-arrays slabs), so the hot loop
// performs no heap allocation. Each block runs through the batched kernel
// (trial_context::run_trial_block): one counter-based deviate pass fills a
// lane-major slab for the whole block, one dispatched classify pass in
// decoder/addressing realizes every cell's V_T and records its comparisons
// as 64-bit lane masks (one bit per trial), and the criterion is decided
// on those words -- the contact-group rule as word ANDs. Trial i always
// consumes the counter-based stream rng::from_counter(run_key, i) --
// whether a block kernel or the scalar path (block_size 1, kept as the
// equivalence oracle) runs it -- and its good count lands in slot i of a
// preallocated array; the final statistics are reduced sequentially in
// trial order. Results are therefore bit-identical for any thread count
// AND any block size. The allocating scalar reference
// (monte_carlo_yield_reference) samples the identical distribution through
// the op-by-op process walk, so agreement with it is statistical, not
// bitwise; it is kept for validation and benchmarking.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "crossbar/contact_groups.h"
#include "decoder/decoder_design.h"
#include "fab/defects.h"
#include "util/rng.h"
#include "util/stats.h"
#include "yield/trial_context.h"

namespace nwdec::yield {

/// Monte-Carlo estimate of the half-cave yield.
struct mc_yield_result {
  double nanowire_yield = 0.0;   ///< mean over trials
  double crosspoint_yield = 0.0; ///< nanowire_yield^2
  interval ci{0.0, 0.0};         ///< ~95% CI on nanowire_yield
  std::size_t trials = 0;
};

/// Default trial-block size of the batched kernel: big enough that the
/// classify pass and the group rule's word ANDs amortize over many lanes,
/// small enough that a block's deviate slab (cells x 32 doubles) stays
/// cache-resident (bench_mc_engine's kernel section sweeps the candidates;
/// on the Figs. 7/8 design 16-128 measure within noise of each other, and
/// on one 300-member contact group 32 beats 64 and 128).
inline constexpr std::size_t mc_default_block_size = 32;

/// Options for the Monte-Carlo engine.
struct mc_options {
  mc_mode mode = mc_mode::window;
  std::size_t trials = 0;
  /// Worker threads; 0 means std::thread::hardware_concurrency(). Results
  /// are bit-identical regardless of the value.
  std::size_t threads = 1;
  /// Trials per batched-kernel block (trial_context::run_trial_block):
  /// 0 = mc_default_block_size, 1 = the scalar per-trial path (kept as the
  /// batched kernel's equivalence oracle). Results are bit-identical for
  /// every value -- the block size is a performance knob, not a semantic
  /// one -- and bench_mc_engine's kernel section enforces that gate.
  std::size_t block_size = 0;
  /// Structural defect injection, sampled per trial when set.
  std::optional<fab::defect_params> defects;
  /// Process sigma override in volts; the design technology's sigma_vt
  /// when unset (core::sweep_engine uses this to scan sigma on one
  /// cached context).
  std::optional<double> sigma_vt;
};

/// Runs `options.trials` independent fabrications of the half cave and
/// counts addressable nanowires under the chosen criterion. Draws one
/// 64-bit run key from `random` and shards trials across workers; see the
/// header comment for the determinism contract.
mc_yield_result monte_carlo_yield(const decoder::decoder_design& design,
                                  const crossbar::contact_group_plan& plan,
                                  const mc_options& options, rng& random);

/// Engine core on a prebuilt context: the amortized path for running many
/// grid points without re-deriving the per-design tables. `run_key` seeds
/// the per-trial counter-based streams.
mc_yield_result monte_carlo_yield(const trial_context& context,
                                  const mc_options& options,
                                  std::uint64_t run_key);

/// Saved progress of a resumable Monte-Carlo run: the per-trial yield
/// accumulator (count = trials consumed so far, running mean, Welford M2).
/// Because trial i always consumes the stream rng::from_counter(run_key, i)
/// and the accumulator folds trials in order, continuing from a state is
/// deterministic: any batch schedule summing to T trials is bit-identical
/// to a single T-trial run -- the contract the sweep service's adaptive
/// trial budgets (CI-width stopping) are built on.
struct mc_run_state {
  running_stats per_trial_yield;  ///< one observation per trial: good / N

  /// Trials consumed so far (the next trial index).
  std::size_t trials() const { return per_trial_yield.count(); }
  /// The running mean nanowire yield (0 before any trial).
  double mean() const { return per_trial_yield.mean(); }

  /// Rebuilds a state from persisted moments (e.g. a cached result), so a
  /// run can continue across process restarts.
  static mc_run_state from_moments(std::size_t trials, double mean, double m2) {
    return {running_stats::from_moments(trials, mean, m2)};
  }
};

/// Resumable engine entry: runs `options.trials` *further* trials starting
/// at trial index state.trials(), folds them into `state` in trial order,
/// and returns the merged estimate over all state.trials() trials so far.
/// Sharding across `options.threads` never changes the bits; see
/// mc_run_state for the batching contract. A fresh state with one batch of
/// T trials reproduces monte_carlo_yield(context, options, run_key) with
/// options.trials == T exactly.
mc_yield_result monte_carlo_yield_resume(const trial_context& context,
                                         const mc_options& options,
                                         std::uint64_t run_key,
                                         mc_run_state& state);

/// Assembles the summary statistics (mean, crosspoint yield, normal-theory
/// CI) over every trial folded into `state` so far -- exactly what the
/// resumable entry returns after its last batch, exposed so a state
/// rebuilt from persisted moments (mc_run_state::from_moments) can re-emit
/// the identical mc_yield_result without running a trial. This is the
/// cross-restart top-up path of the sweep service.
mc_yield_result mc_result_from_state(const mc_run_state& state);

/// Single-threaded convenience wrapper kept source-compatible with the
/// original API; forwards to the engine with one worker.
mc_yield_result monte_carlo_yield(
    const decoder::decoder_design& design,
    const crossbar::contact_group_plan& plan, mc_mode mode,
    std::size_t trials, rng& random,
    const std::optional<fab::defect_params>& defects = std::nullopt);

/// The original allocating scalar loop, preserved as the validation
/// baseline: it samples the same realized-V_T distribution through the
/// op-by-op process walk (different draws, so agreement with the engine is
/// statistical), and bench_mc_engine measures the speedup against it.
mc_yield_result monte_carlo_yield_reference(
    const decoder::decoder_design& design,
    const crossbar::contact_group_plan& plan, mc_mode mode,
    std::size_t trials, rng& random,
    const std::optional<fab::defect_params>& defects = std::nullopt);

}  // namespace nwdec::yield
