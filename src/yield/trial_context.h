// Per-design invariants and per-thread scratch for the Monte-Carlo yield
// engine.
//
// One Monte-Carlo trial fabricates a virtual half cave and asks, nanowire
// by nanowire, whether it decodes. The legacy loop re-derived per-address
// state inside the trial: a code_word per row, a fresh drive-voltage vector
// per address, and a copied V_T row per conductance check -- and it walked
// the whole MSPT flow op by op, drawing one Gaussian per dose received.
// trial_context hoists everything that depends only on the *design* out of
// the trial:
//   * a flat row-major drive-voltage table (row i = the mesowire voltages
//     driving nanowire i's own address) and the drive voltage of each
//     digit value,
//   * a flat nominal-V_T table (the window criterion's reference levels),
//   * a flat noise-scale table sqrt(nu(i,j)) from the dose-count matrix:
//     region (i,j) receives nu(i,j) independent N(0, sigma) dose
//     perturbations (Definition 5), whose sum is exactly
//     N(0, sigma * sqrt(nu(i,j))) -- so one deviate per region realizes
//     the same V_T distribution the op-by-op walk samples,
//   * contact-group member lists in one flat offsets+indices layout,
//   * per-nanowire discard probabilities.
// run_trial then touches only these tables plus a caller-owned
// trial_scratch, so the inner loop performs no heap allocation and is safe
// to run from many threads at once (the context is immutable after
// construction; each worker owns its scratch).
//
// run_trial_block decides a block of trials at once on 64-bit lane masks:
// one deviate pass fills a lane-major slab, one dispatched classify pass
// (decoder::conduction_masks, or decoder::window_masks for the window
// criterion) realizes every cell's V_T and records its comparisons as
// masks, and the operational criterion runs per contact group as word ANDs
// (decoder::addressable_masks). run_trial stays the per-trial oracle the
// blocked path matches count for count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "codes/word.h"
#include "crossbar/contact_groups.h"
#include "decoder/decoder_design.h"
#include "fab/defects.h"
#include "util/matrix.h"
#include "util/rng.h"

namespace nwdec::yield {

/// Which addressability criterion the Monte Carlo applies.
enum class mc_mode {
  window,
  operational,
};

/// The one spelling of each criterion on every protocol and command
/// line: "window" | "operational".
const char* mc_mode_name(mc_mode mode);
/// Inverse of mc_mode_name; throws invalid_argument_error naming both
/// valid spellings for anything else.
mc_mode parse_mc_mode(const std::string& name);

/// Reusable per-thread buffers for run_trial and run_trial_block;
/// allocation-free after the first trial (or block) warms them to full
/// size. `deviates` is a structure-of-arrays slab holding a whole trial
/// block's standard normals, cell (i, j) of trial t at
/// deviates[(i * regions + j) * lane_stride + t], so a cell's lanes are
/// contiguous for the classify kernels. The verdicts are 64-bit lane masks,
/// word w covering trials 64w .. 64w + 63 of the block: `masks` holds the
/// classify kernel's output (conduction masks, words x cells x radix, or
/// window verdicts, words x nanowires), and `live` the per-(word,
/// nanowire) survivors -- neither discarded nor defective -- which the
/// criterion then narrows to the addressable lanes. `streams` carries each
/// trial's generator from the deviate fill to its tail draws.
struct trial_scratch {
  matrix<double> realized_vt;
  fab::defect_map defects;

  std::vector<double> deviates;        ///< cells x lane_stride slab
  std::vector<std::uint64_t> masks;    ///< classify kernel output
  std::vector<std::uint64_t> live;     ///< words x nanowires lane masks
  std::vector<block_rng> streams;      ///< one per trial lane
  std::vector<double> tail_uniforms;   ///< one trial's bulk tail draws
  std::vector<std::uint8_t> disabled;  ///< per-nanowire defect verdicts
};

/// Immutable precomputed view of one (design, contact plan) pair, shared by
/// every trial worker. Holds references to `design` and `plan`; both must
/// outlive the context.
class trial_context {
 public:
  trial_context(const decoder::decoder_design& design,
                const crossbar::contact_group_plan& plan);

  /// The analyzed design the context was built from.
  const decoder::decoder_design& design() const { return design_; }
  /// N, nanowires per half cave.
  std::size_t nanowire_count() const { return nanowires_; }

  /// Fabricates one virtual cave from `stream` and counts addressable
  /// nanowires under `mode` at process sigma `sigma_vt`, optionally
  /// sampling structural defects (`defects` may be null). Draw order is
  /// fixed: one standard_normal_fill of N*M deviates (row-major), the
  /// defect map, then one Bernoulli per at-risk nanowire -- deterministic
  /// in `stream` alone, so trial results are bit-identical no matter which
  /// thread runs them. The realized V_T is distributed exactly as the
  /// op-by-op process_simulator walk (see the header comment), but the
  /// streams differ, so agreement with the scalar reference is statistical,
  /// not bitwise.
  std::size_t run_trial(rng& stream, trial_scratch& scratch, mc_mode mode,
                        double sigma_vt,
                        const fab::defect_params* defects) const;

  /// Same, at the design technology's sigma_vt.
  std::size_t run_trial(rng& stream, trial_scratch& scratch, mc_mode mode,
                        const fab::defect_params* defects) const;

  /// Blocked trial kernel: runs trials [first, first + count) of the run
  /// keyed by `run_key` -- trial i consuming the stream
  /// rng::from_counter(run_key, i), exactly as run_trial does -- and writes
  /// trial first + t's addressable count into good[t]. Bit-identical to
  /// `count` scalar run_trial calls for every count: the batched generator
  /// (standard_normal_block) reproduces each trial's deviates and tail
  /// draws draw for draw, the classify kernel realizes each V_T with the
  /// same expression and makes the same comparison per lane, and a
  /// nanowire's verdict is the AND of its regions' comparisons, which is
  /// what the scalar early exits decide. The speedup comes from structure
  /// (one deviate pass straight into a structure-of-arrays slab, 64 trial
  /// lanes per mask word, the contact-group rule as word ANDs), not from
  /// changing any draw or any verdict. Any count works: a block wider than
  /// 64 trials takes ceil(count / 64) mask words.
  void run_trial_block(std::uint64_t run_key, std::uint64_t first,
                       std::size_t count, trial_scratch& scratch, mc_mode mode,
                       double sigma_vt, const fab::defect_params* defects,
                       std::uint32_t* good) const;

 private:
  bool window_ok(const double* vt_row, std::size_t row) const;
  bool operational_ok(const matrix<double>& realized_vt,
                      std::size_t row) const;

  const decoder::decoder_design& design_;
  const crossbar::contact_group_plan& plan_;
  std::size_t nanowires_ = 0;
  std::size_t regions_ = 0;
  double window_half_width_ = 0.0;

  std::vector<double> drive_table_;    ///< N x M, row i = drive of address i
  std::vector<double> drive_levels_;   ///< drive voltage per digit value
  std::vector<double> nominal_vt_;     ///< N x M nominal levels
  std::vector<double> noise_scale_;    ///< N x M, sqrt(nu(i,j))
  /// N x M lower window guards: -window_half_width where the digit has
  /// blocking duty, -infinity where digit 0 exempts the lower bound (the
  /// guard then never binds), so the window classify kernel needs no digit
  /// branch in the lane body.
  std::vector<double> window_low_guard_;
  std::vector<double> discard_probability_;  ///< per nanowire
  /// Nanowires with discard_probability_ > 0, in index order -- exactly
  /// the set the scalar path draws a discard Bernoulli for, so the blocked
  /// kernel can bulk-draw one uniform per entry and stay draw-for-draw
  /// identical.
  std::vector<std::size_t> at_risk_;
  /// N x M conduction-mask words each nanowire's own address selects
  /// (decoder::address_selectors).
  std::vector<std::uint32_t> selectors_;
  std::vector<std::size_t> group_of_;        ///< per nanowire
  std::vector<std::size_t> member_offsets_;  ///< group g: [offsets[g], offsets[g+1])
  std::vector<std::size_t> members_;         ///< member indices, grouped
};

}  // namespace nwdec::yield
