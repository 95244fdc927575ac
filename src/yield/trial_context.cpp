#include "yield/trial_context.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "decoder/addressing.h"
#include "util/error.h"

namespace nwdec::yield {

const char* mc_mode_name(mc_mode mode) {
  return mode == mc_mode::window ? "window" : "operational";
}

mc_mode parse_mc_mode(const std::string& name) {
  if (name == "window") return mc_mode::window;
  if (name == "operational") return mc_mode::operational;
  throw invalid_argument_error("unknown mc mode '" + name +
                               "' (expected window | operational)");
}

trial_context::trial_context(const decoder::decoder_design& design,
                             const crossbar::contact_group_plan& plan)
    : design_(design),
      plan_(plan),
      nanowires_(design.nanowire_count()),
      regions_(design.region_count()),
      window_half_width_(design.levels().window_half_width()),
      selectors_(decoder::address_selectors(design.pattern(),
                                            design.code().radix)) {
  NWDEC_EXPECTS(plan.nanowire_count == design.nanowire_count(),
                "plan and design must describe the same half cave");

  const matrix<codes::digit>& pattern = design_.pattern();
  const matrix<std::size_t>& dose_counts = design_.dose_counts();
  const device::vt_levels& levels = design_.levels();
  drive_levels_.resize(levels.radix());
  for (unsigned d = 0; d < levels.radix(); ++d) {
    drive_levels_[d] = levels.drive_voltage(static_cast<codes::digit>(d));
  }
  drive_table_.resize(nanowires_ * regions_);
  nominal_vt_.resize(nanowires_ * regions_);
  noise_scale_.resize(nanowires_ * regions_);
  window_low_guard_.resize(nanowires_ * regions_);
  for (std::size_t i = 0; i < nanowires_; ++i) {
    const codes::digit* row = pattern.row_ptr(i);
    const std::size_t* nu_row = dose_counts.row_ptr(i);
    for (std::size_t j = 0; j < regions_; ++j) {
      nominal_vt_[i * regions_ + j] = levels.level(row[j]);
      drive_table_[i * regions_ + j] = levels.drive_voltage(row[j]);
      noise_scale_[i * regions_ + j] =
          std::sqrt(static_cast<double>(nu_row[j]));
      window_low_guard_[i * regions_ + j] =
          row[j] != 0 ? -window_half_width_
                      : -std::numeric_limits<double>::infinity();
    }
  }

  // Contact-group membership as one flat offsets+indices layout.
  // Double-contacted boundary nanowires still *conduct*, so they stay in
  // the member lists as potential impostors even when they are not counted
  // addressable themselves.
  discard_probability_.resize(nanowires_);
  group_of_.resize(nanowires_);
  std::vector<std::size_t> counts(plan.group_count, 0);
  for (std::size_t i = 0; i < nanowires_; ++i) {
    discard_probability_[i] = plan.discard_probability(i);
    if (discard_probability_[i] > 0.0) at_risk_.push_back(i);
    group_of_[i] = plan.group_of(i);
    ++counts[group_of_[i]];
  }
  member_offsets_.assign(plan.group_count + 1, 0);
  for (std::size_t g = 0; g < plan.group_count; ++g) {
    member_offsets_[g + 1] = member_offsets_[g] + counts[g];
  }
  members_.resize(nanowires_);
  std::vector<std::size_t> cursor(member_offsets_.begin(),
                                  member_offsets_.end() - 1);
  for (std::size_t i = 0; i < nanowires_; ++i) {
    members_[cursor[group_of_[i]]++] = i;
  }
}

bool trial_context::window_ok(const double* vt_row, std::size_t row) const {
  const double* nominal_row = nominal_vt_.data() + row * regions_;
  const codes::digit* pattern_row = design_.pattern().row_ptr(row);
  for (std::size_t j = 0; j < regions_; ++j) {
    const double delta = vt_row[j] - nominal_row[j];
    // Digit-0 regions have no blocking duty: only the upper bound applies.
    if (delta >= window_half_width_) return false;
    if (pattern_row[j] != 0 && delta <= -window_half_width_) return false;
  }
  return true;
}

bool trial_context::operational_ok(const matrix<double>& realized_vt,
                                   std::size_t row) const {
  // Drive this nanowire's own address and require that it conducts while
  // every other nanowire reachable through the same contact group blocks.
  const double* drive = drive_table_.data() + row * regions_;
  if (!decoder::conducts(realized_vt.row_ptr(row), drive, regions_)) {
    return false;
  }
  const std::size_t group = group_of_[row];
  for (std::size_t k = member_offsets_[group]; k < member_offsets_[group + 1];
       ++k) {
    const std::size_t other = members_[k];
    if (other == row) continue;
    if (decoder::conducts(realized_vt.row_ptr(other), drive, regions_)) {
      return false;
    }
  }
  return true;
}

std::size_t trial_context::run_trial(rng& stream, trial_scratch& scratch,
                                     mc_mode mode, double sigma_vt,
                                     const fab::defect_params* defects) const {
  // Realize V_T in two flat passes: N*M standard normals, then a fused
  // nominal + sigma * sqrt(nu) * z transform in place (see header: exactly
  // the distribution the op-by-op process walk samples).
  if (scratch.realized_vt.rows() != nanowires_ ||
      scratch.realized_vt.cols() != regions_) {
    scratch.realized_vt.assign(nanowires_, regions_);
  }
  double* vt = scratch.realized_vt.row_ptr(0);
  const std::size_t cells = nanowires_ * regions_;
  stream.standard_normal_fill(vt, cells);
  for (std::size_t k = 0; k < cells; ++k) {
    vt[k] = nominal_vt_[k] + sigma_vt * noise_scale_[k] * vt[k];
  }
  if (defects != nullptr) {
    fab::sample_defects_into(nanowires_, *defects, stream, scratch.defects);
  }

  std::size_t good = 0;
  for (std::size_t i = 0; i < nanowires_; ++i) {
    // This die's contact edges clip this nanowire with the plan's
    // probability (misalignment is sampled per fabricated cave).
    if (discard_probability_[i] > 0.0 &&
        stream.bernoulli(discard_probability_[i])) {
      continue;
    }
    if (defects != nullptr && scratch.defects.disables(i)) continue;
    const bool ok = mode == mc_mode::window
                        ? window_ok(scratch.realized_vt.row_ptr(i), i)
                        : operational_ok(scratch.realized_vt, i);
    if (ok) ++good;
  }
  return good;
}

std::size_t trial_context::run_trial(rng& stream, trial_scratch& scratch,
                                     mc_mode mode,
                                     const fab::defect_params* defects) const {
  return run_trial(stream, scratch, mode, design_.tech().sigma_vt, defects);
}

void trial_context::run_trial_block(std::uint64_t run_key, std::uint64_t first,
                                    std::size_t count, trial_scratch& scratch,
                                    mc_mode mode, double sigma_vt,
                                    const fab::defect_params* defects,
                                    std::uint32_t* good) const {
  NWDEC_EXPECTS(count >= 1, "a trial block needs at least one trial");
  const std::size_t cells = nanowires_ * regions_;
  const unsigned radix = design_.code().radix;
  // Lane rows padded to 64-byte multiples so every cell row of the slab
  // starts cache-line aligned; the kernels still read `count` lanes only.
  const std::size_t lane_stride = (count + 7) & ~std::size_t{7};
  const std::size_t words = decoder::mask_words(count);
  const std::size_t mask_size =
      words * (mode == mc_mode::window ? nanowires_ : cells * radix);

  if (scratch.deviates.size() < cells * lane_stride) {
    scratch.deviates.resize(cells * lane_stride);
  }
  if (scratch.masks.size() < mask_size) scratch.masks.resize(mask_size);
  if (scratch.live.size() < words * nanowires_) {
    scratch.live.resize(words * nanowires_);
  }
  if (scratch.streams.size() < count) scratch.streams.resize(count);
  double* slab = scratch.deviates.data();
  std::uint64_t* masks = scratch.masks.data();
  std::uint64_t* live = scratch.live.data();

  // Phase 1: the batched deviate pass. Cell k of trial first + t lands at
  // slab[k * lane_stride + t], drawn from that trial's own counter-based
  // stream; streams[t] stays positioned for the trial's tail draws.
  standard_normal_block(run_key, first, count, cells, slab, lane_stride,
                        scratch.streams.data());

  // Phase 2: the classify pass realizes every cell's V_T with the scalar
  // path's expression (nominal + sigma * sqrt(nu) * z) and records its
  // comparisons as lane masks: per digit value the lanes that conduct under
  // that digit's drive, or per nanowire the lanes inside the window.
  if (mode == mc_mode::window) {
    decoder::window_masks(slab, lane_stride, count, nanowires_, regions_,
                          nominal_vt_.data(), noise_scale_.data(), sigma_vt,
                          window_low_guard_.data(), window_half_width_,
                          masks);
  } else {
    decoder::conduction_masks(slab, lane_stride, count, cells,
                              nominal_vt_.data(), noise_scale_.data(),
                              sigma_vt, drive_levels_.data(), radix, masks);
  }

  // Phase 3: per-trial tail draws in scalar stream order (defect map, then
  // one discard Bernoulli per at-risk nanowire) clear the lost lanes from
  // the survivor masks. The draws come as one bulk canonical_fill per
  // trial -- the defect uniforms followed by the at-risk discard uniforms,
  // the identical words the scalar path consumes one bernoulli at a time.
  const std::size_t defect_draws =
      defects != nullptr ? fab::defect_draw_count(nanowires_) : 0;
  const std::size_t tail_draws = defect_draws + at_risk_.size();
  if (defects != nullptr) defects->validate();
  if (scratch.tail_uniforms.size() < tail_draws) {
    scratch.tail_uniforms.resize(tail_draws);
  }
  if (scratch.disabled.size() < nanowires_) {
    scratch.disabled.resize(nanowires_);
  }
  double* uniforms = scratch.tail_uniforms.data();
  std::uint8_t* disabled = scratch.disabled.data();
  for (std::size_t w = 0; w < words; ++w) {
    std::fill(live + w * nanowires_, live + (w + 1) * nanowires_,
              decoder::lane_bits(count - decoder::mask_lanes * w));
  }
  for (std::size_t t = 0; t < count; ++t) {
    std::uint64_t* live_word = live + (t / decoder::mask_lanes) * nanowires_;
    const std::uint64_t lost =
        ~(std::uint64_t{1} << (t % decoder::mask_lanes));
    block_rng& stream = scratch.streams[t];
    if (tail_draws > 0) stream.canonical_fill(uniforms, tail_draws);
    if (defects != nullptr) {
      fab::defect_disables_from_uniforms(nanowires_, *defects, uniforms,
                                         disabled);
      for (std::size_t i = 0; i < nanowires_; ++i) {
        if (disabled[i]) live_word[i] &= lost;
      }
    }
    for (std::size_t k = 0; k < at_risk_.size(); ++k) {
      const std::size_t i = at_risk_[k];
      if (uniforms[defect_draws + k] < discard_probability_[i]) {
        live_word[i] &= lost;
      }
    }
  }

  // Phase 4: narrow the survivors to the addressable lanes -- inside the
  // window, or, per contact group, conducting under the own address while
  // every other member blocks -- then count each lane's set bits.
  const std::size_t groups = member_offsets_.size() - 1;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t* live_word = live + w * nanowires_;
    if (mode == mc_mode::window) {
      const std::uint64_t* inside = masks + w * nanowires_;
      for (std::size_t i = 0; i < nanowires_; ++i) live_word[i] &= inside[i];
    } else {
      const std::uint64_t* plane = masks + w * cells * radix;
      for (std::size_t g = 0; g < groups; ++g) {
        const std::size_t begin = member_offsets_[g];
        decoder::addressable_masks(plane, selectors_.data(), regions_, radix,
                                   members_.data() + begin,
                                   member_offsets_[g + 1] - begin, live_word);
      }
    }
  }
  std::fill(good, good + count, 0U);
  for (std::size_t w = 0; w < words; ++w) {
    std::uint32_t* good_word = good + decoder::mask_lanes * w;
    for (std::size_t i = 0; i < nanowires_; ++i) {
      for (std::uint64_t bits = live[w * nanowires_ + i]; bits != 0;
           bits &= bits - 1) {
        ++good_word[std::countr_zero(bits)];
      }
    }
  }
}

}  // namespace nwdec::yield
