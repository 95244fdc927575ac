// Decoder conduction logic and address tables (Sec. 2.2, Fig. 1.c).
//
// Every doping region is a transistor in series along the nanowire; the
// region conducts when its gate (mesowire) voltage exceeds its threshold
// voltage, and the nanowire conducts when all M regions conduct. To address
// the nanowire patterned with word w, each mesowire j is driven just above
// the w_j-th level (vt_levels::drive_voltage), so a nanowire with pattern x
// conducts iff x <= w componentwise. Unique addressing therefore holds
// exactly when the code is an antichain -- which reflected tree-family
// codes and hot codes are.
//
// Two conduction entry points are provided: the nominal digit-level rule
// (used for address-table construction and code validation), and the
// voltage-level rule on *realized* V_T matrices (used by the Monte-Carlo
// yield simulator, where process variability has displaced every V_T).
//
// The Monte-Carlo engine decides a whole block of trial lanes at once on
// 64-bit lane masks. The classify kernels (conduction_masks,
// window_masks) turn realized thresholds into masks and are
// runtime-SIMD-dispatched: one binary carries scalar / AVX2 / AVX-512
// instantiations and util/cpu picks the widest one the running CPU
// supports (NWDEC_SIMD_PATH overrides; see util/cpu.h). Every path makes
// the same IEEE comparison per lane, so the chosen path never changes a
// result, only throughput. addressable_masks then applies the contact-group
// rule with word ANDs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "codes/code_space.h"
#include "codes/word.h"
#include "device/vt_levels.h"
#include "util/matrix.h"

namespace nwdec::decoder {

/// Nominal rule: pattern x conducts under the address of w iff x <= w
/// componentwise (every region's level is at or below the driven level).
bool conducts(const codes::code_word& pattern, const codes::code_word& address);

/// Voltage rule: a nanowire with realized thresholds `realized_vt` (volts,
/// one entry per region) conducts under `gate_voltages` iff every region
/// satisfies gate > threshold.
bool conducts(const std::vector<double>& realized_vt,
              const std::vector<double>& gate_voltages);

/// Span form of the voltage rule for flat buffers (a realized-Vt matrix row
/// against a precomputed drive-table row). Unchecked: the caller guarantees
/// both spans hold `regions` entries. The Monte-Carlo engine's per-trial
/// oracle (trial_context::operational_ok) calls this.
inline bool conducts(const double* realized_vt, const double* gate_voltages,
                     std::size_t regions) {
  for (std::size_t j = 0; j < regions; ++j) {
    if (gate_voltages[j] <= realized_vt[j]) return false;
  }
  return true;
}

/// Trial lanes per mask word: bit b of word w stands for lane 64 * w + b.
inline constexpr std::size_t mask_lanes = 64;

/// Mask words covering `lanes` trial lanes.
constexpr std::size_t mask_words(std::size_t lanes) {
  return (lanes + mask_lanes - 1) / mask_lanes;
}

/// The bits of the first `lanes` lanes of a mask word (a shift by 64 would
/// be undefined, so a full word is spelled out).
constexpr std::uint64_t lane_bits(std::size_t lanes) {
  return lanes >= mask_lanes ? ~std::uint64_t{0}
                             : (std::uint64_t{1} << lanes) - 1;
}

/// Classify kernel of the operational criterion: realizes every cell's
/// threshold in every trial lane and records, per digit value, the lanes in
/// which the region conducts. Cell k (region j of nanowire i, k = i *
/// regions + j) of lane t holds the standard-normal deviate
/// deviates[k * lane_stride + t]; its realized threshold is
///   vt = nominal[k] + (sigma * noise_scale[k]) * z,
/// the Monte-Carlo engine's exact expression (yield/trial_context.h). Bit b
/// of masks[(w * cells + k) * radix + d] is set iff drive[d] - vt > 0 for
/// lane t = 64 * w + b: the region conducts when its mesowire drives digit
/// d. A nanowire therefore conducts under an address in lane t iff bit t is
/// set in every mask its regions select with the address digits. Bits of
/// lanes >= `lanes` are zero. Requires cells, radix and lanes >= 1 and
/// lane_stride >= lanes.
void conduction_masks(const double* deviates, std::size_t lane_stride,
                      std::size_t lanes, std::size_t cells,
                      const double* nominal, const double* noise_scale,
                      double sigma, const double* drive, unsigned radix,
                      std::uint64_t* masks);

/// Classify kernel of the window criterion, on the same realization: bit b
/// of masks[w * nanowires + i] is set iff, in lane t = 64 * w + b, every
/// region j of nanowire i satisfies (window_half_width - delta) > 0 and
/// (delta - low_guard[k]) > 0 with delta = vt - nominal[k]. low_guard holds
/// -window_half_width, or -infinity where digit 0 exempts the lower bound.
/// Bits of lanes >= `lanes` are zero. Requires nanowires, regions and
/// lanes >= 1 and lane_stride >= lanes.
void window_masks(const double* deviates, std::size_t lane_stride,
                  std::size_t lanes, std::size_t nanowires,
                  std::size_t regions, const double* nominal,
                  const double* noise_scale, double sigma,
                  const double* low_guard, double window_half_width,
                  std::uint64_t* masks);

/// The conduction-mask words each nanowire's own address selects, for
/// addressable_masks: row r (regions entries) lists j * radix + a[j] for
/// every region j of pattern row a = r, the regions with lower digits
/// first. Under a low digit's drive a region of any other nanowire with a
/// higher digit blocks, so an impostor's AND almost always dies on its
/// first words in this order.
std::vector<std::uint32_t> address_selectors(
    const matrix<codes::digit>& pattern, unsigned radix);

/// The operational criterion for one contact group, on one word of
/// conduction masks (`plane`, laid out as conduction_masks writes plane w:
/// plane[(r * regions + j) * radix + d]). `selectors` comes from
/// address_selectors. For each listed member r, live[r] enters as the
/// lanes to decide and leaves as those in which r conducts under its own
/// address while no other member does. Every member vetoes, whatever its
/// own live word, so discarded and defective nanowires still act as
/// impostors.
void addressable_masks(const std::uint64_t* plane,
                       const std::uint32_t* selectors, std::size_t regions,
                       unsigned radix, const std::size_t* members,
                       std::size_t member_count, std::uint64_t* live);

/// Mesowire voltages driving the address of word w.
std::vector<double> drive_pattern(const codes::code_word& w,
                                  const device::vt_levels& levels);

/// Buffer-reuse form of drive_pattern: writes the w.length() drive voltages
/// into `out` (resized as needed, reusing capacity).
void drive_pattern_into(const codes::code_word& w,
                        const device::vt_levels& levels,
                        std::vector<double>& out);

/// Indices of the pattern rows that conduct under the address of `address`
/// (nominal rule).
std::vector<std::size_t> addressed_rows(const matrix<codes::digit>& pattern,
                                        unsigned radix,
                                        const codes::code_word& address);

/// True when every word in `words` addresses exactly one word of the set
/// (itself) under the nominal rule -- the operational definition of unique
/// addressability the antichain property guarantees.
bool uniquely_addressable(const std::vector<codes::code_word>& words);

/// Address lookup table for one contact group: maps each code word to the
/// in-group nanowire index it selects, and exposes the inverse.
class address_table {
 public:
  /// Builds the table for a group whose nanowires are patterned with
  /// `words` (all distinct); verifies unique addressability.
  explicit address_table(std::vector<codes::code_word> words);

  /// Number of addressable nanowires.
  std::size_t size() const { return words_.size(); }

  /// The address (code word) selecting in-group nanowire `index`.
  const codes::code_word& address_of(std::size_t index) const;

  /// The in-group nanowire index selected by `address`, or nullopt when the
  /// address matches no nanowire -- or more than one (an over-driving word
  /// like the all-high address makes several nanowires conduct and selects
  /// nothing usable).
  std::optional<std::size_t> select(const codes::code_word& address) const;

 private:
  std::vector<codes::code_word> words_;
};

}  // namespace nwdec::decoder
