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
// The blocked kernels (conducts_block, addressable_block,
// addressable_group_block, window_margin_block) are runtime-SIMD-
// dispatched: one binary carries scalar / AVX2 / AVX-512
// instantiations and util/cpu picks the widest one the running CPU
// supports (NWDEC_SIMD_PATH overrides; see util/cpu.h). Every path
// performs the same IEEE operations per lane, so the chosen path never
// changes a result, only throughput.
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
/// both spans hold `regions` entries. The Monte-Carlo yield engine's
/// allocation-free inner loop (trial_context::operational_ok) calls this.
inline bool conducts(const double* realized_vt, const double* gate_voltages,
                     std::size_t regions) {
  for (std::size_t j = 0; j < regions; ++j) {
    if (gate_voltages[j] <= realized_vt[j]) return false;
  }
  return true;
}

/// Blocked voltage rule: one drive row evaluated against `lanes` realized
/// rows at once. The realized thresholds are a structure-of-arrays slab --
/// region j of lane t lives at realized_lanes[j * lane_stride + t] -- so
/// the lane body is a contiguous branch-free sweep the compiler can
/// vectorize. Lane t conducts iff gate[j] > vt for every region; the kernel
/// computes the conduction margin min_j (gate[j] - vt) per lane (exactly
/// equivalent: for finite doubles a > b iff a - b > 0, a nonzero
/// difference of doubles never rounds to zero). Writes
/// conducts_out[t] = 1 / 0 and returns true when any lane conducts.
/// Requires regions >= 1 and lanes >= 1.
bool conducts_block(const double* gate_voltages, const double* realized_lanes,
                    std::size_t lane_stride, std::size_t regions,
                    std::size_t lanes, std::uint8_t* conducts_out);

/// Whole-contact-group blocked kernel: addressable_out[t] becomes 1.0 when,
/// in lane t, nanowire `self` conducts under `gate_voltages` while every
/// other listed group member blocks (the operational criterion for one
/// address), else 0.0 -- a multiplication-ready lane mask. The slab holds
/// every nanowire's lanes: region j of nanowire r at
/// vt_lanes[(r * regions + j) * lane_stride + t]. `members` may include
/// `self` (it is skipped). Early-exit mask at the self boundary: when the
/// addressed nanowire blocks in every lane the whole member scan is
/// skipped -- the one reduction that reliably pays, since at high sigma
/// entire blocks die there. Member sweeps run straight-line: an all-lanes
/// exit almost never fires across a whole block mid-scan and its
/// reduction would cost more than it saves.
/// `margin_scratch` must hold 2 * lanes doubles. Returns true when any lane
/// stays addressable. Requires regions >= 1 and lanes >= 1.
bool addressable_block(const double* gate_voltages, const double* vt_lanes,
                       std::size_t lane_stride, std::size_t regions,
                       std::size_t lanes, std::size_t self,
                       const std::size_t* members, std::size_t member_count,
                       double* margin_scratch, double* addressable_out);

/// Whole-contact-group kernel: lane verdicts for every member of one
/// contact group in a single pass. Member k (nanowire row members[k]) is
/// addressable in lane t iff it conducts under its own address while every
/// other member blocks; out[k * out_stride + t] receives the 1.0 / 0.0
/// lane mask. Drive row of nanowire r starts at drive_table + r * regions;
/// the V_T slab is laid out as in addressable_block. Equivalent to one
/// addressable_block call per member, but the member-major sweep order
/// keeps each member's lane rows cache-hot while every drive row of the
/// group crosses them, so the slab is read ~twice per row instead of once
/// per (member, impostor) pair -- the difference between an L1- and an
/// L2-bound kernel at realistic group sizes. Members whose self margin is
/// already dead in every lane are skipped as addressees (early-exit mask);
/// they still sweep as impostors, exactly like the scalar path.
/// `margin_scratch` must hold (member_count + 1) * lanes doubles.
void addressable_group_block(const double* drive_table,
                             const double* vt_lanes, std::size_t lane_stride,
                             std::size_t regions, std::size_t lanes,
                             const std::size_t* members,
                             std::size_t member_count, double* margin_scratch,
                             double* out, std::size_t out_stride);

/// Blocked window-criterion kernel (the Monte-Carlo engine's mc_mode::
/// window): out[t] = 1.0 when lane t's realized V_T sits inside the
/// assignment window of every region, else 0.0. One nanowire's lane rows:
/// region j of lane t at vt_lanes_row[j * lane_stride + t]; `nominal` and
/// `low_guard` hold the nanowire's M window centers and lower guards
/// (-window_half_width, or -infinity where digit 0 exempts the lower
/// bound). Same running-min margin shape as the conduction kernels, and
/// dispatched through the same per-ISA tables. `margin` must hold `lanes`
/// doubles. Returns true when any lane passes. Requires regions >= 1 and
/// lanes >= 1.
bool window_margin_block(const double* vt_lanes_row, std::size_t lane_stride,
                         std::size_t lanes, const double* nominal,
                         const double* low_guard, double window_half_width,
                         std::size_t regions, double* margin, double* out);

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
