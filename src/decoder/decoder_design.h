// decoder_design: the facade tying a code choice to every matrix and cost
// function of the paper for one half cave.
//
// Construction runs the full analytical pipeline once:
//   code + N  ->  P  ->  D = h(P)  ->  S  ->  { Phi, nu, Sigma }
// and keeps the intermediate matrices available for inspection, testing,
// the process simulator (which consumes S) and the yield analysis (which
// consumes nu).
//
// The design shares its code: it holds the code by pointer to const, so
// every design built from one code -- the sweep engine builds one per
// half-cave size N -- keeps a single copy of the words.
#pragma once

#include <cstddef>
#include <memory>

#include "codes/code_space.h"
#include "device/doping_map.h"
#include "device/tech_params.h"
#include "device/vt_levels.h"
#include "util/matrix.h"

namespace nwdec::decoder {

/// Immutable analysis of one half-cave decoder.
class decoder_design {
 public:
  /// Analyzes `nanowires` nanowires patterned with the arranged `code`
  /// under technology `tech`. The dose table is derived from the device
  /// model; pass a custom table with the other constructor to reproduce
  /// the paper's worked examples.
  decoder_design(std::shared_ptr<const codes::code> code,
                 std::size_t nanowires, const device::technology& tech);

  /// Same, but with an explicit digit->doping table (cm^-3, strictly
  /// increasing); the table length must be >= the code radix.
  decoder_design(std::shared_ptr<const codes::code> code,
                 std::size_t nanowires, const device::technology& tech,
                 device::dose_table doses);

  /// The two constructors above for a code the design owns alone.
  decoder_design(codes::code code, std::size_t nanowires,
                 const device::technology& tech);
  decoder_design(codes::code code, std::size_t nanowires,
                 const device::technology& tech, device::dose_table doses);

  /// The arranged code in use.
  const codes::code& code() const { return *code_; }
  /// N: nanowires per half cave.
  std::size_t nanowire_count() const { return pattern_.rows(); }
  /// M: doping regions per nanowire (full code length).
  std::size_t region_count() const { return pattern_.cols(); }
  /// The technology the analysis ran under.
  const device::technology& tech() const { return tech_; }
  /// Nominal V_T levels.
  const device::vt_levels& levels() const { return levels_; }
  /// Digit -> doping table (h restricted to digit values).
  const device::dose_table& doses() const { return doses_; }

  /// Pattern matrix P (Definition 1).
  const matrix<codes::digit>& pattern() const { return pattern_; }
  /// Final doping matrix D (Definition 2).
  const matrix<double>& final_doping() const { return final_doping_; }
  /// Step doping matrix S (Definition 3).
  const matrix<double>& step_doping() const { return step_doping_; }
  /// Dose-count matrix nu (Definition 5).
  const matrix<std::size_t>& dose_counts() const { return dose_counts_; }

  /// Phi: total extra lithography/doping steps (Definition 4).
  std::size_t fabrication_complexity() const { return complexity_; }
  /// Sigma in V^2.
  matrix<double> variability() const;
  /// sqrt(Sigma) in volts, per region; input to the yield model.
  matrix<double> region_stddev() const;
  /// ||Sigma||_1 in units of sigma_T^2 (i.e. sum of nu).
  std::size_t variability_norm_sigma_units() const;
  /// ||Sigma||_1 / (N*M) in units of sigma_T^2.
  double average_variability_sigma_units() const;

 private:
  std::shared_ptr<const codes::code> code_;
  device::technology tech_;
  device::vt_levels levels_;
  device::dose_table doses_;
  matrix<codes::digit> pattern_;
  matrix<double> final_doping_;
  matrix<double> step_doping_;
  matrix<std::size_t> dose_counts_;
  std::size_t complexity_;
};

}  // namespace nwdec::decoder
