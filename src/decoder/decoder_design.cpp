#include "decoder/decoder_design.h"

#include "decoder/complexity.h"
#include "decoder/doping_profile.h"
#include "decoder/pattern_matrix.h"
#include "decoder/variability.h"
#include "util/error.h"

namespace nwdec::decoder {

decoder_design::decoder_design(std::shared_ptr<const codes::code> code,
                               std::size_t nanowires,
                               const device::technology& tech)
    // `code` is passed on as a copy of the pointer (not moved) because the
    // dose-table argument also reads code->radix and evaluation order
    // between the two arguments is unspecified.
    : decoder_design(code, nanowires, tech,
                     device::physical_dose_table(code->radix, tech)) {}

decoder_design::decoder_design(std::shared_ptr<const codes::code> code,
                               std::size_t nanowires,
                               const device::technology& tech,
                               device::dose_table doses)
    : code_(std::move(code)),
      tech_(tech),
      levels_(code_->radix, tech),
      doses_(device::validated_dose_table(std::move(doses))),
      pattern_(pattern_matrix(*code_, nanowires)),
      final_doping_(decoder::final_doping(pattern_, doses_)),
      step_doping_(decoder::step_doping(final_doping_)),
      dose_counts_(decoder::dose_count_matrix(step_doping_)),
      complexity_(decoder::fabrication_complexity(step_doping_)) {
  NWDEC_EXPECTS(doses_.size() >= code_->radix,
                "dose table must cover every digit value of the code");
}

decoder_design::decoder_design(codes::code code, std::size_t nanowires,
                               const device::technology& tech)
    : decoder_design(std::make_shared<const codes::code>(std::move(code)),
                     nanowires, tech) {}

decoder_design::decoder_design(codes::code code, std::size_t nanowires,
                               const device::technology& tech,
                               device::dose_table doses)
    : decoder_design(std::make_shared<const codes::code>(std::move(code)),
                     nanowires, tech, std::move(doses)) {}

matrix<double> decoder_design::variability() const {
  return variability_matrix(dose_counts_, tech_.sigma_vt);
}

matrix<double> decoder_design::region_stddev() const {
  return stddev_matrix(dose_counts_, tech_.sigma_vt);
}

std::size_t decoder_design::variability_norm_sigma_units() const {
  return decoder::variability_norm_sigma_units(dose_counts_);
}

double decoder_design::average_variability_sigma_units() const {
  return decoder::average_variability_sigma_units(dose_counts_);
}

}  // namespace nwdec::decoder
