#include "decoder/addressing.h"

#include "decoder/addressing_kernels.h"
#include "util/cpu.h"
#include "util/error.h"

namespace nwdec::decoder {

bool conducts(const codes::code_word& pattern,
              const codes::code_word& address) {
  return pattern.componentwise_le(address);
}

bool conducts(const std::vector<double>& realized_vt,
              const std::vector<double>& gate_voltages) {
  NWDEC_EXPECTS(realized_vt.size() == gate_voltages.size(),
                "one gate voltage per doping region required");
  for (std::size_t j = 0; j < realized_vt.size(); ++j) {
    if (gate_voltages[j] <= realized_vt[j]) return false;
  }
  return true;
}

namespace detail {

const kernel_table* kernel_table_for(cpu::simd_path path) {
  switch (path) {
    case cpu::simd_path::scalar:
      return scalar_kernel_table();
    case cpu::simd_path::avx2:
      return avx2_kernel_table();
    case cpu::simd_path::avx512:
      return avx512_kernel_table();
  }
  return scalar_kernel_table();
}

const kernel_table& active_kernel_table() {
  const kernel_table* table = kernel_table_for(cpu::active_path());
  // active_path() only hands out compiled paths (cpu::path_compiled gates
  // on the identically-conditioned rng tables); a null table here means
  // the two kernel sets' build gating diverged.
  NWDEC_ENSURES(table != nullptr,
                "active SIMD path has no compiled margin-kernel table");
  return *table;
}

}  // namespace detail

bool conducts_block(const double* gate_voltages, const double* realized_lanes,
                    std::size_t lane_stride, std::size_t regions,
                    std::size_t lanes, std::uint8_t* conducts_out) {
  NWDEC_EXPECTS(regions >= 1 && lanes >= 1,
                "conducts_block needs at least one region and one lane");
  NWDEC_EXPECTS(lane_stride >= lanes,
                "lane stride must cover every lane");
  return detail::active_kernel_table().conducts_block(
      gate_voltages, realized_lanes, lane_stride, regions, lanes,
      conducts_out);
}

bool addressable_block(const double* gate_voltages, const double* vt_lanes,
                       std::size_t lane_stride, std::size_t regions,
                       std::size_t lanes, std::size_t self,
                       const std::size_t* members, std::size_t member_count,
                       double* margin_scratch, double* addressable_out) {
  NWDEC_EXPECTS(regions >= 1 && lanes >= 1,
                "addressable_block needs at least one region and one lane");
  return detail::active_kernel_table().addressable_block(
      gate_voltages, vt_lanes, lane_stride, regions, lanes, self, members,
      member_count, margin_scratch, addressable_out);
}

void addressable_group_block(const double* drive_table,
                             const double* vt_lanes, std::size_t lane_stride,
                             std::size_t regions, std::size_t lanes,
                             const std::size_t* members,
                             std::size_t member_count, double* margin_scratch,
                             double* out, std::size_t out_stride) {
  NWDEC_EXPECTS(member_count >= 1,
                "a contact group holds at least one member");
  NWDEC_EXPECTS(regions >= 1 && lanes >= 1,
                "addressable_group_block needs regions and lanes");
  detail::active_kernel_table().addressable_group_block(
      drive_table, vt_lanes, lane_stride, regions, lanes, members,
      member_count, margin_scratch, out, out_stride);
}

bool window_margin_block(const double* vt_lanes_row, std::size_t lane_stride,
                         std::size_t lanes, const double* nominal,
                         const double* low_guard, double window_half_width,
                         std::size_t regions, double* margin, double* out) {
  NWDEC_EXPECTS(regions >= 1 && lanes >= 1,
                "window_margin_block needs at least one region and one lane");
  return detail::active_kernel_table().window_margin_block(
      vt_lanes_row, lane_stride, lanes, nominal, low_guard,
      window_half_width, regions, margin, out);
}

std::vector<double> drive_pattern(const codes::code_word& w,
                                  const device::vt_levels& levels) {
  std::vector<double> out;
  drive_pattern_into(w, levels, out);
  return out;
}

void drive_pattern_into(const codes::code_word& w,
                        const device::vt_levels& levels,
                        std::vector<double>& out) {
  NWDEC_EXPECTS(w.radix() == levels.radix(),
                "address radix must match the level count");
  out.resize(w.length());
  for (std::size_t j = 0; j < w.length(); ++j) {
    out[j] = levels.drive_voltage(w.at(j));
  }
}

std::vector<std::size_t> addressed_rows(const matrix<codes::digit>& pattern,
                                        unsigned radix,
                                        const codes::code_word& address) {
  NWDEC_EXPECTS(pattern.cols() == address.length(),
                "address length must match the region count");
  NWDEC_EXPECTS(address.radix() == radix,
                "address radix must match the pattern radix");
  // Compare row digits in place against the flat pattern buffer; building a
  // code_word per row would allocate O(rows) times per call.
  const std::size_t regions = pattern.cols();
  const codes::digit* address_digits = address.digits().data();
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < pattern.rows(); ++i) {
    if (codes::componentwise_le(pattern.row_ptr(i), address_digits, regions)) {
      out.push_back(i);
    }
  }
  return out;
}

bool uniquely_addressable(const std::vector<codes::code_word>& words) {
  for (const codes::code_word& address : words) {
    std::size_t selected = 0;
    for (const codes::code_word& pattern : words) {
      if (conducts(pattern, address)) ++selected;
      if (selected > 1) return false;
    }
    if (selected != 1) return false;
  }
  return true;
}

address_table::address_table(std::vector<codes::code_word> words)
    : words_(std::move(words)) {
  NWDEC_EXPECTS(!words_.empty(), "address table needs at least one word");
  NWDEC_EXPECTS(uniquely_addressable(words_),
                "the word set is not uniquely addressable (not an antichain)");
}

const codes::code_word& address_table::address_of(std::size_t index) const {
  NWDEC_EXPECTS(index < words_.size(), "nanowire index out of range");
  return words_[index];
}

std::optional<std::size_t> address_table::select(
    const codes::code_word& address) const {
  // A valid selection turns on exactly one nanowire; an address that makes
  // several conduct (e.g. the all-high word) selects nothing usable.
  std::optional<std::size_t> selected;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if (conducts(words_[i], address)) {
      if (selected.has_value()) return std::nullopt;
      selected = i;
    }
  }
  return selected;
}

}  // namespace nwdec::decoder
