#include "decoder/addressing.h"

#include <algorithm>
#include <cstdint>

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
                "active SIMD path has no compiled classify-kernel table");
  return *table;
}

}  // namespace detail

void conduction_masks(const double* deviates, std::size_t lane_stride,
                      std::size_t lanes, std::size_t cells,
                      const double* nominal, const double* noise_scale,
                      double sigma, const double* drive, unsigned radix,
                      std::uint64_t* masks) {
  NWDEC_EXPECTS(cells >= 1 && radix >= 1 && lanes >= 1,
                "conduction_masks needs cells, digits and lanes");
  NWDEC_EXPECTS(lane_stride >= lanes, "lane stride must cover every lane");
  detail::active_kernel_table().conduction_masks(
      deviates, lane_stride, lanes, cells, nominal, noise_scale, sigma, drive,
      radix, masks);
}

void window_masks(const double* deviates, std::size_t lane_stride,
                  std::size_t lanes, std::size_t nanowires,
                  std::size_t regions, const double* nominal,
                  const double* noise_scale, double sigma,
                  const double* low_guard, double window_half_width,
                  std::uint64_t* masks) {
  NWDEC_EXPECTS(nanowires >= 1 && regions >= 1 && lanes >= 1,
                "window_masks needs nanowires, regions and lanes");
  NWDEC_EXPECTS(lane_stride >= lanes, "lane stride must cover every lane");
  detail::active_kernel_table().window_masks(
      deviates, lane_stride, lanes, nanowires, regions, nominal, noise_scale,
      sigma, low_guard, window_half_width, masks);
}

std::vector<std::uint32_t> address_selectors(
    const matrix<codes::digit>& pattern, unsigned radix) {
  const std::size_t regions = pattern.cols();
  std::vector<std::uint32_t> selectors(pattern.rows() * regions);
  for (std::size_t r = 0; r < pattern.rows(); ++r) {
    const codes::digit* address = pattern.row_ptr(r);
    NWDEC_EXPECTS(std::all_of(address, address + regions,
                              [radix](codes::digit d) { return d < radix; }),
                  "pattern digit exceeds the radix");
    std::uint32_t* out = selectors.data() + r * regions;
    for (unsigned d = 0; d < radix; ++d) {
      for (std::size_t j = 0; j < regions; ++j) {
        if (address[j] == d) *out++ = static_cast<std::uint32_t>(j * radix + d);
      }
    }
  }
  return selectors;
}

void addressable_masks(const std::uint64_t* plane,
                       const std::uint32_t* selectors, std::size_t regions,
                       unsigned radix, const std::size_t* members,
                       std::size_t member_count, std::uint64_t* live) {
  // An impostor's first `head` selected words are ANDed unconditionally:
  // nearly every impostor dies there, and a fixed-length prefix is cheaper
  // than a loop exit that mispredicts where it dies. The remaining words,
  // and the scan over impostors, stop as soon as their running AND is
  // zero: a lane, once dead, cannot come back.
  const std::size_t row_words = regions * radix;
  const std::size_t head = regions < 4 ? regions : 4;
  for (std::size_t k = 0; k < member_count; ++k) {
    const std::size_t self = members[k];
    const std::uint32_t* select = selectors + self * regions;
    std::uint64_t alive = live[self];
    const std::uint64_t* own = plane + self * row_words;
    for (std::size_t q = 0; q < regions && alive != 0; ++q) {
      alive &= own[select[q]];
    }
    for (std::size_t o = 0; o < member_count && alive != 0; ++o) {
      if (members[o] == self) continue;
      const std::uint64_t* other = plane + members[o] * row_words;
      std::uint64_t impostor = alive;
      std::size_t q = 0;
      for (; q < head; ++q) impostor &= other[select[q]];
      for (; q < regions && impostor != 0; ++q) impostor &= other[select[q]];
      alive &= ~impostor;
    }
    live[self] = alive;
  }
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
