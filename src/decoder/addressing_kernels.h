// Internal per-path kernel tables behind the runtime SIMD dispatch of the
// blocked margin kernels (decoder/addressing.h) and the blocked window
// criterion (yield/trial_context).
//
// Each table is produced by one translation unit compiled for one target
// ISA -- addressing_kernels_{scalar,avx2,avx512}.cpp all include
// addressing_kernels_body.inc with different compiler flags -- and the
// public entry points in addressing.cpp pick a table through
// cpu::active_path(). Every path performs the same IEEE operations per
// lane (sub, min, ordered compares, blends, all with FP contraction
// disabled), so the tables are bit-identical in results and differ only in
// throughput.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/cpu.h"

namespace nwdec::decoder::detail {

struct kernel_table {
  const char* name;

  /// decoder::conducts_block's kernel (same contract; argument checks live
  /// in the public wrapper).
  bool (*conducts_block)(const double* gate_voltages,
                         const double* realized_lanes, std::size_t lane_stride,
                         std::size_t regions, std::size_t lanes,
                         std::uint8_t* conducts_out);

  /// decoder::addressable_block's kernel.
  bool (*addressable_block)(const double* gate_voltages,
                            const double* vt_lanes, std::size_t lane_stride,
                            std::size_t regions, std::size_t lanes,
                            std::size_t self, const std::size_t* members,
                            std::size_t member_count, double* margin_scratch,
                            double* addressable_out);

  /// decoder::addressable_group_block's kernel.
  void (*addressable_group_block)(const double* drive_table,
                                  const double* vt_lanes,
                                  std::size_t lane_stride, std::size_t regions,
                                  std::size_t lanes,
                                  const std::size_t* members,
                                  std::size_t member_count,
                                  double* margin_scratch, double* out,
                                  std::size_t out_stride);

  /// decoder::window_margin_block's kernel.
  bool (*window_margin_block)(const double* vt_lanes_row,
                              std::size_t lane_stride, std::size_t lanes,
                              const double* nominal, const double* low_guard,
                              double window_half_width, std::size_t regions,
                              double* margin, double* out);
};

/// Per-path table getters; nullptr when the build could not compile that
/// ISA. scalar is never null. Gated by the same preprocessor conditions as
/// the rng kernel tables (util/rng_kernels.h), which cpu::path_compiled
/// consults for both sets.
const kernel_table* scalar_kernel_table();
const kernel_table* avx2_kernel_table();
const kernel_table* avx512_kernel_table();

/// The table for `path`, or nullptr when that path is not compiled in.
const kernel_table* kernel_table_for(cpu::simd_path path);

/// The table cpu::active_path() selects. Throws logic_invariant_error if
/// the active path has no compiled table (build/dispatch skew).
const kernel_table& active_kernel_table();

}  // namespace nwdec::decoder::detail
