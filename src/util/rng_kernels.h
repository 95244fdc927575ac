// Internal per-path tables for the bulk deviate conversions behind
// block_rng (util/rng.h): tempering a run of raw mt19937_64 state words and
// converting them to canonical doubles (and polar-pair candidates) in bulk.
//
// Each table is produced by one translation unit compiled for one target
// ISA -- rng_kernels_{scalar,avx2,avx512}.cpp all include
// rng_kernels_body.inc with different compiler flags -- and rng.cpp picks a
// table through cpu::active_path(). Every path performs the identical IEEE
// operations per word (the two-halves u64->double conversion with its
// single rounding, the min clamp, the 2u-1 affine map, mul + add for r2,
// all with FP contraction disabled), so the converted values are
// bit-identical on every path; only throughput differs.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/cpu.h"

namespace nwdec::detail {

struct rng_kernel_table {
  const char* name;

  /// out[k] = to_unit(temper(words[k])) for k in [0, count) -- the
  /// canonical conversion of `count` upcoming raw state words, without
  /// advancing any engine state (tempering is pure).
  void (*units_from_words)(const std::uint64_t* words, std::size_t count,
                           double* out);

  /// Polar-pair candidates from 2 * `pairs` upcoming raw state words:
  /// px[p] = 2*unit(words[2p]) - 1, py[p] = 2*unit(words[2p+1]) - 1,
  /// pr2[p] = px^2 + py^2. Requires pairs <= 64 (the callers' peek window
  /// bound; implementations may use fixed stack staging of that size).
  void (*pairs_from_words)(const std::uint64_t* words, std::size_t pairs,
                           double* px, double* py, double* pr2);
};

/// Per-path table getters; nullptr when the build could not compile that
/// ISA (missing -m flag support, non-x86 target). scalar is never null.
const rng_kernel_table* scalar_rng_kernel_table();
const rng_kernel_table* avx2_rng_kernel_table();
const rng_kernel_table* avx512_rng_kernel_table();

/// The table for `path`, or nullptr when that path is not compiled in.
const rng_kernel_table* rng_kernel_table_for(cpu::simd_path path);

/// The table cpu::active_path() selects. Throws logic_invariant_error if
/// the active path has no compiled table (build/dispatch skew).
const rng_kernel_table& active_rng_kernel_table();

}  // namespace nwdec::detail
