// Runtime CPU feature detection and SIMD dispatch-path selection.
//
// The hot kernels of the blocked Monte-Carlo engine -- the classify kernels
// in decoder/addressing and the bulk deviate conversions in util/rng -- are
// compiled several times, once per target ISA (scalar / AVX2 / AVX-512),
// into per-path function-pointer tables. One binary carries every
// path the compiler could build; a cpuid probe picks the widest one the
// running CPU supports, once, at first use. Every path performs the same
// IEEE operations per lane (mul, add, sub, ordered compares, one-rounding
// u64->double conversion), so results are bit-identical whichever path runs
// -- selection is a pure performance decision, never a results decision.
//
// Path resolution order (resolved once, then pinned):
//   1. the NWDEC_SIMD_PATH environment variable, when set
//      (scalar|avx2|avx512; an unknown value throws
//      invalid_argument_error naming the valid spellings),
//   2. otherwise the widest compiled-and-supported path.
// force_path() re-pins the choice at runtime for tests and benchmarks.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace nwdec::cpu {

/// The instruction-set extensions the dispatch paths care about.
struct cpu_features {
  bool avx2 = false;
  bool avx512f = false;
  bool avx512bw = false;
};

/// Decodes a feature set from raw cpuid / XGETBV register values -- the
/// pure, testable core of the probe. `max_leaf` is cpuid leaf 0's EAX
/// (highest supported leaf), `leaf1_ecx` is leaf 1's ECX feature word,
/// `leaf7_ebx` is leaf 7 subleaf 0's EBX (pass 0 when max_leaf < 7),
/// and `xcr0` is the XCR0 register (pass 0 when OSXSAVE is unavailable).
/// AVX2 and AVX-512 require not just the CPU bits but OS state support:
/// OSXSAVE + the AVX bit + XCR0 ymm state for AVX2, plus XCR0
/// opmask/zmm state for AVX-512 -- a kernel that does not context-switch
/// zmm registers makes the instructions unusable even on a capable CPU.
cpu_features features_from_registers(std::uint32_t max_leaf,
                                     std::uint32_t leaf1_ecx,
                                     std::uint32_t leaf7_ebx,
                                     std::uint64_t xcr0);

/// The running CPU's features, probed once and cached. Empty (all false)
/// on non-x86 builds.
const cpu_features& detect();

/// Comma-joined list of the set flags ("avx2,avx512f"), or "none".
std::string to_string(const cpu_features& features);

/// One dispatchable kernel implementation per value, ordered narrow to
/// wide. `avx512` means AVX-512F + AVX-512BW.
enum class simd_path {
  scalar = 0,
  avx2 = 1,
  avx512 = 2,
};

/// The lowercase spelling NWDEC_SIMD_PATH uses ("scalar", "avx2", ...).
const char* simd_path_name(simd_path path);

/// Parses a NWDEC_SIMD_PATH spelling; throws invalid_argument_error naming
/// the valid values on anything else (including case variants).
simd_path parse_simd_path(const std::string& name);

/// True when `path`'s instruction set is usable under `features`.
bool path_supported(const cpu_features& features, simd_path path);

/// True when this binary carries a kernel table for `path` (the compiler
/// supported the required -m flags at build time). scalar is always
/// compiled.
bool path_compiled(simd_path path);

/// The paths that are both compiled into this binary and supported by the
/// running CPU, in ascending (narrow to wide) order; always contains
/// scalar.
std::vector<simd_path> available_paths();

/// Fresh read of the NWDEC_SIMD_PATH override: nullopt when unset or
/// empty, the parsed path otherwise. Throws invalid_argument_error on an
/// unparsable value, and when the requested path is not compiled in or not
/// supported by this CPU -- a forced path silently degrading would defeat
/// its testing purpose.
std::optional<simd_path> env_simd_path();

/// The path the kernel dispatch tables currently select. Resolved once on
/// first use (see the file comment for the order) and cached; force_path
/// re-pins it.
simd_path active_path();

/// Re-pins the dispatch path (tests and benchmarks measuring specific
/// paths). Throws invalid_argument_error when `path` is not compiled in or
/// not supported by this CPU.
void force_path(simd_path path);

}  // namespace nwdec::cpu
