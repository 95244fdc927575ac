// cpuid probe + dispatch-path resolution (see util/cpu.h for the contract).
#include "util/cpu.h"

#include <atomic>
#include <cstdlib>
#include <mutex>

#include "util/error.h"
#include "util/rng_kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace nwdec::cpu {

namespace {

// cpuid leaf 1 ECX and leaf 7 subleaf 0 EBX feature bits (Intel SDM
// vol. 2A, CPUID), plus the XCR0 state-component bits the OS must have
// enabled for the wider register files to be usable.
constexpr std::uint32_t leaf1_ecx_osxsave = 1u << 27;
constexpr std::uint32_t leaf1_ecx_avx = 1u << 28;
constexpr std::uint32_t leaf7_ebx_avx2 = 1u << 5;
constexpr std::uint32_t leaf7_ebx_avx512f = 1u << 16;
constexpr std::uint32_t leaf7_ebx_avx512bw = 1u << 30;
constexpr std::uint64_t xcr0_ymm_state = 0x6;   // XMM + YMM
constexpr std::uint64_t xcr0_zmm_state = 0xe0;  // opmask + ZMM_Hi256 + Hi16_ZMM

}  // namespace

cpu_features features_from_registers(std::uint32_t max_leaf,
                                     std::uint32_t leaf1_ecx,
                                     std::uint32_t leaf7_ebx,
                                     std::uint64_t xcr0) {
  cpu_features f;
  const bool os_ymm = (leaf1_ecx & leaf1_ecx_osxsave) != 0 &&
                      (leaf1_ecx & leaf1_ecx_avx) != 0 &&
                      (xcr0 & xcr0_ymm_state) == xcr0_ymm_state;
  const bool has_leaf7 = max_leaf >= 7;
  f.avx2 = os_ymm && has_leaf7 && (leaf7_ebx & leaf7_ebx_avx2) != 0;
  const bool os_zmm = os_ymm && (xcr0 & xcr0_zmm_state) == xcr0_zmm_state;
  f.avx512f = os_zmm && has_leaf7 && (leaf7_ebx & leaf7_ebx_avx512f) != 0;
  f.avx512bw = f.avx512f && (leaf7_ebx & leaf7_ebx_avx512bw) != 0;
  return f;
}

namespace {

#if defined(__x86_64__) || defined(__i386__)
cpu_features probe() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  const unsigned max_leaf = __get_cpuid_max(0, nullptr);
  if (max_leaf < 1) return cpu_features{};
  __cpuid(1, eax, ebx, ecx, edx);
  const std::uint32_t leaf1_ecx = ecx;
  std::uint32_t leaf7_ebx = 0;
  if (max_leaf >= 7) {
    __cpuid_count(7, 0, eax, ebx, ecx, edx);
    leaf7_ebx = ebx;
  }
  std::uint64_t xcr0 = 0;
  if (leaf1_ecx & leaf1_ecx_osxsave) {
    // XGETBV(0); raw encoding so no -mxsave build flag is needed (the
    // instruction predates the intrinsic's flag gating and is legal to
    // execute whenever OSXSAVE is set).
    std::uint32_t lo = 0, hi = 0;
    __asm__ volatile(".byte 0x0f, 0x01, 0xd0" : "=a"(lo), "=d"(hi) : "c"(0));
    xcr0 = (static_cast<std::uint64_t>(hi) << 32) | lo;
  }
  return features_from_registers(max_leaf, leaf1_ecx, leaf7_ebx, xcr0);
}
#else
cpu_features probe() { return cpu_features{}; }
#endif

}  // namespace

const cpu_features& detect() {
  static const cpu_features probed = probe();
  return probed;
}

std::string to_string(const cpu_features& features) {
  std::string out;
  const auto add = [&out](bool set, const char* name) {
    if (!set) return;
    if (!out.empty()) out += ',';
    out += name;
  };
  add(features.avx2, "avx2");
  add(features.avx512f, "avx512f");
  add(features.avx512bw, "avx512bw");
  return out.empty() ? "none" : out;
}

const char* simd_path_name(simd_path path) {
  switch (path) {
    case simd_path::scalar:
      return "scalar";
    case simd_path::avx2:
      return "avx2";
    case simd_path::avx512:
      return "avx512";
  }
  return "scalar";
}

simd_path parse_simd_path(const std::string& name) {
  for (const simd_path path :
       {simd_path::scalar, simd_path::avx2, simd_path::avx512}) {
    if (name == simd_path_name(path)) return path;
  }
  throw invalid_argument_error("unknown SIMD path '" + name +
                               "' (valid: scalar, avx2, avx512)");
}

bool path_supported(const cpu_features& features, simd_path path) {
  switch (path) {
    case simd_path::scalar:
      return true;
    case simd_path::avx2:
      return features.avx2;
    case simd_path::avx512:
      return features.avx512f && features.avx512bw;
  }
  return false;
}

bool path_compiled(simd_path path) {
  // The per-path kernel table getters return nullptr exactly when the
  // build could not compile their ISA (no -mavx2 support, non-x86 target).
  // The rng and decoder table sets are gated by the same preprocessor
  // conditions, so the rng set -- visible from util -- answers for both.
  return detail::rng_kernel_table_for(path) != nullptr;
}

std::vector<simd_path> available_paths() {
  std::vector<simd_path> out;
  const cpu_features& features = detect();
  for (const simd_path path :
       {simd_path::scalar, simd_path::avx2, simd_path::avx512}) {
    if (path_compiled(path) && path_supported(features, path)) {
      out.push_back(path);
    }
  }
  return out;
}

namespace {

void require_available(simd_path path, const char* origin) {
  if (!path_compiled(path)) {
    throw invalid_argument_error(std::string(origin) + ": SIMD path '" +
                                 simd_path_name(path) +
                                 "' is not compiled into this binary");
  }
  if (!path_supported(detect(), path)) {
    throw invalid_argument_error(std::string(origin) + ": SIMD path '" +
                                 simd_path_name(path) +
                                 "' is not supported by this CPU (features: " +
                                 to_string(detect()) + ")");
  }
}

simd_path resolve_default_path() {
  if (const std::optional<simd_path> forced = env_simd_path()) return *forced;
  const std::vector<simd_path> paths = available_paths();
  return paths.empty() ? simd_path::scalar : paths.back();
}

// -1 = unresolved; otherwise the pinned simd_path value. A failed env
// resolution leaves it unresolved so the clear error repeats per call
// instead of poisoning the process with a half-initialized choice.
std::atomic<int>& active_slot() {
  static std::atomic<int> slot{-1};
  return slot;
}

}  // namespace

std::optional<simd_path> env_simd_path() {
  const char* raw = std::getenv("NWDEC_SIMD_PATH");
  if (raw == nullptr || raw[0] == '\0') return std::nullopt;
  simd_path path;
  try {
    path = parse_simd_path(raw);
  } catch (const invalid_argument_error& error) {
    throw invalid_argument_error(std::string("NWDEC_SIMD_PATH: ") +
                                 error.what());
  }
  require_available(path, "NWDEC_SIMD_PATH");
  return path;
}

simd_path active_path() {
  const int current = active_slot().load(std::memory_order_acquire);
  if (current >= 0) return static_cast<simd_path>(current);
  // Benign race: concurrent first calls resolve to the same value (the
  // resolution is a pure function of environment + build + CPU).
  const simd_path resolved = resolve_default_path();
  active_slot().store(static_cast<int>(resolved), std::memory_order_release);
  return resolved;
}

void force_path(simd_path path) {
  require_available(path, "force_path");
  active_slot().store(static_cast<int>(path), std::memory_order_release);
}

}  // namespace nwdec::cpu
