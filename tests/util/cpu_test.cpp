#include "util/cpu.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "util/error.h"

namespace nwdec {
namespace {

// Register masks mirroring the decode in util/cpu.cpp -- the tests build
// synthetic cpuid words from these so the pure decoder can be exercised on
// feature combinations this machine cannot produce.
constexpr std::uint32_t kOsxsave = 1u << 27;
constexpr std::uint32_t kAvx = 1u << 28;
constexpr std::uint32_t kAvx2 = 1u << 5;
constexpr std::uint32_t kAvx512f = 1u << 16;
constexpr std::uint32_t kAvx512bw = 1u << 30;
constexpr std::uint64_t kXcr0Ymm = 0x6;
constexpr std::uint64_t kXcr0Zmm = 0xe0;

cpu::cpu_features decode(std::uint32_t max_leaf, std::uint32_t leaf1_ecx,
                         std::uint32_t leaf7_ebx, std::uint64_t xcr0) {
  return cpu::features_from_registers(max_leaf, leaf1_ecx, leaf7_ebx, xcr0);
}

// RAII guards so the tests leave the process-global dispatch state and the
// NWDEC_SIMD_PATH variable exactly as they found them.
struct path_guard {
  cpu::simd_path saved = cpu::active_path();
  ~path_guard() { cpu::force_path(saved); }
};

struct env_guard {
  std::optional<std::string> saved;
  env_guard() {
    const char* value = std::getenv("NWDEC_SIMD_PATH");
    if (value != nullptr) saved = value;
  }
  ~env_guard() {
    if (saved.has_value()) {
      setenv("NWDEC_SIMD_PATH", saved->c_str(), 1);
    } else {
      unsetenv("NWDEC_SIMD_PATH");
    }
  }
};

TEST(CpuFeaturesTest, FullFeatureMachineDecodesEverything) {
  const cpu::cpu_features f = decode(7, kOsxsave | kAvx,
                                     kAvx2 | kAvx512f | kAvx512bw,
                                     kXcr0Ymm | kXcr0Zmm);
  EXPECT_TRUE(f.avx2);
  EXPECT_TRUE(f.avx512f);
  EXPECT_TRUE(f.avx512bw);
  EXPECT_EQ(cpu::to_string(f), "avx2,avx512f,avx512bw");
}

TEST(CpuFeaturesTest, NoOsxsaveMasksAllAvx) {
  // The CPU advertises AVX2/AVX-512 but the OS never enabled XSAVE: the
  // extended state is unusable, so nothing survives.
  const cpu::cpu_features f = decode(7, kAvx, kAvx2 | kAvx512f | kAvx512bw,
                                     kXcr0Ymm | kXcr0Zmm);
  EXPECT_FALSE(f.avx2);
  EXPECT_FALSE(f.avx512f);
  EXPECT_FALSE(f.avx512bw);
}

TEST(CpuFeaturesTest, MissingZmmStateMasksAvx512ButNotAvx2) {
  // A kernel that context-switches ymm but not zmm/opmask state (common in
  // VMs): AVX2 stays usable, AVX-512 must be reported off.
  const cpu::cpu_features f = decode(
      7, kOsxsave | kAvx, kAvx2 | kAvx512f | kAvx512bw, kXcr0Ymm);
  EXPECT_TRUE(f.avx2);
  EXPECT_FALSE(f.avx512f);
  EXPECT_FALSE(f.avx512bw);
}

TEST(CpuFeaturesTest, MaxLeafBelowSevenIgnoresLeaf7Bits) {
  // Pre-2013 CPUs stop at leaf < 7; whatever garbage sits in the leaf-7
  // word must not be believed.
  const cpu::cpu_features f = decode(4, kOsxsave | kAvx,
                                     kAvx2 | kAvx512f | kAvx512bw,
                                     kXcr0Ymm | kXcr0Zmm);
  EXPECT_FALSE(f.avx2);
  EXPECT_FALSE(f.avx512f);
}

TEST(CpuFeaturesTest, Avx512bwRequiresAvx512f) {
  const cpu::cpu_features f =
      decode(7, kOsxsave | kAvx, kAvx2 | kAvx512bw, kXcr0Ymm | kXcr0Zmm);
  EXPECT_FALSE(f.avx512f);
  EXPECT_FALSE(f.avx512bw);
}

TEST(CpuFeaturesTest, NoFeatureBitsDecodeAsNone) {
  const cpu::cpu_features f = decode(7, 0, 0, 0);
  EXPECT_FALSE(f.avx2);
  EXPECT_EQ(cpu::to_string(f), "none");
}

TEST(SimdPathTest, NamesRoundTripThroughParse) {
  for (const cpu::simd_path path :
       {cpu::simd_path::scalar, cpu::simd_path::avx2,
        cpu::simd_path::avx512}) {
    EXPECT_EQ(cpu::parse_simd_path(cpu::simd_path_name(path)), path);
  }
}

TEST(SimdPathTest, ParseRejectsUnknownAndCaseVariants) {
  for (const char* bad : {"", "AVX2", "Scalar", "avx-512", "sse", "sse2",
                          "avx512vl", " avx2", "avx2 "}) {
    EXPECT_THROW(cpu::parse_simd_path(bad), invalid_argument_error)
        << "'" << bad << "'";
  }
  try {
    cpu::parse_simd_path("turbo");
    FAIL() << "expected invalid_argument_error";
  } catch (const invalid_argument_error& e) {
    // The message must name the offender and the valid spellings.
    const std::string what = e.what();
    EXPECT_NE(what.find("turbo"), std::string::npos);
    EXPECT_NE(what.find("scalar, avx2, avx512"), std::string::npos);
  }
}

TEST(SimdPathTest, PathSupportedFollowsTheFeatureLadder) {
  cpu::cpu_features none;
  EXPECT_TRUE(cpu::path_supported(none, cpu::simd_path::scalar));
  EXPECT_FALSE(cpu::path_supported(none, cpu::simd_path::avx2));

  cpu::cpu_features avx2_box;
  avx2_box.avx2 = true;
  EXPECT_TRUE(cpu::path_supported(avx2_box, cpu::simd_path::avx2));
  EXPECT_FALSE(cpu::path_supported(avx2_box, cpu::simd_path::avx512));

  cpu::cpu_features avx512f_only = avx2_box;
  avx512f_only.avx512f = true;  // F without BW is not enough for avx512
  EXPECT_FALSE(cpu::path_supported(avx512f_only, cpu::simd_path::avx512));

  cpu::cpu_features full = avx512f_only;
  full.avx512bw = true;
  EXPECT_TRUE(cpu::path_supported(full, cpu::simd_path::avx512));
}

TEST(SimdPathTest, AvailablePathsStartWithScalarAndAscend) {
  const std::vector<cpu::simd_path> paths = cpu::available_paths();
  ASSERT_FALSE(paths.empty());
  EXPECT_EQ(paths.front(), cpu::simd_path::scalar);
  for (std::size_t k = 0; k + 1 < paths.size(); ++k) {
    EXPECT_LT(static_cast<int>(paths[k]), static_cast<int>(paths[k + 1]));
  }
  for (const cpu::simd_path path : paths) {
    EXPECT_TRUE(cpu::path_compiled(path));
    EXPECT_TRUE(cpu::path_supported(cpu::detect(), path));
  }
}

TEST(SimdPathTest, ScalarIsAlwaysCompiled) {
  EXPECT_TRUE(cpu::path_compiled(cpu::simd_path::scalar));
}

TEST(SimdPathTest, EnvOverrideReadsFreshAndValidates) {
  env_guard restore_env;
  unsetenv("NWDEC_SIMD_PATH");
  EXPECT_EQ(cpu::env_simd_path(), std::nullopt);
  setenv("NWDEC_SIMD_PATH", "", 1);
  EXPECT_EQ(cpu::env_simd_path(), std::nullopt);
  setenv("NWDEC_SIMD_PATH", "scalar", 1);
  EXPECT_EQ(cpu::env_simd_path(), cpu::simd_path::scalar);
  setenv("NWDEC_SIMD_PATH", "warp9", 1);
  EXPECT_THROW(cpu::env_simd_path(), invalid_argument_error);
}

TEST(SimdPathTest, ForcePathRepinsAndRoundTrips) {
  path_guard restore;
  for (const cpu::simd_path path : cpu::available_paths()) {
    cpu::force_path(path);
    EXPECT_EQ(cpu::active_path(), path) << cpu::simd_path_name(path);
  }
}

TEST(SimdPathTest, ForcePathRejectsUnavailable) {
  // Forcing an uncompiled or unsupported path must throw, never silently
  // degrade: the available set is exactly the forceable set.
  const std::vector<cpu::simd_path> available = cpu::available_paths();
  for (const cpu::simd_path path :
       {cpu::simd_path::avx2, cpu::simd_path::avx512}) {
    bool is_available = false;
    for (const cpu::simd_path a : available) is_available |= a == path;
    if (is_available) continue;
    EXPECT_THROW(cpu::force_path(path), invalid_argument_error)
        << cpu::simd_path_name(path);
  }
}

TEST(SimdPathTest, ActivePathIsAvailable) {
  const cpu::simd_path active = cpu::active_path();
  bool found = false;
  for (const cpu::simd_path path : cpu::available_paths()) {
    found |= path == active;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace nwdec
