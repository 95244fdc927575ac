#include "codes/factory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <string>
#include <tuple>
#include <vector>

#include "codes/arrangement.h"
#include "codes/gray_code.h"
#include "codes/metrics.h"
#include "util/error.h"

namespace nwdec::codes {
namespace {

TEST(FactoryTest, TreeFamilySizesAndShape) {
  const code tc = make_code(code_type::tree, 2, 8);
  EXPECT_EQ(tc.size(), 16u);  // 2^(8/2)
  EXPECT_EQ(tc.length, 8u);
  EXPECT_TRUE(tc.reflected);

  const code gc3 = make_code(code_type::gray, 3, 8);
  EXPECT_EQ(gc3.size(), 81u);  // 3^4
}

TEST(FactoryTest, HotFamilySizes) {
  EXPECT_EQ(make_code(code_type::hot, 2, 4).size(), 6u);
  EXPECT_EQ(make_code(code_type::hot, 2, 6).size(), 20u);
  EXPECT_EQ(make_code(code_type::hot, 2, 8).size(), 70u);
  EXPECT_EQ(make_code(code_type::arranged_hot, 2, 8).size(), 70u);
  EXPECT_EQ(make_code(code_type::hot, 3, 6).size(), 90u);
}

TEST(FactoryTest, IncompatibleShapesThrow) {
  EXPECT_THROW(make_code(code_type::tree, 2, 7), invalid_argument_error);
  EXPECT_THROW(make_code(code_type::hot, 3, 8), invalid_argument_error);
  EXPECT_THROW(make_code(code_type::gray, 1, 8), invalid_argument_error);
}

// A bad grid point handed to the sweep engine must fail naming the exact
// (type, radix, full_length) triple, not with a generic message.
TEST(FactoryTest, DiagnosticsNameTheOffendingTriple) {
  const auto message_of = [](code_type type, unsigned radix,
                             std::size_t length) -> std::string {
    try {
      make_code(type, radix, length);
    } catch (const invalid_argument_error& diagnostic) {
      return diagnostic.what();
    }
    return "";
  };

  const std::string odd_tree = message_of(code_type::balanced_gray, 2, 9);
  EXPECT_NE(odd_tree.find("BGC"), std::string::npos) << odd_tree;
  EXPECT_NE(odd_tree.find("radix 2"), std::string::npos) << odd_tree;
  EXPECT_NE(odd_tree.find("full length 9"), std::string::npos) << odd_tree;
  EXPECT_NE(odd_tree.find("even"), std::string::npos) << odd_tree;

  const std::string bad_hot = message_of(code_type::arranged_hot, 3, 8);
  EXPECT_NE(bad_hot.find("AHC"), std::string::npos) << bad_hot;
  EXPECT_NE(bad_hot.find("radix 3"), std::string::npos) << bad_hot;
  EXPECT_NE(bad_hot.find("full length 8"), std::string::npos) << bad_hot;
  EXPECT_NE(bad_hot.find("divisible"), std::string::npos) << bad_hot;

  const std::string bad_radix = message_of(code_type::gray, 1, 8);
  EXPECT_NE(bad_radix.find("GC"), std::string::npos) << bad_radix;
  EXPECT_NE(bad_radix.find("radix 1"), std::string::npos) << bad_radix;
  EXPECT_NE(bad_radix.find("two logic values"), std::string::npos)
      << bad_radix;

  const std::string too_short = message_of(code_type::tree, 2, 1);
  EXPECT_NE(too_short.find("TC"), std::string::npos) << too_short;
  EXPECT_NE(too_short.find("full length 1"), std::string::npos) << too_short;
}

TEST(FactoryTest, GrayFamilyKeepsTwoTransitionSteps) {
  // One free-digit change plus its mirrored complement change.
  EXPECT_TRUE(is_gray_sequence(make_code(code_type::gray, 2, 8).words, 2,
                               /*cyclic=*/true));
  EXPECT_TRUE(is_gray_sequence(make_code(code_type::balanced_gray, 2, 8).words,
                               2, /*cyclic=*/true));
  EXPECT_TRUE(is_gray_sequence(make_code(code_type::gray, 3, 6).words, 2,
                               /*cyclic=*/false));
}

TEST(FactoryTest, ArrangedHotKeepsTwoTransitionSteps) {
  EXPECT_TRUE(is_gray_sequence(make_code(code_type::arranged_hot, 2, 6).words,
                               2, /*cyclic=*/true));
}

TEST(FactoryTest, GrayAndTreeShareTheSpace) {
  std::vector<code_word> tree = make_code(code_type::tree, 3, 6).words;
  std::vector<code_word> gray = make_code(code_type::gray, 3, 6).words;
  std::sort(tree.begin(), tree.end());
  std::sort(gray.begin(), gray.end());
  EXPECT_EQ(tree, gray);
}

TEST(FactoryTest, PatternSequenceCycles) {
  const code hc = make_code(code_type::hot, 2, 4);  // 6 words
  const std::vector<code_word> seq = hc.pattern_sequence(14);
  ASSERT_EQ(seq.size(), 14u);
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i], hc.words[i % 6]) << i;
  }
}

// Every factory code must pass full validation: distinct antichain words of
// the declared shape. Parameterized across the whole experiment grid.
using grid_param = std::tuple<code_type, unsigned, std::size_t>;

std::string grid_name(const ::testing::TestParamInfo<grid_param>& info) {
  return code_type_name(std::get<0>(info.param)) + "_n" +
         std::to_string(std::get<1>(info.param)) + "_M" +
         std::to_string(std::get<2>(info.param));
}

// The cartesian product types x radixes x lengths, lengths varying fastest.
std::vector<grid_param> grid(std::initializer_list<code_type> types,
                             std::initializer_list<unsigned> radixes,
                             std::initializer_list<std::size_t> lengths) {
  std::vector<grid_param> out;
  for (const code_type type : types) {
    for (const unsigned radix : radixes) {
      for (const std::size_t length : lengths) {
        out.emplace_back(type, radix, length);
      }
    }
  }
  return out;
}

std::vector<grid_param> tree_family() {
  return grid({code_type::tree, code_type::gray}, {2, 3}, {4, 6, 8, 10});
}

// The balanced-gray search is exponential in the space size; the ternary
// M = 10 space (243 words) takes minutes, and no experiment uses it, so
// the balanced grid stops at M = 8 for radix 3.
std::vector<grid_param> balanced_family() {
  std::vector<grid_param> out =
      grid({code_type::balanced_gray}, {2}, {4, 6, 8, 10});
  for (const grid_param& ternary :
       grid({code_type::balanced_gray}, {3}, {4, 6, 8})) {
    out.push_back(ternary);
  }
  return out;
}

class FactoryGridTest : public ::testing::TestWithParam<grid_param> {};

TEST_P(FactoryGridTest, ProducesValidCodes) {
  const auto [type, radix, length] = GetParam();
  const code c = make_code(type, radix, length);
  EXPECT_NO_THROW(validate_code(c));
  EXPECT_EQ(c.type, type);
  EXPECT_EQ(c.radix, radix);
  EXPECT_EQ(c.length, length);
}

INSTANTIATE_TEST_SUITE_P(TreeFamily, FactoryGridTest,
                         ::testing::ValuesIn(tree_family()), grid_name);
INSTANTIATE_TEST_SUITE_P(BalancedFamily, FactoryGridTest,
                         ::testing::ValuesIn(balanced_family()), grid_name);
INSTANTIATE_TEST_SUITE_P(
    HotFamily, FactoryGridTest,
    ::testing::ValuesIn(grid({code_type::hot, code_type::arranged_hot}, {2},
                             {4, 6, 8, 10})),
    grid_name);
// Spaces of 4,096 to 48,620 words: the pairwise antichain loop took
// seconds to minutes here, the digit-sum proof milliseconds.
INSTANTIATE_TEST_SUITE_P(
    LargeHotFamily, FactoryGridTest,
    ::testing::ValuesIn(grid({code_type::hot, code_type::arranged_hot}, {2},
                             {16, 18})),
    grid_name);
INSTANTIATE_TEST_SUITE_P(
    LargeTreeFamily, FactoryGridTest,
    ::testing::ValuesIn(grid({code_type::tree, code_type::gray}, {2}, {24})),
    grid_name);

// The digit-sum proof against the pairwise definition: every factory code
// takes the fast route (distinct words, one digit sum), and the pairwise
// loop agrees with its verdict.
class AntichainOracleTest : public ::testing::TestWithParam<grid_param> {};

TEST_P(AntichainOracleTest, DigitSumProofAgreesWithPairwiseLoop) {
  const auto [type, radix, length] = GetParam();
  const code c = make_code(type, radix, length);
  EXPECT_TRUE(share_one_digit_sum(c.words));
  EXPECT_TRUE(all_distinct(c.words));
  EXPECT_TRUE(is_antichain(c.words));
  EXPECT_TRUE(is_antichain_pairwise(c.words));
}

INSTANTIATE_TEST_SUITE_P(TreeFamily, AntichainOracleTest,
                         ::testing::ValuesIn(tree_family()), grid_name);
INSTANTIATE_TEST_SUITE_P(BalancedFamily, AntichainOracleTest,
                         ::testing::ValuesIn(balanced_family()), grid_name);
INSTANTIATE_TEST_SUITE_P(
    HotFamily, AntichainOracleTest,
    ::testing::ValuesIn(grid({code_type::hot, code_type::arranged_hot}, {2},
                             {4, 6, 8, 10, 12, 14})),
    grid_name);
INSTANTIATE_TEST_SUITE_P(
    LongTreeFamily, AntichainOracleTest,
    ::testing::ValuesIn(grid({code_type::tree, code_type::gray}, {2},
                             {12, 14, 16, 18, 20})),
    grid_name);

}  // namespace
}  // namespace nwdec::codes
