#include "codes/metrics.h"

#include <gtest/gtest.h>

#include "codes/factory.h"
#include "codes/gray_code.h"
#include "codes/tree_code.h"
#include "util/error.h"

namespace nwdec::codes {
namespace {

TEST(TransitionAnalysisTest, GrayCodeStats) {
  const std::vector<code_word> gray = gray_code_words(2, 3);
  const transition_stats stats = analyze_transitions(gray, /*cyclic=*/true);
  EXPECT_EQ(stats.total, 8u);
  EXPECT_DOUBLE_EQ(stats.mean_per_step, 1.0);
  EXPECT_EQ(stats.max_per_step, 1u);
  // Reflected binary Gray: bit 0 toggles twice, bit 2 toggles 4 times...
  EXPECT_EQ(stats.per_digit, (std::vector<std::size_t>{2, 2, 4}));
  EXPECT_EQ(stats.digit_spread, 2u);
}

TEST(TransitionAnalysisTest, TreeCodeHasCarryBursts) {
  const std::vector<code_word> tree = tree_code_words(2, 3);
  const transition_stats stats = analyze_transitions(tree, /*cyclic=*/false);
  EXPECT_EQ(stats.max_per_step, 3u);  // 011 -> 100
  EXPECT_GT(stats.mean_per_step, 1.0);
}

TEST(AntichainTest, PlainTreeCodeIsNotAnAntichain) {
  EXPECT_FALSE(is_antichain(tree_code_words(2, 3)));
}

TEST(AntichainTest, ReflectedTreeCodeIsAnAntichain) {
  EXPECT_TRUE(is_antichain(reflect_words(tree_code_words(2, 3))));
  EXPECT_TRUE(is_antichain(reflect_words(tree_code_words(3, 2))));
}

TEST(AntichainTest, SingleWordIsAnAntichain) {
  EXPECT_TRUE(is_antichain({parse_word(2, "0101")}));
}

// Crafted inputs for the two routes of the antichain proof: one digit sum
// (proved by distinctness alone) and the pairwise fallback.
TEST(AntichainTest, ComparableWordsFailThroughTheFallback) {
  const std::vector<code_word> words = {parse_word(2, "01"),
                                        parse_word(2, "11")};  // 01 <= 11
  EXPECT_FALSE(share_one_digit_sum(words));
  EXPECT_FALSE(is_antichain(words));
  code bad;
  bad.radix = 2;
  bad.length = 2;
  bad.words = words;
  EXPECT_THROW(validate_code(bad), logic_invariant_error);
}

TEST(AntichainTest, UnequalDigitSumsCanStillBeAnAntichain) {
  // Sums 2 and 1, yet neither word covers the other: the digit-sum test
  // cannot prove this one, and the pairwise fallback must accept it.
  const std::vector<code_word> words = {parse_word(2, "0011"),
                                        parse_word(2, "0100")};
  EXPECT_FALSE(share_one_digit_sum(words));
  EXPECT_TRUE(is_antichain(words));
  EXPECT_TRUE(is_antichain_pairwise(words));
  code c;
  c.radix = 2;
  c.length = 4;
  c.words = words;
  EXPECT_NO_THROW(validate_code(c));
}

TEST(AntichainTest, RepeatedWordIsNeitherDistinctNorAnAntichain) {
  // One digit sum, but a repeated word covers itself: the proof needs
  // distinctness as well as the common sum.
  const std::vector<code_word> words = {
      parse_word(2, "0110"), parse_word(2, "1001"), parse_word(2, "0110")};
  EXPECT_TRUE(share_one_digit_sum(words));
  EXPECT_FALSE(is_antichain(words));
  EXPECT_FALSE(is_antichain_pairwise(words));
  code bad;
  bad.radix = 2;
  bad.length = 4;
  bad.words = words;
  try {
    validate_code(bad);
    FAIL() << "expected logic_invariant_error";
  } catch (const logic_invariant_error& failure) {
    EXPECT_NE(std::string(failure.what()).find("not distinct"),
              std::string::npos)
        << failure.what();
  }
}

TEST(AntichainTest, MixedShapesAreLeftToThePairwiseCheck) {
  // Equal sums and distinct words, but of two lengths: the digit-sum test
  // does not apply, and the pairwise check rejects the comparison.
  const std::vector<code_word> words = {parse_word(2, "01"),
                                        parse_word(2, "001")};
  EXPECT_FALSE(share_one_digit_sum(words));
  EXPECT_THROW(is_antichain(words), invalid_argument_error);
}

TEST(DistinctTest, DetectsDuplicates) {
  EXPECT_TRUE(all_distinct(tree_code_words(2, 3)));
  std::vector<code_word> dup = {parse_word(2, "01"), parse_word(2, "01")};
  EXPECT_FALSE(all_distinct(dup));
}

TEST(ValidateCodeTest, AcceptsFactoryCodes) {
  EXPECT_NO_THROW(validate_code(make_code(code_type::gray, 2, 8)));
  EXPECT_NO_THROW(validate_code(make_code(code_type::hot, 2, 6)));
}

TEST(ValidateCodeTest, RejectsNonAntichain) {
  code bad;
  bad.type = code_type::tree;
  bad.radix = 2;
  bad.length = 3;
  bad.words = tree_code_words(2, 3);  // unreflected: 000 <= 001
  EXPECT_THROW(validate_code(bad), logic_invariant_error);
}

TEST(ValidateCodeTest, RejectsShapeMismatch) {
  code bad;
  bad.type = code_type::tree;
  bad.radix = 2;
  bad.length = 4;  // declared length does not match the words
  bad.words = reflect_words(tree_code_words(2, 3));
  EXPECT_THROW(validate_code(bad), logic_invariant_error);
}

TEST(CodeTypeNamesTest, RoundTrip) {
  for (const code_type t :
       {code_type::tree, code_type::gray, code_type::balanced_gray,
        code_type::hot, code_type::arranged_hot}) {
    EXPECT_EQ(parse_code_type(code_type_name(t)), t);
  }
  EXPECT_EQ(parse_code_type("bgc"), code_type::balanced_gray);
  EXPECT_THROW(parse_code_type("XYZ"), invalid_argument_error);
}

}  // namespace
}  // namespace nwdec::codes
