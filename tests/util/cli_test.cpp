#include "util/cli.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace nwdec {
namespace {

cli_parser make_parser() {
  cli_parser p("prog", "test parser");
  p.add_string("code", "TC", "code type");
  p.add_int("length", 8, "code length");
  p.add_double("sigma", 0.05, "sigma_vt");
  p.add_flag("verbose", "print more");
  return p;
}

TEST(CliTest, DefaultsApplyWithoutArguments) {
  cli_parser p = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_EQ(p.get_string("code"), "TC");
  EXPECT_EQ(p.get_int("length"), 8);
  EXPECT_DOUBLE_EQ(p.get_double("sigma"), 0.05);
  EXPECT_FALSE(p.get_flag("verbose"));
}

TEST(CliTest, SpaceSeparatedValues) {
  cli_parser p = make_parser();
  const char* argv[] = {"prog", "--code", "BGC", "--length", "10"};
  ASSERT_TRUE(p.parse(5, argv));
  EXPECT_EQ(p.get_string("code"), "BGC");
  EXPECT_EQ(p.get_int("length"), 10);
}

TEST(CliTest, EqualsSeparatedValues) {
  cli_parser p = make_parser();
  const char* argv[] = {"prog", "--sigma=0.1", "--verbose"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_DOUBLE_EQ(p.get_double("sigma"), 0.1);
  EXPECT_TRUE(p.get_flag("verbose"));
}

TEST(CliTest, ExplicitFlagValues) {
  cli_parser p = make_parser();
  const char* argv[] = {"prog", "--verbose=false"};
  ASSERT_TRUE(p.parse(2, argv));
  EXPECT_FALSE(p.get_flag("verbose"));
}

TEST(CliTest, HelpReturnsFalse) {
  cli_parser p = make_parser();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(p.parse(2, argv));
  EXPECT_NE(p.help().find("--code"), std::string::npos);
  EXPECT_NE(p.help().find("code type"), std::string::npos);
}

TEST(CliTest, UnknownOptionThrows) {
  cli_parser p = make_parser();
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_EXIT(p.parse(3, argv), ::testing::ExitedWithCode(1),
              "^prog: unknown option: --bogus \\(try --help\\)\n$");
}

TEST(CliTest, MissingValueThrows) {
  cli_parser p = make_parser();
  const char* argv[] = {"prog", "--length"};
  EXPECT_EXIT(p.parse(2, argv), ::testing::ExitedWithCode(1),
              "^prog: option --length needs a value \\(try --help\\)\n$");
}

TEST(CliTest, MalformedNumbersThrow) {
  cli_parser p = make_parser();
  const char* argv[] = {"prog", "--length", "eight"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_THROW(p.get_int("length"), invalid_argument_error);

  cli_parser q = make_parser();
  const char* argv2[] = {"prog", "--sigma", "big"};
  ASSERT_TRUE(q.parse(3, argv2));
  EXPECT_THROW(q.get_double("sigma"), invalid_argument_error);
}

TEST(CliTest, PositionalArgumentsRejected) {
  cli_parser p = make_parser();
  const char* argv[] = {"prog", "stray"};
  EXPECT_EXIT(p.parse(2, argv), ::testing::ExitedWithCode(1),
              "^prog: unexpected positional argument: stray "
              "\\(try --help\\)\n$");
}

TEST(CliTest, TypeMismatchOnAccessThrows) {
  cli_parser p = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_THROW(p.get_int("code"), invalid_argument_error);
  EXPECT_THROW(p.get_string("length"), invalid_argument_error);
  EXPECT_THROW(p.get_flag("undeclared"), invalid_argument_error);
}

TEST(CliTest, DuplicateDeclarationThrows) {
  cli_parser p("prog", "dup");
  p.add_int("x", 1, "first");
  EXPECT_THROW(p.add_flag("x", "second"), invalid_argument_error);
}

}  // namespace
}  // namespace nwdec
