#include "util/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "util/error.h"

namespace nwdec {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class CsvTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // One file per test: ctest -j runs the tests of this fixture as
  // concurrent processes, which must not share a path.
  std::string path_ =
      ::testing::TempDir() + "/nwdec_csv_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".csv";
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  {
    csv_writer w(path_, {"code", "M", "yield"});
    w.add_row({"TC", "8", "0.40"});
    w.add_row({"BGC", "8", "0.57"});
  }
  EXPECT_EQ(slurp(path_), "code,M,yield\nTC,8,0.40\nBGC,8,0.57\n");
}

TEST_F(CsvTest, EscapesSpecialCells) {
  {
    csv_writer w(path_, {"name"});
    w.add_row({"a,b"});
    w.add_row({"say \"hi\""});
  }
  EXPECT_EQ(slurp(path_), "name\n\"a,b\"\n\"say \"\"hi\"\"\"\n");
}

TEST_F(CsvTest, UnwritablePathThrows) {
  EXPECT_THROW(csv_writer("/nonexistent-dir/x.csv", {"a"}), error);
}

TEST(CsvEscapeTest, PlainCellsPassThrough) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape(""), "");
}

TEST(CsvEscapeTest, NewlinesForceQuoting) {
  EXPECT_EQ(csv_escape("a\nb"), "\"a\nb\"");
}

}  // namespace
}  // namespace nwdec
