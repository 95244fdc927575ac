// Scratch paths for tests that touch the filesystem. Every path is a
// directory under the system temp directory named after the process id
// and the running gtest suite and test, so tests that run in parallel
// (ctest -j starts one process per test), or two checkouts testing at
// once, never share a file, and one test's cleanup cannot delete
// another's.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace nwdec::test {

/// A fresh directory <temp>/nwdec_<pid>_<suite>_<test>_<name>, removed
/// with everything in it on destruction.
class temp_dir {
 public:
  explicit temp_dir(const std::string& name) : path_(unique_path(name)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~temp_dir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  temp_dir(const temp_dir&) = delete;
  temp_dir& operator=(const temp_dir&) = delete;

  /// A path inside the directory.
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  static std::filesystem::path unique_path(const std::string& name) {
    std::string stem = "nwdec_" + std::to_string(::getpid());
    if (const ::testing::TestInfo* test =
            ::testing::UnitTest::GetInstance()->current_test_info()) {
      stem += std::string("_") + test->test_suite_name() + "_" + test->name();
    }
    stem += "_" + name;
    for (char& c : stem) {
      if (c == '/') c = '_';  // parameterized test names
    }
    return std::filesystem::temp_directory_path() / stem;
  }

  std::filesystem::path path_;
};

/// The path of a file `name` that does not exist yet, alone in its own
/// temp_dir, so files written beside it (a log, a .tmp) go with it.
class temp_file {
 public:
  explicit temp_file(const std::string& name)
      : dir_(name), path_(dir_.file(name)) {}

  const std::string& path() const { return path_; }

 private:
  temp_dir dir_;
  std::string path_;
};

}  // namespace nwdec::test
