// Per-process scratch directories for tests that write to disk.
//
// Every directory lives under <TempDir>/cqa_<pid>/, so two test processes
// running at once (say, the same suite from two build trees) never write
// into each other's files. The root is removed after the last test.

#ifndef CQA_TESTS_SCRATCH_DIR_H_
#define CQA_TESTS_SCRATCH_DIR_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

#include "store/io.h"

namespace cqa {

inline std::string ScratchRoot() {
  return ::testing::TempDir() + "cqa_" + std::to_string(::getpid()) + "/";
}

/// Removes ScratchRoot() once every test has run.
class ScratchRootCleanup : public ::testing::Environment {
 public:
  void TearDown() override {
    EXPECT_TRUE(store::RemoveDirRecursive(ScratchRoot()).ok());
  }
};

inline ::testing::Environment* const kScratchRootCleanup =
    ::testing::AddGlobalTestEnvironment(new ScratchRootCleanup);

/// ScratchRoot()/name, emptied before use (not created: the code under
/// test makes it).
inline std::string FreshScratchDir(const std::string& name) {
  std::string dir = ScratchRoot() + name;
  EXPECT_TRUE(store::RemoveDirRecursive(dir).ok());
  return dir;
}

}  // namespace cqa

#endif  // CQA_TESTS_SCRATCH_DIR_H_
