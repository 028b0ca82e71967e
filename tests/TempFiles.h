//===- tests/TempFiles.h - Temp files removed at scope exit -----*- C++ -*-===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A guard for the files and directories a test writes under
/// `testing::TempDir()`: everything added to it is removed when it goes out
/// of scope, so also when a failed ASSERT returns from the test early.
///
//===----------------------------------------------------------------------===//

#ifndef C4_TESTS_TEMPFILES_H
#define C4_TESTS_TEMPFILES_H

#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

namespace c4test {

class TempFiles {
public:
  TempFiles() = default;
  TempFiles(const TempFiles &) = delete;
  TempFiles &operator=(const TempFiles &) = delete;
  ~TempFiles() {
    for (const std::string &Path : Paths) {
      std::error_code Ignored;
      std::filesystem::remove_all(Path, Ignored);
    }
  }

  /// Removes \p Path (a file or a directory tree) at scope exit; returns it.
  std::string add(std::string Path) {
    Paths.push_back(Path);
    return Path;
  }

private:
  std::vector<std::string> Paths;
};

} // namespace c4test

#endif // C4_TESTS_TEMPFILES_H
