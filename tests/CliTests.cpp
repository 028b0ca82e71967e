//===- tests/CliTests.cpp - c4-analyze exit-code contract -----------------===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regression tests for the c4-analyze command-line contract, driving the
/// real binary (path injected as C4_ANALYZE_PATH):
///
///   0  compiled and analyzed, no violations (and no lint warnings under
///      --werror)
///   1  serializability violations found (wins over --werror)
///   2  usage or compile error
///   3  lint warnings under --werror, no violations
///
/// Also bench_table1's usage contract (C4_BENCH_TABLE1_PATH): an argument
/// it does not know exits 2 before any analysis.
///
//===----------------------------------------------------------------------===//

#include "TempFiles.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <sys/wait.h>

namespace {

std::string examplePath(const char *Name) {
  return std::string(C4_SOURCE_DIR) + "/examples/c4l/" + Name;
}

/// Runs the analyzer with \p Args and returns its exit code.
int runAnalyzer(const std::string &Args) {
  std::string Cmd = std::string(C4_ANALYZE_PATH) + " " + Args +
                    " > /dev/null 2> /dev/null";
  int Status = std::system(Cmd.c_str());
  EXPECT_NE(Status, -1);
  EXPECT_TRUE(WIFEXITED(Status));
  return WEXITSTATUS(Status);
}

/// Writes \p Source to a fresh file in the test temp dir, removed when
/// \p Temp goes out of scope.
std::string writeTemp(c4test::TempFiles &Temp, const char *Name,
                      const std::string &Source) {
  std::string Path = Temp.add(testing::TempDir() + Name);
  std::ofstream Out(Path);
  Out << Source;
  EXPECT_TRUE(Out.good());
  return Path;
}

const char *WarningOnlySource = "container map Audit;\n"
                                "txn w(k, v) {\n"
                                "  Audit.put(k, v);\n"
                                "}\n";

TEST(CliExit, CleanProgramIsZero) {
  EXPECT_EQ(runAnalyzer(examplePath("highscore_fixed.c4l")), 0);
}

TEST(CliExit, ViolationIsOne) {
  EXPECT_EQ(runAnalyzer(examplePath("uniqueness_bug.c4l")), 1);
}

TEST(CliExit, MissingArgumentIsTwo) { EXPECT_EQ(runAnalyzer(""), 2); }

TEST(CliExit, UnknownFlagIsTwo) {
  EXPECT_EQ(runAnalyzer("--definitely-not-a-flag " +
                        examplePath("highscore_fixed.c4l")),
            2);
}

TEST(CliExit, CompileErrorIsTwo) {
  c4test::TempFiles Temp;
  std::string Bad = writeTemp(Temp, "cli_bad.c4l", "txn { this is not C4L\n");
  EXPECT_EQ(runAnalyzer(Bad), 2);
}

TEST(CliExit, WerrorWithWarningsIsThree) {
  c4test::TempFiles Temp;
  std::string W = writeTemp(Temp, "cli_warn.c4l", WarningOnlySource);
  EXPECT_EQ(runAnalyzer("--lint --werror " + W), 3);
  // Same contract in analysis mode: no violations, but warnings + --werror.
  EXPECT_EQ(runAnalyzer("--werror " + W), 3);
}

TEST(CliExit, LintWithoutWerrorIsZero) {
  c4test::TempFiles Temp;
  std::string W = writeTemp(Temp, "cli_warn2.c4l", WarningOnlySource);
  EXPECT_EQ(runAnalyzer("--lint " + W), 0);
  EXPECT_EQ(runAnalyzer("--lint-json " + W), 0);
}

TEST(CliExit, ViolationWinsOverWerror) {
  EXPECT_EQ(runAnalyzer("--werror " + examplePath("uniqueness_bug.c4l")),
            1);
}

TEST(CliExit, WerrorCleanIsZero) {
  EXPECT_EQ(runAnalyzer("--werror " + examplePath("highscore_fixed.c4l")),
            0);
}

TEST(CliExit, NoPassesVerdictUnchanged) {
  EXPECT_EQ(
      runAnalyzer("--no-passes " + examplePath("uniqueness_bug.c4l")), 1);
  EXPECT_EQ(
      runAnalyzer("--no-passes " + examplePath("highscore_fixed.c4l")), 0);
}

TEST(CliExit, BenchTable1UnknownArgumentIsTwoBeforeAnyWork) {
  // A misspelled flag next to a real one, and a value flag bench_table1
  // does not take, given without its value: neither may fall through to
  // the lint pass or the 28-app table.
  for (const char *Args : {"--lint --bogus-flag", "--quick --threads"}) {
    c4test::TempFiles Temp;
    std::string Out = Temp.add(testing::TempDir() + "bench_table1_usage.out");
    std::string Cmd = std::string(C4_BENCH_TABLE1_PATH) + " " + Args +
                      " > " + Out + " 2> /dev/null";
    int Status = std::system(Cmd.c_str());
    ASSERT_TRUE(WIFEXITED(Status)) << Args;
    EXPECT_EQ(WEXITSTATUS(Status), 2) << Args;
    std::ifstream In(Out);
    std::string Printed((std::istreambuf_iterator<char>(In)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(Printed, "") << Args;
  }
}

TEST(CliExit, SuppressedWarningsAreClean) {
  c4test::TempFiles Temp;
  std::string W = writeTemp(Temp, "cli_allow.c4l",
                            "// c4l-allow C4L-W001\n"
                            "container map Audit;\n"
                            "txn w(k, v) {\n"
                            "  Audit.put(k, v);\n"
                            "}\n");
  EXPECT_EQ(runAnalyzer("--lint --werror " + W), 0);
}

} // namespace
