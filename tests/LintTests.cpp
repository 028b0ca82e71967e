//===- tests/LintTests.cpp - Lint layer golden tests ----------------------===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden-file tests for the structured lint layer: one test per warning
/// ID pinning the exact rendered text, JSON rendering and determinism, and
/// the `c4l-allow` suppression comment.
///
//===----------------------------------------------------------------------===//

#include "frontend/Frontend.h"
#include "passes/PassManager.h"

#include "gtest/gtest.h"

#include <string>

using namespace c4;

namespace {

/// Compiles \p Source, runs the pipeline and returns the rendered lint
/// text for file name "test.c4l" (empty string on compile failure).
std::string lintText(const std::string &Source, bool Reduce = true) {
  CompileResult C = compileC4L(Source);
  EXPECT_TRUE(C.ok()) << C.Error;
  if (!C.ok())
    return "";
  PassOptions Opts;
  Opts.Reduce = Reduce;
  PassResult R = runPasses(*C.Program, Opts, &Source);
  EXPECT_TRUE(R.Ok) << R.Error;
  return renderLintText(R.Lints, "test.c4l");
}

std::string lintJson(const std::string &Source) {
  CompileResult C = compileC4L(Source);
  EXPECT_TRUE(C.ok()) << C.Error;
  if (!C.ok())
    return "";
  PassResult R = runPasses(*C.Program, PassOptions(), &Source);
  EXPECT_TRUE(R.Ok) << R.Error;
  return renderLintJson(R.Lints, "test.c4l");
}

TEST(LintGolden, W001UnusedWrite) {
  EXPECT_EQ(lintText("container map Audit;\n"
                     "txn w(k, v) {\n"
                     "  Audit.put(k, v);\n"
                     "}\n"),
            "test.c4l:1: warning C4L-W001: container 'Audit' is updated "
            "but never queried; its writes are unobservable\n");
}

TEST(LintGolden, W002NeverWritten) {
  EXPECT_EQ(lintText("container map Ghost;\n"
                     "txn r(k) {\n"
                     "  let x = Ghost.get(k);\n"
                     "  display(x);\n"
                     "}\n"),
            "test.c4l:1: warning C4L-W002: container 'Ghost' is queried "
            "but no transaction ever updates it\n");
}

TEST(LintGolden, W003AlwaysFalseGuard) {
  EXPECT_EQ(lintText("container map M;\n"
                     "txn t(k) {\n"
                     "  let y = M.get(k);\n"
                     "  M.put(k, y);\n"
                     "  if (y == 3) {\n"
                     "    if (y == 4) {\n"
                     "      M.put(k, 9);\n"
                     "    }\n"
                     "  }\n"
                     "}\n"),
            "test.c4l:6: warning C4L-W003: guard 'y == 4' is always "
            "false; the then branch is unreachable [txn t]\n");
}

TEST(LintGolden, W004MultiContainerNoAtomicSet) {
  EXPECT_EQ(lintText("container map A;\n"
                     "container map B;\n"
                     "txn w(k, v) {\n"
                     "  A.put(k, v);\n"
                     "  B.put(k, v);\n"
                     "}\n"
                     "txn r(k) {\n"
                     "  let x = A.get(k);\n"
                     "  let y = B.get(k);\n"
                     "  display(x);\n"
                     "  display(y);\n"
                     "}\n"),
            "test.c4l:3: warning C4L-W004: updates 2 containers ('A', "
            "'B') that no atomic set groups together [txn w]\n");
}

TEST(LintGolden, W004SilencedByAtomicSet) {
  EXPECT_EQ(lintText("container map A;\n"
                     "container map B;\n"
                     "atomicset S { A, B }\n"
                     "txn w(k, v) {\n"
                     "  A.put(k, v);\n"
                     "  B.put(k, v);\n"
                     "}\n"
                     "txn r(k) {\n"
                     "  let x = A.get(k);\n"
                     "  let y = B.get(k);\n"
                     "  display(x);\n"
                     "  display(y);\n"
                     "}\n"),
            "");
}

TEST(LintGolden, W005RedundantUpdate) {
  EXPECT_EQ(lintText("container map M;\n"
                     "txn t(k) {\n"
                     "  M.put(k, 7);\n"
                     "  M.put(k, 7);\n"
                     "  let x = M.get(k);\n"
                     "  display(x);\n"
                     "}\n"),
            "test.c4l:3: warning C4L-W005: redundant update 'M.put' is "
            "absorbed by the identical update on line 4 [txn t]\n");
}

TEST(LintGolden, W005ReportedWithoutReduction) {
  // --no-passes still lints; the absorbed write is reported but kept.
  EXPECT_EQ(lintText("container map M;\n"
                     "txn t(k) {\n"
                     "  M.put(k, 7);\n"
                     "  M.put(k, 7);\n"
                     "  let x = M.get(k);\n"
                     "  display(x);\n"
                     "}\n",
                     /*Reduce=*/false),
            "test.c4l:3: warning C4L-W005: redundant update 'M.put' is "
            "absorbed by the identical update on line 4 [txn t]\n");
}

TEST(LintGolden, CleanProgramNoWarnings) {
  EXPECT_EQ(lintText("container map M;\n"
                     "txn w(k, v) {\n"
                     "  M.put(k, v);\n"
                     "}\n"
                     "txn r(k) {\n"
                     "  let x = M.get(k);\n"
                     "  display(x);\n"
                     "}\n"),
            "");
}

TEST(LintJson, SchemaAndDeterminism) {
  const std::string Source = "container map Audit;\n"
                             "container map Ghost;\n"
                             "txn w(k, v) {\n"
                             "  Audit.put(k, v);\n"
                             "}\n"
                             "txn r(k) {\n"
                             "  let x = Ghost.get(k);\n"
                             "  display(x);\n"
                             "}\n";
  const std::string Expected =
      "{\n"
      "  \"file\": \"test.c4l\",\n"
      "  \"warnings\": [\n"
      "    {\"id\": \"C4L-W001\", \"line\": 1, \"txn\": \"\", \"message\": "
      "\"container 'Audit' is updated but never queried; its writes are "
      "unobservable\"},\n"
      "    {\"id\": \"C4L-W002\", \"line\": 2, \"txn\": \"\", \"message\": "
      "\"container 'Ghost' is queried but no transaction ever updates "
      "it\"}\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(lintJson(Source), Expected);
  // Byte-identical across runs.
  EXPECT_EQ(lintJson(Source), lintJson(Source));
}

TEST(LintJson, EscapesSpecialCharacters) {
  std::vector<LintDiagnostic> Lints;
  Lints.push_back({"C4L-W001", 1, "", "quote \" backslash \\ done"});
  std::string Out = renderLintJson(Lints, "a\"b.c4l");
  EXPECT_NE(Out.find("\"file\": \"a\\\"b.c4l\""), std::string::npos);
  EXPECT_NE(Out.find("quote \\\" backslash \\\\ done"), std::string::npos);
}

TEST(LintSuppression, SameLineAllow) {
  EXPECT_EQ(lintText("container map Audit; // c4l-allow C4L-W001\n"
                     "txn w(k, v) {\n"
                     "  Audit.put(k, v);\n"
                     "}\n"),
            "");
}

TEST(LintSuppression, PrecedingLineBareAllow) {
  EXPECT_EQ(lintText("// c4l-allow\n"
                     "container map Audit;\n"
                     "txn w(k, v) {\n"
                     "  Audit.put(k, v);\n"
                     "}\n"),
            "");
}

TEST(LintSuppression, WrongIdDoesNotSuppress) {
  EXPECT_EQ(lintText("container map Audit; // c4l-allow C4L-W002\n"
                     "txn w(k, v) {\n"
                     "  Audit.put(k, v);\n"
                     "}\n"),
            "test.c4l:1: warning C4L-W001: container 'Audit' is updated "
            "but never queried; its writes are unobservable\n");
}

TEST(LintSuppression, AllowOutsideCommentIgnored) {
  // The token must appear in a `//` comment; source text alone does not
  // suppress. (A name cannot contain "c4l-allow", so smuggle it into a
  // string literal position via an unrelated line and check that the
  // warning on line 1 stays.)
  EXPECT_EQ(lintText("container map Audit;\n"
                     "txn w(k, v) {\n"
                     "  Audit.put(k, \"c4l-allow C4L-W001\");\n"
                     "}\n"),
            "test.c4l:1: warning C4L-W001: container 'Audit' is updated "
            "but never queried; its writes are unobservable\n");
}

TEST(LintSort, CanonicalOrder) {
  std::vector<LintDiagnostic> Lints;
  Lints.push_back({"C4L-W005", 9, "t", "b"});
  Lints.push_back({"C4L-W001", 2, "", "a"});
  Lints.push_back({"C4L-W003", 9, "t", "a"});
  sortLints(Lints);
  EXPECT_EQ(Lints[0].Id, "C4L-W001");
  EXPECT_EQ(Lints[1].Id, "C4L-W003");
  EXPECT_EQ(Lints[2].Id, "C4L-W005");
}

} // namespace
