//===- tests/OracleTests.cpp - Oracle equivalence & determinism -----------===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memoization oracle and the parallel bounded check are pure
/// performance features: they must never change an analysis verdict.
/// This suite pins that down on the shipped example programs:
///
///  * general SSG equivalence — for every example and every feature
///    ablation combination, the cached and uncached analyses build the
///    same graph (same dot rendering) and flag the same SCCs;
///  * end-to-end equivalence — for representative option sets, the full
///    pipeline produces identical verdicts, violations and statistics
///    with the oracle on and off;
///  * parallel determinism — a multi-threaded bounded check commits
///    results in enumeration order, so violations and counters are
///    identical to the single-threaded run; and since every solving thread
///    keeps its Z3 env for the life of the process, a result must not
///    depend on what the process analyzed before, nor on other analyses
///    sharing the solving pool at the same time.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "frontend/Frontend.h"
#include "spec/CommutativityCache.h"
#include "ssg/GraphExport.h"
#include "ssg/SSG.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <thread>

using namespace c4;

#ifdef C4_SOURCE_DIR

namespace {

const char *ExampleFiles[] = {
    "/examples/c4l/fig1_put_get.c4l",
    "/examples/c4l/fig7_session_keys.c4l",
    "/examples/c4l/fig11_add_follower.c4l",
    "/examples/c4l/fig12_fresh_rows.c4l",
    "/examples/c4l/uniqueness_bug.c4l",
    "/examples/c4l/highscore_fixed.c4l",
};

std::optional<CompiledProgram> compileExample(const char *File) {
  std::ifstream In(std::string(C4_SOURCE_DIR) + File);
  if (!In.good())
    return std::nullopt;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  CompileResult R = compileC4L(Buffer.str());
  if (!R.ok())
    return std::nullopt;
  return std::move(R.Program);
}

/// The 64 on/off combinations of the six §9.3 ablation switches.
AnalysisFeatures featureCombo(unsigned Bits) {
  AnalysisFeatures F;
  F.Commutativity = Bits & 1;
  F.Absorption = Bits & 2;
  F.Constraints = Bits & 4;
  F.ControlFlow = Bits & 8;
  F.AsymmetricAntiDeps = Bits & 16;
  F.UniqueValues = Bits & 32;
  return F;
}

void expectSameViolations(const AnalysisResult &A, const AnalysisResult &B,
                          const char *Context) {
  ASSERT_EQ(A.Violations.size(), B.Violations.size()) << Context;
  for (size_t I = 0; I != A.Violations.size(); ++I) {
    const Violation &VA = A.Violations[I];
    const Violation &VB = B.Violations[I];
    EXPECT_EQ(VA.OrigTxns, VB.OrigTxns) << Context << " violation " << I;
    EXPECT_EQ(VA.TxnNames, VB.TxnNames) << Context << " violation " << I;
    EXPECT_EQ(VA.Inconclusive, VB.Inconclusive) << Context;
    EXPECT_EQ(VA.Validated, VB.Validated) << Context;
    EXPECT_EQ(VA.CE.has_value(), VB.CE.has_value()) << Context;
  }
}

void expectSameOutcome(const AnalysisResult &A, const AnalysisResult &B,
                       const char *Context) {
  expectSameViolations(A, B, Context);
  EXPECT_EQ(A.Generalized, B.Generalized) << Context;
  EXPECT_EQ(A.FastProvedSerializable, B.FastProvedSerializable) << Context;
  EXPECT_EQ(A.KChecked, B.KChecked) << Context;
  EXPECT_EQ(A.UnfoldingsChecked, B.UnfoldingsChecked) << Context;
  EXPECT_EQ(A.UnfoldingsSubsumed, B.UnfoldingsSubsumed) << Context;
  EXPECT_EQ(A.LayoutsFiltered, B.LayoutsFiltered) << Context;
  EXPECT_EQ(A.SSGFlagged, B.SSGFlagged) << Context;
  EXPECT_EQ(A.SMTRefuted, B.SMTRefuted) << Context;
  EXPECT_EQ(A.SMTUnknown, B.SMTUnknown) << Context;
  EXPECT_EQ(A.Truncated, B.Truncated) << Context;
}

/// The solver-work counters a long-lived env must not change either.
void expectSameSolverWork(const AnalysisResult &A, const AnalysisResult &B,
                          const char *Context) {
  EXPECT_EQ(A.SmtQueries, B.SmtQueries) << Context;
  EXPECT_EQ(A.SmtSolves, B.SmtSolves) << Context;
  EXPECT_EQ(A.SMTRetries, B.SMTRetries) << Context;
}

} // namespace

TEST(OracleEquivalence, GeneralSSGMatchesUncachedAcrossAllAblations) {
  for (const char *File : ExampleFiles) {
    std::optional<CompiledProgram> P = compileExample(File);
    ASSERT_TRUE(P) << File;
    for (unsigned Bits = 0; Bits != 64; ++Bits) {
      AnalysisFeatures F = featureCombo(Bits);
      SSG Plain(*P->History, F);
      Plain.analyze();
      CommutativityOracle Oracle;
      SSG Cached(*P->History, F);
      Cached.setOracle(&Oracle);
      Cached.analyze();
      std::string Context =
          std::string(File) + " features=" + std::to_string(Bits);
      EXPECT_EQ(ssgToDot(*P->History, Plain.graph()),
                ssgToDot(*P->History, Cached.graph()))
          << Context;
      ASSERT_EQ(Plain.violations().size(), Cached.violations().size())
          << Context;
      for (size_t I = 0; I != Plain.violations().size(); ++I)
        EXPECT_EQ(Plain.violations()[I].Txns, Cached.violations()[I].Txns)
            << Context;
    }
  }
}

TEST(OracleEquivalence, FullPipelineVerdictsMatchUncached) {
  // Representative option sets: everything on, the two features the oracle
  // caches conditions for turned off, and the remaining ablations paired.
  std::vector<AnalyzerOptions> Configs(4);
  Configs[1].Features.Absorption = false;
  Configs[2].Features.AsymmetricAntiDeps = false;
  Configs[2].Features.UniqueValues = false;
  Configs[3].Features.Constraints = false;
  Configs[3].Features.ControlFlow = false;
  for (const char *File : ExampleFiles) {
    std::optional<CompiledProgram> P = compileExample(File);
    ASSERT_TRUE(P) << File;
    for (size_t C = 0; C != Configs.size(); ++C) {
      AnalyzerOptions On = Configs[C];
      On.UseOracle = true;
      AnalyzerOptions Off = Configs[C];
      Off.UseOracle = false;
      AnalysisResult RA = analyze(*P->History, On);
      AnalysisResult RB = analyze(*P->History, Off);
      std::string Context =
          std::string(File) + " config=" + std::to_string(C);
      expectSameOutcome(RA, RB, Context.c_str());
      // The cached run actually exercised the cache.
      EXPECT_GT(RA.CondCacheHits + RA.CondCacheMisses, 0u) << Context;
      EXPECT_EQ(RB.CondCacheHits + RB.CondCacheMisses, 0u) << Context;
    }
  }
}

TEST(OracleEquivalence, AtomicSetFilterVerdictsMatchUncached) {
  // The production CLI configuration: display filter + atomic sets.
  for (const char *File : ExampleFiles) {
    std::optional<CompiledProgram> P = compileExample(File);
    ASSERT_TRUE(P) << File;
    AnalyzerOptions On;
    On.DisplayFilter = true;
    On.UseAtomicSets = true;
    On.AtomicSets = P->AtomicSets;
    AnalyzerOptions Off = On;
    Off.UseOracle = false;
    AnalysisResult RA = analyze(*P->History, On);
    AnalysisResult RB = analyze(*P->History, Off);
    expectSameOutcome(RA, RB, File);
  }
}

TEST(ParallelDeterminism, BoundedCheckMatchesSequential) {
  // Workers solve unfoldings speculatively but results are committed in
  // enumeration order, so a parallel run must be indistinguishable from a
  // sequential one — same violations in the same order, same subsumption
  // and solver counters. Exercised on programs with and without
  // violations. (Thread counts above the core count still exercise the
  // ordered-commit path.)
  for (const char *File : ExampleFiles) {
    std::optional<CompiledProgram> P = compileExample(File);
    ASSERT_TRUE(P) << File;
    AnalyzerOptions Seq;
    Seq.NumThreads = 1;
    AnalyzerOptions Par;
    Par.NumThreads = 4;
    AnalysisResult RS = analyze(*P->History, Seq);
    AnalysisResult RP = analyze(*P->History, Par);
    expectSameOutcome(RS, RP, File);
  }
}

TEST(ParallelDeterminism, ParallelRunWithoutOracleMatchesToo) {
  // Parallelism and memoization are independent switches; cross them.
  const char *File = "/examples/c4l/uniqueness_bug.c4l";
  std::optional<CompiledProgram> P = compileExample(File);
  ASSERT_TRUE(P) << File;
  AnalyzerOptions Seq;
  Seq.NumThreads = 1;
  AnalyzerOptions Par;
  Par.NumThreads = 3;
  Par.UseOracle = false;
  AnalysisResult RS = analyze(*P->History, Seq);
  AnalysisResult RP = analyze(*P->History, Par);
  expectSameOutcome(RS, RP, File);
  ASSERT_FALSE(RS.Violations.empty());
}

TEST(ParallelDeterminism, ResultsDoNotDependOnAnalysisOrder) {
  // One process analyzes every example in file order and then in reverse,
  // at one and at two threads. Every solving thread's env outlives each
  // analysis, so a query meets what the thread solved before it; each
  // program's result must still equal its first one-thread result.
  std::vector<CompiledProgram> Programs;
  for (const char *File : ExampleFiles) {
    std::optional<CompiledProgram> P = compileExample(File);
    ASSERT_TRUE(P) << File;
    Programs.push_back(std::move(*P));
  }
  size_t N = Programs.size();
  std::vector<AnalysisResult> Reference(N);
  for (unsigned Threads : {1u, 2u}) {
    AnalyzerOptions O;
    O.NumThreads = Threads;
    std::vector<AnalysisResult> Forward(N), Backward(N);
    for (size_t I = 0; I != N; ++I)
      Forward[I] = analyze(*Programs[I].History, O);
    for (size_t I = N; I-- != 0;)
      Backward[I] = analyze(*Programs[I].History, O);
    if (Threads == 1)
      Reference = Forward;
    for (size_t I = 0; I != N; ++I) {
      for (const AnalysisResult *R : {&Forward[I], &Backward[I]}) {
        std::string Context = std::string(ExampleFiles[I]) + " threads=" +
                              std::to_string(Threads) +
                              (R == &Forward[I] ? " forward" : " reverse");
        expectSameOutcome(Reference[I], *R, Context.c_str());
        expectSameSolverWork(Reference[I], *R, Context.c_str());
      }
    }
  }
}

TEST(ParallelDeterminism, ConcurrentAnalysesShareThePool) {
  // Four threads at once each analyze a different example at two threads,
  // so their bounded rounds interleave on the process's one solving pool.
  // Each result must equal that program's one-thread result.
  const char *Files[] = {
      "/examples/c4l/fig1_put_get.c4l",
      "/examples/c4l/fig11_add_follower.c4l",
      "/examples/c4l/fig12_fresh_rows.c4l",
      "/examples/c4l/uniqueness_bug.c4l",
  };
  std::vector<CompiledProgram> Programs;
  for (const char *File : Files) {
    std::optional<CompiledProgram> P = compileExample(File);
    ASSERT_TRUE(P) << File;
    Programs.push_back(std::move(*P));
  }
  size_t N = Programs.size();
  std::vector<AnalysisResult> Alone(N), Shared(N);
  AnalyzerOptions Seq;
  Seq.NumThreads = 1;
  for (size_t I = 0; I != N; ++I)
    Alone[I] = analyze(*Programs[I].History, Seq);
  std::vector<std::thread> Callers;
  for (size_t I = 0; I != N; ++I)
    Callers.emplace_back([&, I] {
      AnalyzerOptions Par;
      Par.NumThreads = 2;
      Shared[I] = analyze(*Programs[I].History, Par);
    });
  for (std::thread &T : Callers)
    T.join();
  for (size_t I = 0; I != N; ++I) {
    expectSameOutcome(Alone[I], Shared[I], Files[I]);
    expectSameSolverWork(Alone[I], Shared[I], Files[I]);
  }
}

#endif // C4_SOURCE_DIR

TEST(OracleUnit, CachesCondObjectsAndSatVerdicts) {
  TypeRegistry Reg;
  const DataTypeSpec *Map = Reg.lookup("map");
  ASSERT_TRUE(Map);
  unsigned Put = Map->opIndex(*Map->findOp("put"));
  unsigned Get = Map->opIndex(*Map->findOp("get"));
  CommutativityOracle Oracle;
  const Cond &C1 = Oracle.notCommutes(*Map, Put, Get, CommuteMode::Plain);
  const Cond &C2 = Oracle.notCommutes(*Map, Put, Get, CommuteMode::Plain);
  EXPECT_EQ(&C1, &C2); // same memoized object
  OracleStats S = Oracle.stats();
  EXPECT_EQ(S.CondMisses, 1u);
  EXPECT_EQ(S.CondHits, 1u);

  // Distinct (ops, mode) keys get distinct entries.
  Oracle.notCommutes(*Map, Get, Put, CommuteMode::Plain);
  Oracle.notCommutes(*Map, Put, Get, CommuteMode::Far);
  EXPECT_EQ(Oracle.stats().CondMisses, 3u);

  // Satisfiability verdicts are cached per fact vector...
  EventFacts Src, Tgt;
  Src.push_back(ArgFact::symbol(1));
  Tgt.push_back(ArgFact::symbol(1));
  bool V1 = Oracle.notCommutesSatisfiable(*Map, Put, Get, CommuteMode::Plain,
                                          Src, Tgt);
  bool V2 = Oracle.notCommutesSatisfiable(*Map, Put, Get, CommuteMode::Plain,
                                          Src, Tgt);
  EXPECT_EQ(V1, V2);
  S = Oracle.stats();
  EXPECT_EQ(S.SatMisses, 1u);
  EXPECT_EQ(S.SatHits, 1u);

  // ...and distinguished by the facts.
  EventFacts Tgt2;
  Tgt2.push_back(ArgFact::symbol(2));
  Oracle.notCommutesSatisfiable(*Map, Put, Get, CommuteMode::Plain, Src,
                                Tgt2);
  EXPECT_EQ(Oracle.stats().SatMisses, 2u);
}
