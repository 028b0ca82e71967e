//===- tests/SmtTests.cpp - ϕ_cyclic encoder tests ------------------------===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Targeted tests of the SMT stage: solving single unfoldings directly,
/// query-value determination (a query with a visible creator cannot return
/// "absent"), transaction-completion semantics (no partial transactions in
/// models), fresh-unique-value axioms, counter-example extraction
/// validity flags, and that a long-lived Z3Env stays flat in memory.
///
//===----------------------------------------------------------------------===//

#include "abstract/Concretize.h"
#include "analysis/Analyzer.h"
#include "smt/Encoding.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

using namespace c4;

namespace {

class SmtFixture : public ::testing::Test {
public:
  SmtFixture() {
    M = Sch.addContainer("M", Reg.lookup("map"));
    T = Sch.addContainer("T", Reg.lookup("table"));
  }

  unsigned op(unsigned C, const char *Name) {
    const DataTypeSpec *Type = Sch.container(C).Type;
    return Type->opIndex(*Type->findOp(Name));
  }

  /// Solves every SC1-feasible unfolding of \p A at \p K sessions; returns
  /// the first counter-example found (if any).
  std::optional<CounterExample> solveAt(const AbstractHistory &A,
                                        unsigned K) {
    bool Truncated = false;
    std::vector<Unfolding> Us = enumerateUnfoldings(A, K, 10000, Truncated);
    for (const Unfolding &U : Us) {
      SSG G(U.H, AnalysisFeatures::all(), U.SessionTags);
      G.analyze();
      bool CT = false;
      std::vector<CandidateCycle> Cands = G.candidateCycles(64, CT);
      if (Cands.empty())
        continue;
      UnfoldingResult R =
          solveUnfolding(U, G, Cands, AnalysisFeatures::all());
      if (R.Status == UnfoldingResult::CycleFound)
        return R.CE;
    }
    return std::nullopt;
  }

  TypeRegistry Reg;
  Schema Sch;
  unsigned M = 0, T = 0;
};

} // namespace

TEST_F(SmtFixture, ModelsHaveCompleteTransactions) {
  // A transaction writing two fields never appears partially in a model.
  AbstractHistory A(Sch);
  unsigned Upd = A.addTransaction("upd");
  unsigned S1 = A.addEvent(Upd, T, op(T, "set"),
                           {AbsFact::free(), AbsFact::constant(1)});
  unsigned S2 = A.addEvent(Upd, T, op(T, "set"),
                           {AbsFact::free(), AbsFact::constant(2)});
  A.addEo(A.entry(Upd), S1);
  A.addEo(S1, S2);
  A.addInv(S1, S2, Cond::eq(Term::argSrc(0), Term::argTgt(0)));
  unsigned Get = A.addTransaction("get");
  unsigned G1 = A.addEvent(Get, T, op(T, "get"),
                           {AbsFact::free(), AbsFact::constant(1)});
  A.addEo(A.entry(Get), G1);
  A.allowAllSo();

  std::optional<CounterExample> CE = solveAt(A, 2);
  ASSERT_TRUE(CE.has_value()); // the long fork exists
  for (unsigned Txn = 0; Txn != CE->H.numTransactions(); ++Txn) {
    // Every upd instance carries both sets.
    unsigned Sets = 0;
    bool IsUpd = false;
    for (unsigned E : CE->H.txn(Txn).Events)
      if (CE->H.op(E).Name == "set") {
        ++Sets;
        IsUpd = true;
      }
    if (IsUpd) {
      EXPECT_EQ(Sets, 2u) << "partial transaction in model";
    }
  }
}

TEST_F(SmtFixture, QueryValuesRespectVisibleCreators) {
  // contains(r) with the creating set in the same session must return 1 in
  // every model: the guarded-add program has no violation (see the Fig. 11
  // discussion), because contains:0 with a visible creator is
  // value-inconsistent.
  AbstractHistory A(Sch);
  unsigned Create = A.addTransaction("create");
  unsigned Set = A.addEvent(Create, T, op(T, "set"),
                            {AbsFact::globalVar(A.addGlobalVar()),
                             AbsFact::constant(1)});
  A.addEo(A.entry(Create), Set);
  unsigned Check = A.addTransaction("check");
  unsigned Contains =
      A.addEvent(Check, T, op(T, "contains"), {AbsFact::globalVar(0)});
  unsigned Del = A.addEvent(Check, T, op(T, "del"), {AbsFact::globalVar(0)});
  A.addEo(A.entry(Check), Contains);
  // Delete only if present.
  A.addEo(Contains, Del, Cond::eq(Term::argSrc(1), Term::constant(1)));
  unsigned Exit = A.addMarker(Check, "exit");
  A.addEo(Del, Exit);
  A.addEo(Contains, Exit, Cond::eq(Term::argSrc(1), Term::constant(0)));
  A.allowAllSo();

  // Whatever the analysis reports, any extracted model must be
  // value-consistent: we check all found counter-examples satisfy S1.
  std::optional<CounterExample> CE = solveAt(A, 2);
  if (CE) {
    bool Legal = satisfiesLegality(CE->H, CE->S);
    EXPECT_TRUE(Legal);
  }
}

TEST_F(SmtFixture, FreshValuesForceObservedCreation) {
  // Figure 12 core: updates addressing a fresh row must have observed its
  // creation; the ⊗-cycle against the creator is impossible.
  AbstractHistory A(Sch);
  unsigned Row = A.addLocalVar();
  unsigned AddT = A.addTransaction("addRow");
  unsigned AddRow = A.addEvent(AddT, T, op(T, "add_row"), {});
  A.addEo(A.entry(AddT), AddRow);
  unsigned UpdT = A.addTransaction("upd");
  unsigned Set = A.addEvent(UpdT, T, op(T, "set"),
                            {AbsFact::localVar(Row), AbsFact::constant(1)});
  A.addEo(A.entry(UpdT), Set);
  unsigned GetT = A.addTransaction("get");
  unsigned Get = A.addEvent(GetT, T, op(T, "get"),
                            {AbsFact::localVar(Row), AbsFact::constant(1)});
  A.addEo(A.entry(GetT), Get);
  A.allowAllSo();

  AnalysisResult R = analyze(A);
  EXPECT_TRUE(R.Violations.empty()) << reportStr(A, R);

  AnalyzerOptions NoUnique;
  NoUnique.Features.UniqueValues = false;
  AnalysisResult R2 = analyze(A, NoUnique);
  // Without the fresh-value axioms the Fig. 12 false alarm appears (the
  // ablation also drops the freshness lower bound, so the witness may use
  // arbitrary identities).
  EXPECT_FALSE(R2.Violations.empty());
}

TEST_F(SmtFixture, CounterExamplesAreValidated) {
  AbstractHistory A(Sch);
  unsigned P = A.addTransaction("P");
  unsigned Put = A.addEvent(P, M, op(M, "put"), {});
  A.addEo(A.entry(P), Put);
  unsigned G = A.addTransaction("G");
  unsigned Get = A.addEvent(G, M, op(M, "get"), {});
  A.addEo(A.entry(G), Get);
  A.setMaySo(P, G);

  AnalysisResult R = analyze(A);
  ASSERT_FALSE(R.Violations.empty());
  EXPECT_TRUE(R.Violations.front().Validated);
  ASSERT_TRUE(R.Violations.front().CE.has_value());
  const CounterExample &CE = *R.Violations.front().CE;
  // The arbitration order of the extracted schedule is a permutation.
  std::vector<unsigned> Order = CE.S.arOrder();
  EXPECT_EQ(Order.size(), CE.H.numEvents());
  // The witness text mentions both transactions.
  EXPECT_NE(CE.Text.find("txn P"), std::string::npos);
  EXPECT_NE(CE.Text.find("txn G"), std::string::npos);
}

TEST_F(SmtFixture, NoCandidatesMeansNoCycle) {
  // Solving with an empty candidate list returns NoCycle immediately.
  AbstractHistory A(Sch);
  unsigned P = A.addTransaction("P");
  A.addEo(A.entry(P), A.addEvent(P, M, op(M, "put"), {}));
  A.allowAllSo();
  bool Truncated = false;
  std::vector<Unfolding> Us = enumerateUnfoldings(A, 2, 100, Truncated);
  ASSERT_FALSE(Us.empty());
  SSG G(Us[0].H, AnalysisFeatures::all(), Us[0].SessionTags);
  G.analyze();
  UnfoldingResult R =
      solveUnfolding(Us[0], G, {}, AnalysisFeatures::all());
  EXPECT_EQ(R.Status, UnfoldingResult::NoCycle);
}

/// Resident set size of this process, in bytes.
static size_t residentBytes() {
  std::ifstream In("/proc/self/statm");
  size_t Size = 0, Resident = 0;
  In >> Size >> Resident;
  return Resident * static_cast<size_t>(::sysconf(_SC_PAGESIZE));
}

TEST(Z3EnvLifetime, ResetsDoNotGrowMemory) {
  // Z3 interns every symbol in a process-wide table that never shrinks. A
  // solving thread keeps its env for the life of the process, so queries
  // that minted fresh names (a per-query prefix) would grow it forever:
  // this shape grows RSS by about 28 MB with fresh names per round and by
  // well under 1 MB with repeated ones.
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "AddressSanitizer quarantines freed memory, so RSS "
                  "cannot show whether it is reused";
#endif
  Z3Env Env;
  auto Query = [&] {
    Env.reset(/*Rlimit=*/0, /*WallMs=*/0);
    std::vector<z3::expr> Consts;
    for (unsigned I = 0; I != 1000; ++I)
      Consts.push_back(Env.intConst("x" + std::to_string(I)));
  };
  Query();
  size_t Before = residentBytes();
  for (unsigned Round = 0; Round != 500; ++Round)
    Query();
  size_t After = residentBytes();
  EXPECT_LT(After > Before ? After - Before : 0, size_t(8) << 20)
      << "RSS " << Before << " -> " << After << " bytes";
}
