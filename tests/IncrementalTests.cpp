//===- tests/IncrementalTests.cpp - Incremental re-analysis layer ---------===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the incremental re-analysis layer: per-transaction content
/// digests (editing or adding one transaction never perturbs another's
/// digest; renames don't change any), snapshot serialization round-trips
/// (cycle records with their witness models included), and the end-to-end
/// differential contract — a warm re-analysis of an edited program through
/// a populated incremental cache must match a plain cold run of the edited
/// program on every verdict field and logical counter, replaying every
/// outcome the edit did not touch (cycles included) without reaching Z3,
/// with `--no-incremental` as the A/B escape hatch. Also the stage-time
/// ledger around the layer: replay lookups are charged to
/// `incremental_seconds` on parallel runs too, and no stage is counted
/// twice.
///
//===----------------------------------------------------------------------===//

#include "abstract/Concretize.h"
#include "analysis/Incremental.h"
#include "analysis/Pipeline.h"
#include "frontend/Frontend.h"
#include "history/DSG.h"
#include "history/Relations.h"

#include "gtest/gtest.h"

#include <cctype>
#include <dirent.h>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace c4;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << Path;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// Fresh cache directory per test, under gtest's temp dir.
std::string freshDir(const char *Name) {
  std::string Dir = testing::TempDir() + "c4incr_" + Name;
  for (const char *Sub : {"/objects", "/tmp"}) {
    std::string D = Dir + Sub;
    if (DIR *Handle = ::opendir(D.c_str())) {
      while (struct dirent *E = ::readdir(Handle)) {
        std::string N = E->d_name;
        if (N != "." && N != "..")
          ::remove((D + "/" + N).c_str());
      }
      ::closedir(Handle);
    }
  }
  std::remove((Dir + "/VERSION").c_str());
  return Dir;
}

/// Compiles \p Source, failing the test on a compile error.
CompiledProgram compile(const std::string &Source) {
  CompileResult R = compileC4L(Source);
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(*R.Program);
}

/// Name → content digest for every transaction of \p Source.
std::map<std::string, std::string> digestsByName(const std::string &Source) {
  CompiledProgram P = compile(Source);
  std::map<std::string, std::string> Out;
  for (unsigned T = 0; T != P.History->numTxns(); ++T)
    Out[P.History->txn(T).Name] = txnContentDigest(*P.History, T);
  return Out;
}

//===----------------------------------------------------------------------===//
// Per-transaction content digests
//===----------------------------------------------------------------------===//

const char *ThreeTxns = "container map M;\n"
                        "txn A(x, y) { M.put(x, y); }\n"
                        "txn B(z) { let v = M.get(z); return v; }\n"
                        "txn C(w) { M.put(w, 1); }\n";

TEST(TxnDigest, EditingOneTxnLeavesTheOthersUnchanged) {
  auto Base = digestsByName(ThreeTxns);
  auto Edited = digestsByName("container map M;\n"
                              "txn A(x, y) { M.put(x, y); }\n"
                              "txn B(z) { let v = M.get(z); return v; }\n"
                              "txn C(w) { M.put(w, 2); }\n");
  EXPECT_EQ(Base.at("A"), Edited.at("A"));
  EXPECT_EQ(Base.at("B"), Edited.at("B"));
  EXPECT_NE(Base.at("C"), Edited.at("C"));
}

TEST(TxnDigest, AddingATxnShiftsNoOtherDigest) {
  // A new transaction up front renumbers every global event id; the
  // digests localize event references, so the existing three survive.
  auto Base = digestsByName(ThreeTxns);
  auto Grown = digestsByName("container map M;\n"
                             "txn D(k) { M.put(k, 9); }\n"
                             "txn A(x, y) { M.put(x, y); }\n"
                             "txn B(z) { let v = M.get(z); return v; }\n"
                             "txn C(w) { M.put(w, 1); }\n");
  EXPECT_EQ(Base.at("A"), Grown.at("A"));
  EXPECT_EQ(Base.at("B"), Grown.at("B"));
  EXPECT_EQ(Base.at("C"), Grown.at("C"));
}

TEST(TxnDigest, RenamingIsInvisible) {
  auto Base = digestsByName(ThreeTxns);
  auto Renamed = digestsByName("container map M;\n"
                               "txn A(x, y) { M.put(x, y); }\n"
                               "txn Bee(z) { let v = M.get(z); return v; }\n"
                               "txn C(w) { M.put(w, 1); }\n");
  EXPECT_EQ(Base.at("A"), Renamed.at("A"));
  EXPECT_EQ(Base.at("B"), Renamed.at("Bee"));
  EXPECT_EQ(Base.at("C"), Renamed.at("C"));
}

TEST(TxnDigest, DistinctContentsGetDistinctDigests) {
  auto Base = digestsByName(ThreeTxns);
  EXPECT_NE(Base.at("A"), Base.at("B"));
  EXPECT_NE(Base.at("A"), Base.at("C"));
  EXPECT_NE(Base.at("B"), Base.at("C"));
}

TEST(TxnDigest, ContextDigestTracksOptionsNotIterationCaps) {
  CompiledProgram P = compile(ThreeTxns);
  std::vector<bool> Mask(P.History->numEvents(), true);
  AnalyzerOptions O;
  std::string Base = incrementalContextDigest(*P.History, O, Mask);

  // Caps shape how much work runs, not any per-query verdict: same context.
  AnalyzerOptions Caps;
  Caps.MaxK = 7;
  Caps.MaxUnfoldings = 17;
  Caps.DeadlineMs = 1234;
  EXPECT_EQ(Base, incrementalContextDigest(*P.History, Caps, Mask));

  // The display filter changes the event mask semantics; the budget
  // changes which queries can prove NoCycle. Both must split the context.
  AnalyzerOptions Display;
  Display.DisplayFilter = true;
  EXPECT_NE(Base, incrementalContextDigest(*P.History, Display, Mask));
  AnalyzerOptions Budget;
  Budget.Budget.Rlimit /= 2;
  EXPECT_NE(Base, incrementalContextDigest(*P.History, Budget, Mask));

  std::vector<bool> Partial = Mask;
  Partial.back() = false;
  EXPECT_NE(Base, incrementalContextDigest(*P.History, O, Partial));
}

//===----------------------------------------------------------------------===//
// Snapshot round-trips
//===----------------------------------------------------------------------===//

TEST(Snapshots, IncrementalRoundTrip) {
  IncrementalSnapshot S;
  // Keys are fingerprint digests — space-free by construction, which the
  // line format relies on.
  S.addRecord("key-1", {.Attempts = 1});
  S.addRecord("key-2", {.Attempts = 3,
                        .CtxReuses = 2,
                        .RlimitBudget = 500000});
  S.addTxn("digest-a");
  S.addTxn("digest-b");
  std::string Blob = S.serialize();
  auto Back = IncrementalSnapshot::deserialize(Blob);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->serialize(), Blob);
  EXPECT_EQ(Back->numRecords(), 2u);
  EXPECT_EQ(Back->numTxns(), 2u);
  EXPECT_TRUE(Back->hasTxn("digest-a"));
  EXPECT_FALSE(Back->hasTxn("digest-c"));
  const IncrRecord *R = Back->record("key-2");
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(R->Attempts, 3u);
  EXPECT_EQ(R->CtxReuses, 2u);
  EXPECT_EQ(R->RlimitBudget, 500000u);
  EXPECT_FALSE(R->Cycle);
  EXPECT_EQ(Back->record("absent"), nullptr);

  EXPECT_FALSE(IncrementalSnapshot::deserialize("").has_value());
  EXPECT_FALSE(IncrementalSnapshot::deserialize("garbage\n").has_value());
  EXPECT_FALSE(
      IncrementalSnapshot::deserialize(Blob.substr(0, Blob.size() / 2))
          .has_value());
}

/// A small witness model: two present transactions of three, the second
/// seeing the first, with negative and 64-bit values.
WitnessModel sampleWitness() {
  WitnessModel W;
  W.Cycle = 2;
  W.TxnPresent = {true, false, true};
  W.TxnPos = {4, 0, -1};
  W.Vis = {{false, false, false}, {false, false, false}, {true, false, false}};
  W.EvPresent = {true, false, true, true};
  W.EvPos = {0, 0, 1, 0};
  W.Vals = {{7, -3}, {0}, {}, {int64_t{1} << 40}};
  return W;
}

TEST(Snapshots, CycleRecordWithWitnessRoundTrip) {
  IncrementalSnapshot S;
  S.addRecord("bounded-cycle", {.Attempts = 1,
                                .CtxReuses = 3,
                                .RlimitBudget = 9000,
                                .Cycle = true,
                                .Witness = sampleWitness()});
  S.addRecord("generalize-cycle", {.Attempts = 1, .Cycle = true});
  S.addRecord("no-cycle", {.Attempts = 1});
  std::string Blob = S.serialize();
  auto Back = IncrementalSnapshot::deserialize(Blob);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->serialize(), Blob);
  const IncrRecord *R = Back->record("bounded-cycle");
  ASSERT_NE(R, nullptr);
  EXPECT_TRUE(R->Cycle);
  EXPECT_EQ(R->CtxReuses, 3u);
  ASSERT_TRUE(R->Witness.has_value());
  EXPECT_EQ(*R->Witness, sampleWitness());
  R = Back->record("generalize-cycle");
  ASSERT_NE(R, nullptr);
  EXPECT_TRUE(R->Cycle);
  EXPECT_FALSE(R->Witness.has_value());
  R = Back->record("no-cycle");
  ASSERT_NE(R, nullptr);
  EXPECT_FALSE(R->Cycle);

  // Version skew: an older blob reads as no snapshot (an empty cache).
  for (const char *Old : {"c4-incr-snapshot 1", "c4-incr-snapshot 2"}) {
    std::string Skewed = Blob;
    Skewed.replace(0, Skewed.find('\n'), Old);
    EXPECT_FALSE(IncrementalSnapshot::deserialize(Skewed).has_value());
  }

  // A truncated witness line, a missing one and trailing junk all fail.
  size_t W = Blob.find("\nw ");
  ASSERT_NE(W, std::string::npos);
  size_t WEnd = Blob.find('\n', W + 1);
  std::string Line = Blob.substr(W + 1, WEnd - W - 1);
  auto WithLine = [&](const std::string &L) {
    return Blob.substr(0, W + 1) + L + Blob.substr(WEnd);
  };
  std::string Truncated = Line.substr(0, Line.rfind(' '));
  EXPECT_TRUE(IncrementalSnapshot::deserialize(WithLine(Line)).has_value());
  EXPECT_FALSE(
      IncrementalSnapshot::deserialize(WithLine(Truncated)).has_value());
  EXPECT_FALSE(IncrementalSnapshot::deserialize(WithLine(Line + " 5"))
                   .has_value());
  EXPECT_FALSE(
      IncrementalSnapshot::deserialize(Blob.substr(0, W + 1)).has_value());
}

TEST(Snapshots, StoreConsultsOnlyTheBase) {
  IncrementalSnapshot Base;
  Base.addRecord("in-base", {.Attempts = 1, .RlimitBudget = 42});
  IncrementalStore Store(&Base);
  EXPECT_NE(Store.lookup("in-base"), nullptr);
  Store.record("fresh", {.Attempts = 2, .CtxReuses = 1, .RlimitBudget = 43});
  // Determinism contract: the fresh overlay is invisible to lookups.
  EXPECT_EQ(Store.lookup("fresh"), nullptr);
  EXPECT_EQ(Store.hits(), 1u);
  EXPECT_EQ(Store.misses(), 1u);
  IncrementalSnapshot Out;
  Store.exportInto(Out);
  EXPECT_NE(Out.record("fresh"), nullptr);
  EXPECT_EQ(Out.record("in-base"), nullptr);
}

//===----------------------------------------------------------------------===//
// End-to-end differential: warm edit == plain cold
//===----------------------------------------------------------------------===//

/// The same normalization the bench differential applies (see
/// bench/bench_table1.cpp stripIncrementalValues): wall times, solver
/// resource telemetry, cache-state-dependent counters and model-chosen
/// counterexample witness text. Verdict structure and logical counters
/// stay, and must match byte for byte.
std::string stripVolatile(const std::string &Blob) {
  static const char *const Strip[] = {
      "backend_seconds",     "ssg_seconds",
      "enum_seconds",        "smt_seconds",
      "incremental_seconds", "validate_seconds",
      "rlimit_spent",        "smt_retries",
      "smt_solves",          "sat_cache_hits",
      "sat_cache_misses",    "cond_cache_hits",
      "cond_cache_misses",   "txn_fingerprint_hits",
      "solver_ctx_reuses",   "v.ce",
  };
  std::string Out;
  size_t Pos = 0;
  while (Pos < Blob.size()) {
    size_t End = Blob.find('\n', Pos);
    if (End == std::string::npos)
      End = Blob.size();
    std::string Line = Blob.substr(Pos, End - Pos);
    std::string Key = Line.substr(0, Line.find(' '));
    bool Stripped = false;
    for (const char *S : Strip)
      if (Key == S) {
        Out += Key;
        Out += '\n';
        Stripped = true;
        break;
      }
    if (!Stripped) {
      Out += Line;
      Out += '\n';
    }
    Pos = End + 1;
  }
  return Out;
}

/// Renames the last `txn`-declared transaction of \p Source by appending
/// "_edited" — the invalidation-granularity litmus edit the bench uses.
std::string renameLastTxn(const std::string &Source) {
  size_t Decl = Source.rfind("\ntxn ");
  if (Decl == std::string::npos)
    return std::string();
  size_t NameBegin = Decl + 5;
  size_t NameEnd = NameBegin;
  while (NameEnd < Source.size() &&
         (std::isalnum(static_cast<unsigned char>(Source[NameEnd])) ||
          Source[NameEnd] == '_'))
    ++NameEnd;
  return Source.substr(0, NameEnd) + "_edited" + Source.substr(NameEnd);
}

PipelineResult analyzeSource(const std::string &Source, AnalysisCache *Cache,
                             bool UseIncremental = true) {
  CompiledProgram P = compile(Source);
  AnalyzerOptions O;
  O.UseIncremental = UseIncremental;
  return analyzeCached(*P.History, O, *P.Registry, Cache);
}

/// Every examples/c4l program, sorted by file name.
std::vector<std::string> exampleSources() {
  std::vector<std::string> Names;
  std::string ExampleDir = std::string(C4_SOURCE_DIR) + "/examples/c4l";
  if (DIR *Handle = ::opendir(ExampleDir.c_str())) {
    while (struct dirent *E = ::readdir(Handle)) {
      std::string N = E->d_name;
      if (N.size() > 4 && N.substr(N.size() - 4) == ".c4l")
        Names.push_back(N);
    }
    ::closedir(Handle);
  }
  std::sort(Names.begin(), Names.end());
  std::vector<std::string> Sources;
  for (const std::string &N : Names)
    Sources.push_back(readFile(ExampleDir + "/" + N));
  return Sources;
}

/// The benchmark's outside re-check of a witness: it concretizes \p A and
/// its schedule's DSG is cyclic.
bool witnessHolds(const CounterExample &CE, const AbstractHistory &A) {
  if (!findConcretization(CE.H, A).has_value())
    return false;
  EventRelations Rel(CE.H);
  return buildDSG(CE.H, computeDependencies(CE.H, CE.S, Rel)).hasCycle();
}

/// Per violation, its (inconclusive, validated) marks.
std::vector<std::pair<bool, bool>> marks(const AnalysisResult &R) {
  std::vector<std::pair<bool, bool>> Out;
  for (const Violation &V : R.Violations)
    Out.emplace_back(V.Inconclusive, V.Validated);
  return Out;
}

TEST(IncrementalDifferential, WarmEditMatchesPlainColdOnEveryExample) {
  std::vector<std::string> Sources = exampleSources();
  ASSERT_FALSE(Sources.empty());

  // Per program, its own cache directory: incremental reuse is a
  // per-program story, and the per-example scoping keeps every warm run
  // a clean same-program differential against its plain cold reference
  // (same scoping as bench_table1 --incremental).
  uint64_t TxnHits = 0;
  unsigned Idx = 0, Witnesses = 0;
  for (const std::string &S : Sources) {
    std::string Dir =
        freshDir(("differential" + std::to_string(Idx++)).c_str());
    // Cold-populate the incremental cache with the unedited program.
    {
      AnalysisCache Cache(Dir, /*Incremental=*/true);
      ASSERT_TRUE(Cache.enabled());
      analyzeSource(S, &Cache);
      EXPECT_GT(Cache.incrTxns(), 0u);
    }
    // Edit one transaction; a warm run through the populated cache
    // (reopened from disk, as a restarted tool would see it) must match a
    // plain cold run of the edited program.
    AnalysisCache Cache(Dir, /*Incremental=*/true);
    ASSERT_TRUE(Cache.enabled());
    EXPECT_TRUE(Cache.incremental());
    std::string Edited = renameLastTxn(S);
    ASSERT_FALSE(Edited.empty());
    CompiledProgram P = compile(Edited);
    AnalyzerOptions O;
    PipelineResult Cold = analyzeCached(*P.History, O, *P.Registry, nullptr);
    PipelineResult Warm = analyzeCached(*P.History, O, *P.Registry, &Cache);
    EXPECT_EQ(stripVolatile(serializeResult(Warm.R)),
              stripVolatile(serializeResult(Cold.R)));
    // A rename changes no content digest: every outcome replays, cycles
    // included, and no query reaches Z3.
    EXPECT_EQ(Warm.R.SmtSolves, 0u) << Edited;
    EXPECT_EQ(marks(Warm.R), marks(Cold.R));
    // Replayed witnesses are full counter-examples of the edited program.
    for (const Violation &V : Warm.R.Violations) {
      if (V.Inconclusive)
        continue;
      ASSERT_TRUE(V.CE.has_value());
      EXPECT_TRUE(witnessHolds(*V.CE, *P.History)) << V.CE->Text;
      ++Witnesses;
    }
    TxnHits += Warm.R.TxnFingerprintHits;
  }
  // The rename left every transaction's content digest intact, so the
  // warm runs must actually have recognized them.
  EXPECT_GT(TxnHits, 0u);
  EXPECT_GT(Witnesses, 0u);
}

/// A long fork whose sessions must run getters before putters: session
/// merges are illegal, so the §7.2 generalization has to ask Z3 about
/// its segments, and finds a cycle. The last transaction, which the
/// rename edits, is an unrelated reader.
const char *OrderedFork = "container map M;\n"
                          "container map N;\n"
                          "txn P(x, y) { M.put(x, y); }\n"
                          "txn G(z) { let v = M.get(z); return v; }\n"
                          "order G -> P;\n"
                          "txn Q(k) { let w = N.get(k); return w; }\n";

TEST(IncrementalDifferential, GeneralizationCycleReplaysBlockedStatus) {
  std::string Dir = freshDir("generalize_cycle");
  {
    AnalysisCache Cache(Dir, /*Incremental=*/true);
    analyzeSource(OrderedFork, &Cache);
  }
  AnalysisCache Cache(Dir, /*Incremental=*/true);
  std::string Edited = renameLastTxn(OrderedFork);
  ASSERT_FALSE(Edited.empty());
  CompiledProgram P = compile(Edited);
  AnalyzerOptions O;
  QueryTrace Trace;
  O.Trace = &Trace;
  PipelineResult Warm = analyzeCached(*P.History, O, *P.Registry, &Cache);
  O.Trace = nullptr;
  PipelineResult Cold = analyzeCached(*P.History, O, *P.Registry, nullptr);
  EXPECT_FALSE(Cold.R.Generalized);
  EXPECT_EQ(stripVolatile(serializeResult(Warm.R)),
            stripVolatile(serializeResult(Cold.R)));
  EXPECT_EQ(Warm.R.SmtSolves, 0u);
  unsigned Blocked = 0;
  for (const QueryRecord &Q : Trace.records())
    if (std::string(Q.Stage) == "generalize") {
      EXPECT_TRUE(Q.Reused);
      Blocked += std::string(Q.Outcome) == "cycle";
    }
  EXPECT_GT(Blocked, 0u);
}

/// Two independent long forks: {putM, getM} on M and {putN, getN} on N.
const char *TwoForks = "container map M;\n"
                       "container map N;\n"
                       "txn putM(x, y) { M.put(x, y); }\n"
                       "txn getM(z) { let v = M.get(z); return v; }\n"
                       "txn putN(w) { N.put(w, 1); }\n"
                       "txn getN(u) { let v = N.get(u); return v; }\n";

/// One analysis of a program against a store over a given base.
struct StoreRun {
  AnalysisResult R;
  IncrementalSnapshot Fresh; ///< the records the run added
  uint64_t Hits = 0, Misses = 0;
};

StoreRun runWithStore(const CompiledProgram &P, const AnalyzerOptions &O,
                      const IncrementalSnapshot &Base) {
  IncrementalStore Store(&Base);
  AnalyzerOptions O2 = O;
  O2.Incremental = &Store;
  StoreRun Out;
  Out.R = analyze(*P.History, O2);
  Store.exportInto(Out.Fresh);
  Out.Hits = Store.hits();
  Out.Misses = Store.misses();
  return Out;
}

/// Bounded-stage record key -> whether its unfolding instantiates \p Txn,
/// for every unfolding of \p P with candidate cycles. Mirrors the bounded
/// check's keying.
std::map<std::string, bool> boundedKeys(const CompiledProgram &P,
                                        const AnalyzerOptions &O,
                                        unsigned Txn) {
  const AbstractHistory &A = *P.History;
  std::vector<bool> Mask(A.numEvents(), true);
  std::string Ctx = incrementalContextDigest(A, O, Mask);
  std::map<std::string, bool> Out;
  for (unsigned K = 2; K <= O.MaxK; ++K) {
    bool Truncated = false;
    for (const Unfolding &U :
         enumerateUnfoldings(A, K, O.MaxUnfoldings, Truncated)) {
      SSG G(U.H, O.Features, U.SessionTags);
      G.setEventMask(std::vector<bool>(U.H.numEvents(), true));
      G.analyze();
      bool CandTruncated = false;
      std::vector<CandidateCycle> Cands =
          G.candidateCycles(O.MaxCandidateCycles, CandTruncated);
      if (Cands.empty())
        continue;
      std::vector<unsigned> Set = U.origTxnSet();
      Out[unfoldingRecordKey(Ctx, U, Cands, "bounded")] =
          std::binary_search(Set.begin(), Set.end(), Txn);
    }
  }
  return Out;
}

TEST(IncrementalDifferential, ContentEditReplaysUntouchedRecords) {
  // Change one constant of putN's body; the event count stays.
  std::string Edited = TwoForks;
  size_t At = Edited.find("N.put(w, 1)");
  ASSERT_NE(At, std::string::npos);
  Edited.replace(At, 11, "N.put(w, 2)");
  CompiledProgram P0 = compile(TwoForks);
  CompiledProgram P1 = compile(Edited);
  ASSERT_EQ(P0.History->numEvents(), P1.History->numEvents());
  unsigned PutN = 2;
  ASSERT_EQ(P1.History->txn(PutN).Name, "putN");

  // Through the cache, exactly as a restarted tool: the warm run matches
  // a plain cold run and re-solves only some of the queries.
  std::string Dir = freshDir("content_edit");
  {
    AnalysisCache Cache(Dir, /*Incremental=*/true);
    analyzeSource(TwoForks, &Cache);
  }
  AnalysisCache Cache(Dir, /*Incremental=*/true);
  PipelineResult Cold = analyzeSource(Edited, nullptr);
  PipelineResult Warm = analyzeSource(Edited, &Cache);
  EXPECT_EQ(stripVolatile(serializeResult(Warm.R)),
            stripVolatile(serializeResult(Cold.R)));
  EXPECT_EQ(marks(Warm.R), marks(Cold.R));
  EXPECT_GT(Warm.R.SmtSolves, 0u);
  EXPECT_LT(Warm.R.SmtSolves, Cold.R.SmtSolves);

  // Record by record: every bounded query of the edited program whose
  // unfolding lacks putN finds the unedited program's record, and the
  // edit invalidated every query whose unfolding has it.
  AnalyzerOptions O;
  O.NumThreads = 1;
  IncrementalSnapshot Empty;
  IncrementalSnapshot S0 = runWithStore(P0, O, Empty).Fresh;
  IncrementalSnapshot S1 = runWithStore(P1, O, Empty).Fresh;
  std::map<std::string, bool> Keys = boundedKeys(P1, O, PutN);
  unsigned Untouched = 0, Touched = 0;
  for (const auto &[Key, HasPutN] : Keys) {
    if (!S1.record(Key))
      continue; // not queried by the edited program
    if (HasPutN) {
      EXPECT_EQ(S0.record(Key), nullptr);
      ++Touched;
    } else {
      EXPECT_NE(S0.record(Key), nullptr);
      ++Untouched;
    }
  }
  EXPECT_GT(Untouched, 0u);
  EXPECT_GT(Touched, 0u);
  // The warm run over the unedited program's records solves exactly the
  // queries it could not find, and agrees with the cold run.
  StoreRun W = runWithStore(P1, O, S0);
  EXPECT_GT(W.Hits, 0u);
  EXPECT_EQ(W.R.SmtSolves, W.Misses);
  EXPECT_EQ(stripVolatile(serializeResult(W.R)),
            stripVolatile(serializeResult(analyze(*P1.History, O))));
}

TEST(IncrementalDifferential, NoIncrementalEscapeHatchAgreesWithPlain) {
  std::string Dir = freshDir("escape");
  std::string Source = readFile(std::string(C4_SOURCE_DIR) +
                                "/examples/c4l/uniqueness_bug.c4l");
  {
    AnalysisCache Cache(Dir, /*Incremental=*/true);
    ASSERT_TRUE(Cache.enabled());
    analyzeSource(Source, &Cache);
  }
  std::string Edited = renameLastTxn(Source);
  ASSERT_FALSE(Edited.empty());
  AnalysisCache Cache(Dir, /*Incremental=*/true);
  PipelineResult Plain = analyzeSource(Edited, nullptr);
  PipelineResult Off = analyzeSource(Edited, &Cache, /*UseIncremental=*/false);
  PipelineResult On = analyzeSource(Edited, &Cache, /*UseIncremental=*/true);
  // --no-incremental bypasses every reuse layer: no reuse counters at all.
  EXPECT_EQ(Off.R.TxnFingerprintHits, 0u);
  EXPECT_EQ(Off.R.SmtSolves, Plain.R.SmtSolves);
  // All three agree on verdicts and logical counters.
  EXPECT_EQ(stripVolatile(serializeResult(Off.R)),
            stripVolatile(serializeResult(Plain.R)));
  EXPECT_EQ(stripVolatile(serializeResult(On.R)),
            stripVolatile(serializeResult(Plain.R)));
}

//===----------------------------------------------------------------------===//
// Stage-time ledger
//===----------------------------------------------------------------------===//

TEST(StageLedger, ParallelRunsChargeReplayLookups) {
  // A warm two-thread run: every replayed record's WallMs is its lookup
  // time, all of which must land in incremental_seconds.
  std::string Source = readFile(std::string(C4_SOURCE_DIR) +
                                "/examples/c4l/fig12_fresh_rows.c4l");
  std::string Dir = freshDir("parallel_ledger");
  {
    AnalysisCache Cache(Dir, /*Incremental=*/true);
    analyzeSource(Source, &Cache);
  }
  AnalysisCache Cache(Dir, /*Incremental=*/true);
  CompiledProgram P = compile(renameLastTxn(Source));
  AnalyzerOptions O;
  O.NumThreads = 2;
  QueryTrace Trace;
  O.Trace = &Trace;
  PipelineResult Warm = analyzeCached(*P.History, O, *P.Registry, &Cache);
  ASSERT_FALSE(Warm.CacheHit);
  double Bounded = 0, All = 0;
  unsigned Replayed = 0;
  for (const QueryRecord &Q : Trace.records()) {
    if (!Q.Reused)
      continue;
    ++Replayed;
    All += Q.WallMs / 1000.0;
    if (std::string(Q.Stage) == "bounded")
      Bounded += Q.WallMs / 1000.0;
  }
  EXPECT_GT(Replayed, 1u);
  EXPECT_GT(Bounded, 0.0);
  EXPECT_GE(Warm.R.IncrementalSeconds * (1 + 1e-9), Bounded);
  EXPECT_GE(Warm.R.IncrementalSeconds * (1 + 1e-9), All);
}

TEST(StageLedger, StageSecondsNeverExceedBackend) {
  // With one thread the stage timers measure disjoint intervals of the
  // run, so their sum is bounded by its wall time, cold and warm. A warm
  // run that reaches Z3 zero times charges the SMT stage nothing — also
  // when generalization looks its chunks up (OrderedFork).
  std::vector<std::string> Sources = exampleSources();
  Sources.push_back(OrderedFork);
  unsigned Idx = 0;
  for (const std::string &S : Sources) {
    std::string Dir = freshDir(("ledger" + std::to_string(Idx++)).c_str());
    AnalyzerOptions O;
    O.NumThreads = 1;
    for (bool Warm : {false, true}) {
      // The cold pass populates the cache; the warm pass re-analyzes a
      // renamed copy, which misses the verdict layer.
      AnalysisCache Cache(Dir, /*Incremental=*/true);
      CompiledProgram P = compile(Warm ? renameLastTxn(S) : S);
      PipelineResult PR = analyzeCached(*P.History, O, *P.Registry, &Cache);
      ASSERT_FALSE(PR.CacheHit);
      const AnalysisResult &R = PR.R;
      double Stages = R.SSGSeconds + R.EnumSeconds + R.SmtSeconds +
                      R.IncrementalSeconds + R.ValidateSeconds;
      EXPECT_LE(Stages, R.BackendSeconds)
          << (Warm ? "warm" : "cold") << " run of\n" << S;
      if (Warm) {
        EXPECT_EQ(R.SmtSolves, 0u) << S;
        EXPECT_EQ(R.SmtSeconds, 0.0) << S;
      }
    }
  }
}

} // namespace
