//===- tests/DiskCacheTests.cpp - Cross-run cache persistence -------------===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the persistent cross-run cache stack: DiskCache crash safety
/// (torn and corrupt entries are misses, never errors; stale tmp files are
/// swept; a killed writer cannot publish a partial entry), fingerprint
/// sensitivity, AnalysisResult serialization, the end-to-end determinism
/// contract — a warm analyzeCached run must reproduce the cold run's
/// serialized result byte for byte on every example program — and the cost
/// contract of a verdict miss: it reads only its own key.
///
//===----------------------------------------------------------------------===//

#include "analysis/Pipeline.h"
#include "frontend/Frontend.h"
#include "passes/PassManager.h"
#include "support/DiskCache.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstdio>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace c4;

namespace {

/// Fresh cache directory per test, under gtest's temp dir.
std::string freshDir(const char *Name) {
  std::string Dir = testing::TempDir() + "c4cache_" + Name;
  // Best-effort clean slate (the fixed DiskCache layout only).
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

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << Path;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

void writeFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Bytes;
  ASSERT_TRUE(Out.good()) << Path;
}

TEST(DiskCache, PutGetRoundTrip) {
  DiskCache C(freshDir("roundtrip"));
  ASSERT_TRUE(C.enabled());
  EXPECT_FALSE(C.get("absent").has_value());
  C.put("key-1", "payload bytes \x01\x02\n with newline");
  auto Got = C.get("key-1");
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(*Got, "payload bytes \x01\x02\n with newline");
  // Overwrite wins.
  C.put("key-1", "second");
  EXPECT_EQ(C.get("key-1").value_or(""), "second");
  DiskCacheStats S = C.stats();
  EXPECT_EQ(S.Stores, 2u);
  EXPECT_EQ(S.Hits, 2u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Corrupt, 0u);
}

TEST(DiskCache, TruncatedEntryIsMissAndUnlinked) {
  DiskCache C(freshDir("truncated"));
  ASSERT_TRUE(C.enabled());
  C.put("victim", std::string(4096, 'x'));
  ASSERT_TRUE(C.get("victim").has_value());

  // Simulate a torn write published by some other path: cut the file short.
  std::string Path = C.entryPath("victim");
  std::string Bytes = readFile(Path);
  writeFile(Path, Bytes.substr(0, Bytes.size() / 2));

  EXPECT_FALSE(C.get("victim").has_value());
  EXPECT_EQ(C.stats().Corrupt, 1u);
  // The torn entry was unlinked so the next store repairs the slot.
  EXPECT_EQ(std::fopen(Path.c_str(), "rb"), nullptr);
  C.put("victim", "repaired");
  EXPECT_EQ(C.get("victim").value_or(""), "repaired");
}

TEST(DiskCache, CorruptPayloadFailsChecksum) {
  DiskCache C(freshDir("corrupt"));
  ASSERT_TRUE(C.enabled());
  C.put("victim", "the quick brown fox");
  std::string Path = C.entryPath("victim");
  std::string Bytes = readFile(Path);
  Bytes[Bytes.size() - 3] ^= 0x40; // flip a payload bit, keep the length
  writeFile(Path, Bytes);
  EXPECT_FALSE(C.get("victim").has_value());
  EXPECT_EQ(C.stats().Corrupt, 1u);
}

TEST(DiskCache, ForeignFileIsMissNotCrash) {
  DiskCache C(freshDir("foreign"));
  ASSERT_TRUE(C.enabled());
  writeFile(C.entryPath("alien"), "not a cache entry at all");
  EXPECT_FALSE(C.get("alien").has_value());
  EXPECT_EQ(C.stats().Corrupt, 1u);
}

TEST(DiskCache, KilledWriterLeavesNoEntryAndTmpIsSwept) {
  std::string Dir = freshDir("killed");
  {
    DiskCache C(Dir);
    ASSERT_TRUE(C.enabled());
  }
  // A writer killed mid-write leaves only a tmp file — the final name was
  // never renamed into place.
  writeFile(Dir + "/tmp/victim.12345.0", "half-written garbage");
  DiskCache C(Dir); // reopen: sweeps tmp/
  EXPECT_FALSE(C.get("victim").has_value());
  EXPECT_EQ(std::fopen((Dir + "/tmp/victim.12345.0").c_str(), "rb"),
            nullptr);
}

TEST(DiskCache, UnusableDirectoryDegradesToCold) {
  // Root path is an existing *file*: the cache must disable itself, and
  // every operation must be a safe no-op.
  std::string Path = testing::TempDir() + "c4cache_notadir";
  writeFile(Path, "occupied");
  DiskCache C(Path);
  EXPECT_FALSE(C.enabled());
  EXPECT_FALSE(C.get("k").has_value());
  C.put("k", "v"); // no-op, no crash
  EXPECT_FALSE(C.get("k").has_value());
}

TEST(DiskCache, HostileKeysCannotEscapeObjectsDir) {
  std::string Dir = freshDir("hostile");
  DiskCache C(Dir);
  ASSERT_TRUE(C.enabled());
  C.put("../../etc/passwd", "nope");
  // Sanitized into the objects directory; retrievable under the same key.
  EXPECT_EQ(C.get("../../etc/passwd").value_or(""), "nope");
  std::string Prefix = Dir + "/objects/";
  std::string Path = C.entryPath("../../etc/passwd");
  ASSERT_EQ(Path.find(Prefix), 0u);
  // No path separators survive in the file name: dots are harmless once
  // the slashes are gone, the name stays flat inside objects/.
  EXPECT_EQ(Path.find('/', Prefix.size()), std::string::npos);
}

TEST(Fingerprint, SensitiveToProgramAndOptions) {
  std::string A = readFile(std::string(C4_SOURCE_DIR) +
                           "/examples/c4l/fig11_add_follower.c4l");
  std::string B = readFile(std::string(C4_SOURCE_DIR) +
                           "/examples/c4l/uniqueness_bug.c4l");
  CompileResult PA = compileC4L(A), PA2 = compileC4L(A), PB = compileC4L(B);
  ASSERT_TRUE(PA.ok() && PA2.ok() && PB.ok());

  AnalyzerOptions O;
  std::string FpA = fingerprintAnalysis(*PA.Program->History, O);
  EXPECT_EQ(FpA.size(), 32u);
  // Deterministic across independent compilations of the same source.
  EXPECT_EQ(FpA, fingerprintAnalysis(*PA2.Program->History, O));
  // Different program, different key.
  EXPECT_NE(FpA, fingerprintAnalysis(*PB.Program->History, O));

  // Verdict-affecting options move the key...
  AnalyzerOptions OK2 = O;
  OK2.MaxK = O.MaxK + 1;
  EXPECT_NE(FpA, fingerprintAnalysis(*PA.Program->History, OK2));
  AnalyzerOptions ONoCom = O;
  ONoCom.Features.Commutativity = false;
  EXPECT_NE(FpA, fingerprintAnalysis(*PA.Program->History, ONoCom));
  AnalyzerOptions OBudget = O;
  OBudget.Budget.Rlimit += 1;
  EXPECT_NE(FpA, fingerprintAnalysis(*PA.Program->History, OBudget));

  // ...observability-only options do not.
  AnalyzerOptions OThreads = O;
  OThreads.NumThreads = 7;
  EXPECT_EQ(FpA, fingerprintAnalysis(*PA.Program->History, OThreads));
  AnalyzerOptions ONoOracle = O;
  ONoOracle.UseOracle = false;
  EXPECT_EQ(FpA, fingerprintAnalysis(*PA.Program->History, ONoOracle));
}

TEST(VerdictSerialization, RoundTripIsExact) {
  std::string Source = readFile(std::string(C4_SOURCE_DIR) +
                                "/examples/c4l/uniqueness_bug.c4l");
  CompileResult P = compileC4L(Source);
  ASSERT_TRUE(P.ok());
  AnalyzerOptions O;
  AnalysisResult R = analyze(*P.Program->History, O);
  ASSERT_FALSE(R.Violations.empty()) << "example should violate";

  std::string Blob = serializeResult(R);
  std::optional<AnalysisResult> Back = deserializeResult(Blob);
  ASSERT_TRUE(Back.has_value());
  // Re-serialization is the identity: every persisted field survived.
  EXPECT_EQ(serializeResult(*Back), Blob);
  EXPECT_EQ(Back->Violations.size(), R.Violations.size());
  EXPECT_EQ(Back->serializable(), R.serializable());
  EXPECT_EQ(verdictDigest(*Back), verdictDigest(R));

  // Damage in any field is a miss, not a misparse.
  EXPECT_FALSE(deserializeResult("").has_value());
  EXPECT_FALSE(deserializeResult("c4-verdict 2\n").has_value());
  EXPECT_FALSE(deserializeResult(Blob + "trailing junk\n").has_value());
  EXPECT_FALSE(
      deserializeResult(Blob.substr(0, Blob.size() / 2)).has_value());
}

/// Every example program's path.
std::vector<std::string> exampleFiles() {
  std::string ExampleDir = std::string(C4_SOURCE_DIR) + "/examples/c4l";
  std::vector<std::string> Examples;
  if (DIR *D = ::opendir(ExampleDir.c_str())) {
    while (struct dirent *E = ::readdir(D)) {
      std::string Name = E->d_name;
      if (Name.size() > 4 && Name.substr(Name.size() - 4) == ".c4l")
        Examples.push_back(ExampleDir + "/" + Name);
    }
    ::closedir(D);
  }
  return Examples;
}

/// The end-to-end determinism contract over every example program: cold
/// populates, a second AnalysisCache over the same directory serves warm,
/// and the serialized results must be byte-identical.
TEST(AnalysisCacheTest, WarmIsByteIdenticalToColdOnAllExamples) {
  std::vector<std::string> Examples = exampleFiles();
  ASSERT_GE(Examples.size(), 6u);

  std::string Dir = freshDir("determinism");
  std::vector<std::string> ColdBlobs;
  {
    AnalysisCache Cache(Dir);
    ASSERT_TRUE(Cache.enabled());
    for (const std::string &Path : Examples) {
      CompileResult P = compileC4L(readFile(Path));
      ASSERT_TRUE(P.ok()) << Path << ": " << P.Error;
      PassOptions PassOpts;
      PassOpts.Lint = false;
      ASSERT_TRUE(runPasses(*P.Program, PassOpts).Ok) << Path;
      AnalyzerOptions O;
      PipelineResult PR = analyzeCached(*P.Program->History, O,
                                        *P.Program->Registry, &Cache);
      EXPECT_FALSE(PR.CacheHit) << Path;
      ColdBlobs.push_back(serializeResult(PR.R));
    }
  }
  // A fresh cache object over the same directory: the warm pass runs from
  // disk, as a restarted process would.
  AnalysisCache Cache(Dir);
  for (size_t I = 0; I != Examples.size(); ++I) {
    CompileResult P = compileC4L(readFile(Examples[I]));
    ASSERT_TRUE(P.ok());
    PassOptions PassOpts;
    PassOpts.Lint = false;
    ASSERT_TRUE(runPasses(*P.Program, PassOpts).Ok);
    AnalyzerOptions O;
    PipelineResult PR = analyzeCached(*P.Program->History, O,
                                      *P.Program->Registry, &Cache);
    EXPECT_TRUE(PR.CacheHit) << Examples[I];
    EXPECT_EQ(serializeResult(PR.R), ColdBlobs[I]) << Examples[I];
  }
  EXPECT_EQ(Cache.verdictHits(), Examples.size());
}

/// Cold-path fallback: corrupting a cached verdict on disk must silently
/// re-analyze with an identical verdict and repair the entry.
TEST(AnalysisCacheTest, CorruptVerdictFallsBackColdAndRepairs) {
  std::string Path =
      std::string(C4_SOURCE_DIR) + "/examples/c4l/fig1_put_get.c4l";
  std::string Dir = freshDir("fallback");
  std::string ColdBlob, Fingerprint;
  {
    AnalysisCache Cache(Dir);
    CompileResult P = compileC4L(readFile(Path));
    ASSERT_TRUE(P.ok());
    AnalyzerOptions O;
    PipelineResult PR =
        analyzeCached(*P.Program->History, O, *P.Program->Registry, &Cache);
    ColdBlob = serializeResult(PR.R);
    Fingerprint = PR.Fingerprint;
  }
  // Corrupt the verdict entry on disk.
  {
    DiskCache Disk(Dir);
    std::string Key = "verdict-r1-" + Fingerprint;
    ASSERT_TRUE(Disk.get(Key).has_value());
    std::string EntryPath = Disk.entryPath(Key);
    writeFile(EntryPath, "garbage");
  }
  AnalysisCache Cache(Dir);
  CompileResult P = compileC4L(readFile(Path));
  ASSERT_TRUE(P.ok());
  AnalyzerOptions O;
  PipelineResult PR =
      analyzeCached(*P.Program->History, O, *P.Program->Registry, &Cache);
  EXPECT_FALSE(PR.CacheHit); // corrupt entry is a miss...
  // ...re-analyzed to the same verdict (stage timings differ between
  // independent cold runs; the conclusion must not).
  std::optional<AnalysisResult> ColdR = deserializeResult(ColdBlob);
  ASSERT_TRUE(ColdR.has_value());
  EXPECT_EQ(verdictDigest(PR.R), verdictDigest(*ColdR));
  // ...and the store was repaired: the next run rehydrates byte for byte.
  PipelineResult PR2 =
      analyzeCached(*P.Program->History, O, *P.Program->Registry, &Cache);
  EXPECT_TRUE(PR2.CacheHit);
  EXPECT_EQ(serializeResult(PR2.R), serializeResult(PR.R));
}

/// The stampede contract behind c4-serve's single-flight layer: many
/// threads requesting one fingerprint through a shared AnalysisCache cost
/// exactly one backend run, and every thread gets the identical blob —
/// whether it rode the flight or hit the disk right after the leader
/// stored.
TEST(AnalysisCacheTest, ConcurrentStampedeRunsBackendOnce) {
  std::string Path =
      std::string(C4_SOURCE_DIR) + "/examples/c4l/fig11_add_follower.c4l";
  CompileResult P = compileC4L(readFile(Path));
  ASSERT_TRUE(P.ok());
  PassOptions PassOpts;
  PassOpts.Lint = false;
  ASSERT_TRUE(runPasses(*P.Program, PassOpts).Ok);

  std::string Dir = freshDir("stampede");
  AnalysisCache Cache(Dir);
  ASSERT_TRUE(Cache.enabled());

  constexpr unsigned N = 8;
  std::atomic<unsigned> Ready{0};
  std::atomic<bool> Go{false};
  std::vector<std::string> Blobs(N);
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I != N; ++I)
    Threads.emplace_back([&, I] {
      ++Ready;
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      AnalyzerOptions O;
      PipelineResult PR =
          analyzeCached(*P.Program->History, O, *P.Program->Registry, &Cache);
      Blobs[I] = serializeResult(PR.R);
    });
  while (Ready.load() != N)
    std::this_thread::yield();
  Go.store(true, std::memory_order_release);
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Cache.backendRuns(), 1u);
  // Everyone who did not lead either waited on the flight or hit the
  // stored verdict — nothing fell through to a second analysis.
  EXPECT_EQ(Cache.verdictHits() + Cache.flightWaits(), N - 1);
  for (unsigned I = 1; I != N; ++I)
    EXPECT_EQ(Blobs[0], Blobs[I]);
}

/// flush() persists incremental snapshot growth and is idempotent — the
/// serving tier calls it on graceful drain.
TEST(AnalysisCacheTest, FlushPersistsIncrementalGrowth) {
  std::string Path =
      std::string(C4_SOURCE_DIR) + "/examples/c4l/fig11_add_follower.c4l";
  std::string Dir = freshDir("flush");
  size_t Records = 0, Txns = 0;
  {
    AnalysisCache Cache(Dir, /*Incremental=*/true);
    CompileResult P = compileC4L(readFile(Path));
    ASSERT_TRUE(P.ok());
    AnalyzerOptions O;
    analyzeCached(*P.Program->History, O, *P.Program->Registry, &Cache);
    Records = Cache.incrRecords();
    Txns = Cache.incrTxns();
    ASSERT_GT(Records, 0u) << "the example should reach the SMT stage";
    Cache.flush();
    Cache.flush(); // idempotent
  }
  AnalysisCache Reopened(Dir, /*Incremental=*/true);
  EXPECT_EQ(Reopened.incrRecords(), Records);
  EXPECT_EQ(Reopened.incrTxns(), Txns);
}

/// Renames the first transaction declared at the start of a line in
/// \p Source.
std::string renameFirstTxn(std::string Source) {
  size_t Decl = Source.find("\ntxn ");
  EXPECT_NE(Decl, std::string::npos) << "no transaction declaration";
  if (Decl != std::string::npos)
    Source.insert(Source.find_first_of(" ({", Decl + 5), "_renamed");
  return Source;
}

/// The cost contract of a verdict miss: opening a cache reads nothing, and
/// analyzing a first-seen program reads only its own verdict key (a miss)
/// and stores only its verdict — however many other verdicts the directory
/// holds. Nothing else is loaded into, or written back from, the run.
TEST(AnalysisCacheTest, VerdictMissReadsOnlyItsOwnKey) {
  std::string Dir = freshDir("miss_cost");
  std::vector<std::string> Examples = exampleFiles();
  ASSERT_GE(Examples.size(), 6u);
  {
    AnalysisCache Cache(Dir);
    for (const std::string &Path : Examples) {
      CompileResult P = compileC4L(readFile(Path));
      ASSERT_TRUE(P.ok()) << Path << ": " << P.Error;
      AnalyzerOptions O;
      analyzeCached(*P.Program->History, O, *P.Program->Registry, &Cache);
    }
    EXPECT_EQ(Cache.diskStats().Stores, Examples.size());
  }

  AnalysisCache Cache(Dir);
  ASSERT_TRUE(Cache.enabled());
  DiskCacheStats Open = Cache.diskStats();
  EXPECT_EQ(Open.Hits + Open.Misses + Open.Stores, 0u);

  CompileResult P = compileC4L(renameFirstTxn(readFile(
      std::string(C4_SOURCE_DIR) + "/examples/c4l/fig11_add_follower.c4l")));
  ASSERT_TRUE(P.ok()) << P.Error;
  AnalyzerOptions O;
  PipelineResult PR =
      analyzeCached(*P.Program->History, O, *P.Program->Registry, &Cache);
  EXPECT_FALSE(PR.CacheHit);
  DiskCacheStats D = Cache.diskStats();
  EXPECT_EQ(D.Hits, 0u);
  EXPECT_EQ(D.Misses, 1u);
  EXPECT_EQ(D.Corrupt, 0u);
  EXPECT_EQ(D.Stores, 1u);
}

} // namespace
