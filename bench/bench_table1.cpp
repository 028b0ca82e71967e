//===- bench/bench_table1.cpp - Reproduces Table 1 ------------------------===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Table 1 of the paper: for each of the 28 benchmark
/// applications, the abstract history size (T/E), front-end and back-end
/// times, and the detected violations split into harmful (E), harmless (H)
/// and false alarms (F), unfiltered and with the §9.1 filters (atomic sets
/// and display code) enabled. Each row shows the paper's numbers alongside
/// for shape comparison (absolute counts differ: the models approximate the
/// original apps; see EXPERIMENTS.md).
///
/// Also prints the §9.2 summary: SSG-flagged unfoldings refuted by the SMT
/// stage per domain, and average violations per project before/after
/// filtering.
///
/// `--governance <file>` additionally traces every solver query of the
/// suite and writes a JSON aggregate: per-stage query counts, retry rates,
/// rlimit spend and the suite's wall time — the regression baseline for the
/// solver resource-governance layer.
///
/// The history-reduction passes run by default between compilation and
/// analysis (`--no-passes` disables them). `--passes <file>` additionally
/// analyzes every app twice — raw and reduced — compares the verdicts
/// (they must match; a mismatch is a soundness regression and fails the
/// run), and writes BENCH_passes.json with per-app and suite-wide event,
/// SSG-edge and SMT-query counts before/after reduction. The reduced
/// corpus is additionally analyzed a third time with the relational-domain
/// prefilter disabled: the verdicts must again match byte for byte (the
/// prefilter may only skip Z3 work, never change an answer), and the JSON
/// gains the prefilter kill fraction, domain time and on/off wall clocks.
///
/// `--serve-sim <file>` simulates the c4-serve cross-run cache instead of
/// printing the table: every app is analyzed twice through one
/// AnalysisCache rooted in a fresh temp directory — a cold pass that
/// populates the verdict and oracle layers, then a warm pass that must hit
/// on every request with a byte-identical serialized result (a mismatch or
/// warm miss fails the run). Writes the warm-vs-cold timing aggregate to
/// the given file (BENCH_serve.json in CI).
///
/// `--incremental <file>` measures the incremental re-analysis layers:
/// every app is analyzed cold through an incremental AnalysisCache (a
/// per-app subdirectory of a fresh temp directory — the warm cache must
/// derive only from the same program, see runIncremental), then a
/// scripted one-transaction edit (a rename, the
/// invalidation-granularity litmus test) is applied to its source and the
/// edited program is analyzed twice — once plain-cold as the reference and
/// once warm through the populated cache. The warm-edit verdicts must be
/// byte-identical to the cold reference (timing and cache-state counters
/// normalized), and the warm-edit pass must not reach Z3 at all
/// (`smt_solves` 0: a rename changes no content digest, so every outcome,
/// cycles included, replays). Writes the aggregate — wall times, solve
/// counts, fingerprint and pair-verdict reuse — to the given file
/// (BENCH_incremental.json in CI).
///
/// `--fleet <file>` is the serving tier's load generator and soak harness:
/// it spawns a real c4-serve process on a loopback TCP port and drives the
/// corpus against it in three phases — per app, a stampede of identical
/// concurrent requests that must cost exactly one backend run
/// (single-flight); then `--fleet-clients` concurrent closed-loop client
/// connections (default 1000) each issuing `--fleet-requests` warm
/// requests (default 4); finally SIGTERM, which must drain cleanly to
/// exit 0. Every reply is checked byte-identical (modulo per-run timings)
/// against an in-process single-process reference analysis, and the
/// server must finish with zero dropped replies. Writes p50/p99 latency
/// and requests/sec to the `single_process` section of the given file
/// (BENCH_fleet.json in CI); any mismatch, drop or unclean drain fails
/// the run.
///
/// `--fleet <file> --sharded` runs the same corpus and client fleet
/// against the sharded topology instead: a c4-router front supervising
/// `--fleet-workers` c4-serve processes (default 4). On top of the
/// single-process assertions (fleet-wide single-flight on stampedes,
/// zero dropped replies, clean SIGTERM drain with no orphaned workers)
/// it injects a fault — one worker is SIGKILLed midway through the soak,
/// and every reply must still arrive verdict-correct — and asserts the
/// shared snapshot tier moved facts between workers and that rendezvous
/// stickiness kept total backend runs below the Apps x Workers an
/// unrouted fleet would spend. Replies are compared to the reference by
/// verdict (not counter bytes: each worker's cache evolves along its own
/// shard). Writes the `sharded` section of the same file, preserving the
/// `single_process` one.
///
//===----------------------------------------------------------------------===//

#include "analysis/Pipeline.h"
#include "apps/Apps.h"
#include "frontend/Frontend.h"
#include "passes/PassManager.h"
#include "support/Json.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace c4;
using namespace c4bench;

namespace {

struct Counts {
  unsigned E = 0, H = 0, F = 0;
  unsigned total() const { return E + H + F; }
};

Counts classifyAll(const BenchApp &App, const AnalysisResult &R) {
  Counts C;
  for (const Violation &V : R.Violations) {
    switch (classify(App, V.TxnNames)) {
    case ViolationClass::Harmful:
      ++C.E;
      break;
    case ViolationClass::Harmless:
      ++C.H;
      break;
    case ViolationClass::FalseAlarm:
      ++C.F;
      break;
    }
  }
  return C;
}

/// Canonical verdict string: serializability bit plus the sorted set of
/// violations (transaction names + triage class). Byte-equal keys mean the
/// analysis reached the same conclusion.
std::string verdictKey(const AnalysisResult &R) {
  std::vector<std::string> Keys;
  for (const Violation &V : R.Violations) {
    std::string K;
    for (const std::string &N : V.TxnNames) {
      K += N;
      K += ',';
    }
    K += V.Inconclusive ? '?' : (V.Validated ? '!' : '~');
    Keys.push_back(std::move(K));
  }
  std::sort(Keys.begin(), Keys.end());
  std::string Out = R.serializable() ? "S|" : "V|";
  for (const std::string &K : Keys) {
    Out += K;
    Out += ';';
  }
  return Out;
}

/// Per-app before/after measurements for the --passes comparison.
struct PassRow {
  const char *Name;
  unsigned EventsBefore, EventsAfter;
  unsigned EdgesBefore, EdgesAfter;
  unsigned QueriesBefore, QueriesAfter;
  bool VerdictMatch;
  unsigned QueriesPrefiltered; // reduced runs: queries the domain killed
  unsigned QueriesNoPrefilter; // reduced runs with the prefilter disabled
  bool PrefilterMatch;         // prefilter on/off verdicts agree
};

/// Per-app cold/warm measurements for the --serve-sim comparison.
struct ServeRow {
  const char *Name;
  double ColdSeconds, WarmSeconds;
  bool WarmHit;   // both warm requests were verdict-cache hits
  bool Identical; // serialized warm results byte-equal the cold ones
};

/// Removes a DiskCache directory tree (root/{VERSION,objects/*,tmp/*}).
/// Only the fixed two-level layout the cache creates — no recursion.
void removeCacheDir(const std::string &Root) {
  for (const char *Sub : {"/objects", "/tmp"}) {
    std::string Dir = Root + Sub;
    if (DIR *D = ::opendir(Dir.c_str())) {
      while (struct dirent *E = ::readdir(D)) {
        std::string Name = E->d_name;
        if (Name != "." && Name != "..")
          ::unlink((Dir + "/" + Name).c_str());
      }
      ::closedir(D);
    }
    ::rmdir(Dir.c_str());
  }
  ::unlink((Root + "/VERSION").c_str());
  ::rmdir(Root.c_str());
}

/// --serve-sim: warm-vs-cold comparison through the cross-run cache.
/// Every app is analyzed (unfiltered + filtered, like the table) through
/// an AnalysisCache rooted in a fresh temp directory; then the cache
/// object is torn down and a second instance — which must re-read the
/// oracle snapshot and verdicts from disk — replays the identical
/// requests. Every warm request must hit, and its serialized result must
/// be byte-identical to the cold one. Writes the timing aggregate to
/// \p OutPath and returns the process exit code.
int runServeSim(const char *OutPath, bool Quick, bool NoPasses) {
  char DirTemplate[] = "/tmp/c4-serve-sim-XXXXXX";
  if (!::mkdtemp(DirTemplate)) {
    std::fprintf(stderr, "error: cannot create temp cache directory\n");
    return 1;
  }
  std::string CacheDir = DirTemplate;

  std::printf("Serve simulation: cold vs warm analysis through the "
              "cross-run cache\n(cache dir %s, removed on exit)\n\n",
              CacheDir.c_str());

  // One request = compile + passes + analyzeCached, unfiltered and
  // filtered. Frontend work is repeated on both passes (the service
  // recompiles every request too); only the analysis is timed, since
  // that is what the cache elides.
  struct AppResult {
    std::string BlobU, BlobF;
    bool Hit = false;
    double Seconds = 0;
    bool Ok = false;
  };
  auto RunApp = [&](const BenchApp &App, AnalysisCache &Cache) {
    AppResult Out;
    CompileResult Compiled = compileC4L(App.Source);
    if (!Compiled.ok()) {
      std::fprintf(stderr, "%s: COMPILE ERROR: %s\n", App.Name,
                   Compiled.Error.c_str());
      return Out;
    }
    CompiledProgram &P = *Compiled.Program;
    if (!NoPasses) {
      PassOptions PassOpts;
      PassOpts.Lint = false;
      PassResult Passes = runPasses(P, PassOpts);
      if (!Passes.Ok) {
        std::fprintf(stderr, "%s: PASS ERROR: %s\n", App.Name,
                     Passes.Error.c_str());
        return Out;
      }
    }
    AnalyzerOptions Unfiltered;
    AnalyzerOptions Filtered;
    Filtered.DisplayFilter = true;
    Filtered.UseAtomicSets = !P.AtomicSets.empty();
    Filtered.AtomicSets = P.AtomicSets;
    auto Start = std::chrono::steady_clock::now();
    PipelineResult RU =
        analyzeCached(*P.History, Unfiltered, *P.Registry, &Cache);
    PipelineResult RF =
        analyzeCached(*P.History, Filtered, *P.Registry, &Cache);
    Out.Seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
    Out.BlobU = serializeResult(RU.R);
    Out.BlobF = serializeResult(RF.R);
    Out.Hit = RU.CacheHit && RF.CacheHit;
    Out.Ok = true;
    return Out;
  };

  std::vector<ServeRow> Rows;
  std::vector<AppResult> Cold;
  unsigned Projects = 0, Failures = 0;
  double ColdSeconds = 0, WarmSeconds = 0;
  unsigned WarmMisses = 0, Mismatches = 0;

  {
    AnalysisCache Cache(CacheDir);
    if (!Cache.enabled()) {
      std::fprintf(stderr, "error: cannot open cache directory %s\n",
                   CacheDir.c_str());
      return 1;
    }
    for (const BenchApp &App : benchApps()) {
      if (Quick && Projects >= 6)
        break;
      AppResult R = RunApp(App, Cache);
      if (!R.Ok) {
        ++Failures;
        continue;
      }
      ++Projects;
      ColdSeconds += R.Seconds;
      Cold.push_back(std::move(R));
    }
  }

  // Fresh cache object over the same directory: the warm pass must be
  // served from disk, as a restarted c4-serve process would be.
  {
    AnalysisCache Cache(CacheDir);
    unsigned Done = 0;
    for (const BenchApp &App : benchApps()) {
      if (Done == Cold.size())
        break;
      AppResult R = RunApp(App, Cache);
      if (!R.Ok)
        continue; // compiled cold, so this cannot happen
      const AppResult &C = Cold[Done++];
      bool Identical = R.BlobU == C.BlobU && R.BlobF == C.BlobF;
      if (!R.Hit)
        ++WarmMisses;
      if (!Identical)
        ++Mismatches;
      WarmSeconds += R.Seconds;
      Rows.push_back({App.Name, C.Seconds, R.Seconds, R.Hit, Identical});
    }
  }
  removeCacheDir(CacheDir);

  std::printf("  %-18s %10s %10s %9s  %s\n", "Program", "cold [s]",
              "warm [s]", "speedup", "verdict");
  for (const ServeRow &Row : Rows) {
    double Speedup =
        Row.WarmSeconds > 0 ? Row.ColdSeconds / Row.WarmSeconds : 0.0;
    std::printf("  %-18s %10.3f %10.3f %8.1fx  %s%s\n", Row.Name,
                Row.ColdSeconds, Row.WarmSeconds, Speedup,
                Row.Identical ? "identical" : "MISMATCH",
                Row.WarmHit ? "" : " (warm miss)");
  }
  double Speedup = WarmSeconds > 0 ? ColdSeconds / WarmSeconds : 0.0;
  std::printf("  %-18s %10.3f %10.3f %8.1fx  %s\n", "TOTAL", ColdSeconds,
              WarmSeconds, Speedup,
              Mismatches || WarmMisses ? "FAILURES" : "all identical");

  FILE *F = std::fopen(OutPath, "w");
  if (!F) {
    std::fprintf(stderr, "error: cannot write %s\n", OutPath);
    return 1;
  }
  std::fprintf(F,
               "{\n  \"projects\": %u,\n  \"cold_seconds\": %.3f,\n"
               "  \"warm_seconds\": %.3f,\n  \"speedup\": %.1f,\n"
               "  \"warm_misses\": %u,\n  \"verdict_mismatches\": %u,\n"
               "  \"apps\": [\n",
               Projects, ColdSeconds, WarmSeconds, Speedup, WarmMisses,
               Mismatches);
  for (size_t I = 0; I != Rows.size(); ++I) {
    const ServeRow &Row = Rows[I];
    std::fprintf(F,
                 "    {\"name\": \"%s\", \"cold_seconds\": %.3f, "
                 "\"warm_seconds\": %.3f, \"warm_hit\": %s, "
                 "\"verdict_identical\": %s}%s\n",
                 Row.Name, Row.ColdSeconds, Row.WarmSeconds,
                 Row.WarmHit ? "true" : "false",
                 Row.Identical ? "true" : "false",
                 I + 1 == Rows.size() ? "" : ",");
  }
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
  std::printf("  serve comparison written to %s\n", OutPath);
  return Failures || WarmMisses || Mismatches ? 1 : 0;
}

//===----------------------------------------------------------------------===//
// --incremental: warm-edit re-analysis through the incremental layers.
//===----------------------------------------------------------------------===//

/// The scripted one-transaction edit: renames the last top-level
/// transaction declaration in \p Source (appending "_edited" to its name).
/// A rename is the invalidation-granularity litmus test — every
/// transaction's *content* digest survives it, so the incremental layers
/// must replay everything except queries whose outcome mentions the name
/// (counter-examples). Returns the empty string when no declaration is
/// found.
std::string renameOneTxn(const std::string &Source) {
  size_t Last = std::string::npos;
  for (size_t P = 0; (P = Source.find("txn ", P)) != std::string::npos;
       P += 4)
    if (P == 0 || Source[P - 1] == '\n')
      Last = P;
  if (Last == std::string::npos)
    return std::string();
  size_t NameBegin = Last + 4;
  while (NameBegin < Source.size() && Source[NameBegin] == ' ')
    ++NameBegin;
  size_t NameEnd = NameBegin;
  while (NameEnd < Source.size() &&
         (std::isalnum(static_cast<unsigned char>(Source[NameEnd])) ||
          Source[NameEnd] == '_'))
    ++NameEnd;
  if (NameEnd == NameBegin)
    return std::string();
  return Source.substr(0, NameEnd) + "_edited" + Source.substr(NameEnd);
}

/// Strips the values of every field of a serialized AnalysisResult that
/// legitimately differs between a warm (cache-assisted) and a cold run of
/// the same program: wall times, solver resource accounting, every
/// cache-state-dependent reuse/lookup counter (see
/// AnalyzerOptions::UseIncremental — the layers are observability-only),
/// and the counterexample witness text. Witness constants are
/// model-chosen representatives: a Z3 context's history (how many chunks
/// the run actually solved before this one) legally changes which of the
/// many satisfying models it reports, the same way rlimit_spent jitters.
/// The violation *structure* — count, flags, original transaction sets and
/// names — is the verdict, and must match byte for byte, as must every
/// logical counter (smt_queries, prefilter, unfolding and SSG counts).
std::string stripIncrementalValues(const std::string &Blob) {
  static const char *const Strip[] = {
      "backend_seconds",     "ssg_seconds",
      "enum_seconds",        "smt_seconds",
      "prefilter_seconds",   "incremental_seconds",
      "validate_seconds",    "rlimit_spent",
      "smt_retries",         "smt_solves",
      "sat_cache_hits",      "sat_cache_misses",
      "sat_assist_proven",   "cond_cache_hits",
      "cond_cache_misses",   "txn_fingerprint_hits",
      "pair_verdicts_reused", "solver_ctx_reuses",
      "v.ce",
  };
  std::string Out;
  size_t Pos = 0;
  while (Pos < Blob.size()) {
    size_t End = Blob.find('\n', Pos);
    if (End == std::string::npos)
      End = Blob.size();
    std::string Line = Blob.substr(Pos, End - Pos);
    size_t Space = Line.find(' ');
    std::string Key = Space == std::string::npos ? Line : Line.substr(0, Space);
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

/// Per-app measurements for the --incremental comparison.
struct IncrRow {
  const char *Name;
  double ColdSeconds, WarmSeconds;
  unsigned ColdSolves, WarmSolves;
  uint64_t TxnHits, PairReused, CtxReuses;
  bool Identical;
};

/// --incremental: cold-populate, edit one transaction, re-analyze warm.
/// See the file comment. Returns the process exit code.
int runIncremental(const char *OutPath, bool Quick, bool NoPasses) {
  char DirTemplate[] = "/tmp/c4-incr-XXXXXX";
  if (!::mkdtemp(DirTemplate)) {
    std::fprintf(stderr, "error: cannot create temp cache directory\n");
    return 1;
  }
  std::string CacheDir = DirTemplate;

  std::printf("Incremental re-analysis: cold run, one-transaction edit, "
              "warm re-analysis\n(cache dir %s, removed on exit)\n\n",
              CacheDir.c_str());

  // One request = compile + passes + analysis, unfiltered and filtered
  // (the filtered variant exercises atomic-set sub-runs, which carry their
  // own incremental context). Cache null = plain cold reference.
  struct AppRun {
    std::string BlobU, BlobF;
    double Seconds = 0;
    AnalysisResult RU, RF;
    bool Ok = false;
  };
  auto RunApp = [&](const char *Name, const std::string &Source,
                    AnalysisCache *Cache) {
    AppRun Out;
    CompileResult Compiled = compileC4L(Source);
    if (!Compiled.ok()) {
      std::fprintf(stderr, "%s: COMPILE ERROR: %s\n", Name,
                   Compiled.Error.c_str());
      return Out;
    }
    CompiledProgram &P = *Compiled.Program;
    if (!NoPasses) {
      PassOptions PassOpts;
      PassOpts.Lint = false;
      PassResult Passes = runPasses(P, PassOpts);
      if (!Passes.Ok) {
        std::fprintf(stderr, "%s: PASS ERROR: %s\n", Name,
                     Passes.Error.c_str());
        return Out;
      }
    }
    AnalyzerOptions Unfiltered;
    AnalyzerOptions Filtered;
    Filtered.DisplayFilter = true;
    Filtered.UseAtomicSets = !P.AtomicSets.empty();
    Filtered.AtomicSets = P.AtomicSets;
    auto Start = std::chrono::steady_clock::now();
    PipelineResult RU =
        analyzeCached(*P.History, Unfiltered, *P.Registry, Cache);
    PipelineResult RF =
        analyzeCached(*P.History, Filtered, *P.Registry, Cache);
    Out.Seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
    Out.BlobU = serializeResult(RU.R);
    Out.BlobF = serializeResult(RF.R);
    Out.RU = std::move(RU.R);
    Out.RF = std::move(RF.R);
    Out.Ok = true;
    return Out;
  };

  unsigned Projects = 0, Failures = 0, Mismatches = 0, EditFailures = 0;
  double ColdSeconds = 0, WarmSeconds = 0;
  uint64_t ColdSolves = 0, WarmSolves = 0;
  uint64_t TxnHits = 0, PairReused = 0, CtxReuses = 0;
  std::vector<IncrRow> Rows;

  // Each app gets its own cache subdirectory: incremental re-analysis is
  // a per-program story (a developer edits one project and re-analyzes
  // against that project's cache), and scoping the cache keeps each
  // app's warm row a clean within-app measurement — a directory shared
  // across the corpus would pre-seed the oracle and record store with 27
  // other apps' entries and blur what the reuse columns mean.
  auto AppCacheDir = [&](const char *Name) {
    return CacheDir + "/" + Name;
  };

  // Phase 1: cold-populate each app's incremental cache with the unedited
  // program.
  const char *Only = ::getenv("C4_BENCH_INCR_ONLY"); // debug: one app
  for (const BenchApp &App : benchApps()) {
    if (Quick && Projects >= 6)
      break;
    AnalysisCache Cache(AppCacheDir(App.Name), /*Incremental=*/true);
    if (!Cache.enabled()) {
      std::fprintf(stderr, "error: cannot open cache directory %s\n",
                   AppCacheDir(App.Name).c_str());
      return 1;
    }
    ++Projects;
    if (Only && std::string(App.Name) != Only)
      continue;
    AppRun R = RunApp(App.Name, App.Source, &Cache);
    if (!R.Ok) {
      ++Failures;
      --Projects;
    }
  }

  // Phase 2: edit one transaction per app; analyze the edited program
  // plain-cold (the byte-identical reference) and warm through the app's
  // populated cache directory.
  {
    unsigned Done = 0;
    for (const BenchApp &App : benchApps()) {
      if (Done == Projects)
        break;
      if (Only && std::string(App.Name) != Only) {
        ++Done;
        continue;
      }
      // Fresh cache object over the populated per-app directory
      // (re-read from disk, as a restarted tool would).
      AnalysisCache Cache(AppCacheDir(App.Name), /*Incremental=*/true);
      std::string Edited = renameOneTxn(App.Source);
      if (Edited.empty()) {
        std::fprintf(stderr, "%s: EDIT FAILED: no txn declaration found\n",
                     App.Name);
        ++EditFailures;
        ++Done;
        continue;
      }
      AppRun Cold = RunApp(App.Name, Edited, nullptr);
      AppRun Warm = RunApp(App.Name, Edited, &Cache);
      ++Done;
      if (!Cold.Ok || !Warm.Ok) {
        ++EditFailures;
        continue;
      }
      bool Identical =
          stripIncrementalValues(Warm.BlobU) ==
              stripIncrementalValues(Cold.BlobU) &&
          stripIncrementalValues(Warm.BlobF) ==
              stripIncrementalValues(Cold.BlobF);
      if (!Identical) {
        ++Mismatches;
        // Debug aid: dump the normalized blobs for a diff. Pair with
        // C4_BENCH_INCR_ONLY=<app> to bisect a single program.
        if (::getenv("C4_BENCH_INCR_DUMP")) {
          auto Put = [&](const char *Tag, const std::string &S) {
            std::string Path = std::string("/tmp/c4dump_") + Tag + ".txt";
            std::ofstream(Path) << S;
          };
          Put("cold_U", stripIncrementalValues(Cold.BlobU));
          Put("warm_U", stripIncrementalValues(Warm.BlobU));
          Put("cold_F", stripIncrementalValues(Cold.BlobF));
          Put("warm_F", stripIncrementalValues(Warm.BlobF));
        }
      }
      unsigned CS = Cold.RU.SmtSolves + Cold.RF.SmtSolves;
      unsigned WS = Warm.RU.SmtSolves + Warm.RF.SmtSolves;
      IncrRow Row{App.Name,
                  Cold.Seconds,
                  Warm.Seconds,
                  CS,
                  WS,
                  Warm.RU.TxnFingerprintHits + Warm.RF.TxnFingerprintHits,
                  Warm.RU.PairVerdictsReused + Warm.RF.PairVerdictsReused,
                  Warm.RU.SolverCtxReuses + Warm.RF.SolverCtxReuses,
                  Identical};
      ColdSeconds += Cold.Seconds;
      WarmSeconds += Warm.Seconds;
      ColdSolves += CS;
      WarmSolves += WS;
      TxnHits += Row.TxnHits;
      PairReused += Row.PairReused;
      CtxReuses += Row.CtxReuses;
      Rows.push_back(Row);
    }
  }
  for (const BenchApp &App : benchApps())
    removeCacheDir(AppCacheDir(App.Name));
  ::rmdir(CacheDir.c_str());

  std::printf("  %-18s %9s %9s %7s %7s %6s  %s\n", "Program", "cold [s]",
              "warm [s]", "solves", "solves", "reuse", "verdict");
  for (const IncrRow &Row : Rows)
    std::printf("  %-18s %9.3f %9.3f %7u %7u %6llu  %s\n", Row.Name,
                Row.ColdSeconds, Row.WarmSeconds, Row.ColdSolves,
                Row.WarmSolves,
                static_cast<unsigned long long>(Row.PairReused),
                Row.Identical ? "identical" : "MISMATCH");
  bool SolvesOk = WarmSolves == 0;
  std::printf("  %-18s %9.3f %9.3f %7llu %7llu         %s\n", "TOTAL",
              ColdSeconds, WarmSeconds,
              static_cast<unsigned long long>(ColdSolves),
              static_cast<unsigned long long>(WarmSolves),
              Mismatches || EditFailures ? "FAILURES" : "all identical");
  std::printf("  warm-edit Z3 solves: %llu (target 0: %s)\n",
              static_cast<unsigned long long>(WarmSolves),
              SolvesOk ? "ok" : "MISSED");

  FILE *F = std::fopen(OutPath, "w");
  if (!F) {
    std::fprintf(stderr, "error: cannot write %s\n", OutPath);
    return 1;
  }
  std::fprintf(
      F,
      "{\n  \"projects\": %u,\n  \"cold_seconds\": %.3f,\n"
      "  \"warm_edit_seconds\": %.3f,\n  \"cold_smt_solves\": %llu,\n"
      "  \"warm_edit_smt_solves\": %llu,\n"
      "  \"txn_fingerprint_hits\": %llu,\n  \"pair_verdicts_reused\": %llu,\n"
      "  \"solver_ctx_reuses\": %llu,\n"
      "  \"verdict_mismatches\": %u,\n  \"edit_failures\": %u,\n"
      "  \"apps\": [\n",
      Projects, ColdSeconds, WarmSeconds,
      static_cast<unsigned long long>(ColdSolves),
      static_cast<unsigned long long>(WarmSolves),
      static_cast<unsigned long long>(TxnHits),
      static_cast<unsigned long long>(PairReused),
      static_cast<unsigned long long>(CtxReuses), Mismatches, EditFailures);
  for (size_t I = 0; I != Rows.size(); ++I) {
    const IncrRow &Row = Rows[I];
    std::fprintf(F,
                 "    {\"name\": \"%s\", \"cold_seconds\": %.3f, "
                 "\"warm_edit_seconds\": %.3f, \"cold_smt_solves\": %u, "
                 "\"warm_edit_smt_solves\": %u, \"pair_verdicts_reused\": "
                 "%llu, \"verdict_identical\": %s}%s\n",
                 Row.Name, Row.ColdSeconds, Row.WarmSeconds, Row.ColdSolves,
                 Row.WarmSolves,
                 static_cast<unsigned long long>(Row.PairReused),
                 Row.Identical ? "true" : "false",
                 I + 1 == Rows.size() ? "" : ",");
  }
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
  std::printf("  incremental comparison written to %s\n", OutPath);
  return Failures || Mismatches || EditFailures || !SolvesOk ? 1 : 0;
}

//===----------------------------------------------------------------------===//
// --fleet: load-generate a real c4-serve process over loopback TCP.
//===----------------------------------------------------------------------===//

/// A blocking client connection with line-buffered reads.
struct LineConn {
  int Fd = -1;
  std::string Buf;

  ~LineConn() { reset(); }
  void reset() {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
    Buf.clear();
  }

  bool connectTo(int Port, int TimeoutSec = 120) {
    reset();
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    sockaddr_in Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(static_cast<uint16_t>(Port));
    ::inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
        0) {
      reset();
      return false;
    }
    timeval TV{TimeoutSec, 0};
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &TV, sizeof(TV));
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    return true;
  }

  /// Connects to a Unix-domain socket (a sharded worker's backhaul
  /// endpoint, queried directly for per-worker stats).
  bool connectUnix(const std::string &Path, int TimeoutSec = 120) {
    reset();
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    if (Path.size() >= sizeof(Addr.sun_path)) {
      reset();
      return false;
    }
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
        0) {
      reset();
      return false;
    }
    timeval TV{TimeoutSec, 0};
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &TV, sizeof(TV));
    return true;
  }

  bool sendAll(const std::string &Bytes) {
    size_t Off = 0;
    while (Off < Bytes.size()) {
      ssize_t N =
          ::send(Fd, Bytes.data() + Off, Bytes.size() - Off, MSG_NOSIGNAL);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    return true;
  }

  /// One newline-terminated line (stripped); empty on EOF/timeout.
  std::string recvLine() {
    for (;;) {
      size_t Nl = Buf.find('\n');
      if (Nl != std::string::npos) {
        std::string Line = Buf.substr(0, Nl);
        Buf.erase(0, Nl + 1);
        return Line;
      }
      char Tmp[65536];
      ssize_t N = ::recv(Fd, Tmp, sizeof(Tmp), 0);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return "";
      Buf.append(Tmp, static_cast<size_t>(N));
    }
  }
};

/// Strips the values of every "*_seconds" field, of "rlimit_spent" and of
/// "solver_ctx_reuses" from the "stats": suffix of a reply — the only
/// bytes legitimately differing between a cold run, a warm hit and the
/// in-process reference. (Z3's rlimit accounting drifts by a fraction of a
/// percent with solver context history, and context-reuse counts depend on
/// which worker thread's Z3Env — with what prior state — picked the
/// analysis up; both are resource telemetry, not verdict content.)
std::string stripTimingValues(const std::string &Reply) {
  size_t StatsPos = Reply.find("\"stats\":");
  if (StatsPos == std::string::npos)
    return Reply;
  std::string Out;
  size_t Pos = StatsPos;
  while (Pos < Reply.size()) {
    size_t Key = std::string::npos, Skip = 0;
    auto Consider = [&](size_t At, size_t KeyLen) {
      if (At < Key) {
        Key = At;
        Skip = KeyLen;
      }
    };
    Consider(Reply.find("_seconds\": ", Pos), 11);
    Consider(Reply.find("\"rlimit_spent\": ", Pos), 16);
    Consider(Reply.find("\"solver_ctx_reuses\": ", Pos), 21);
    if (Key == std::string::npos) {
      Out += Reply.substr(Pos);
      break;
    }
    size_t End = Reply.find_first_of(",}", Key + Skip);
    Out += Reply.substr(Pos, Key + Skip - Pos);
    Pos = End;
  }
  return Out;
}

/// The analysis conclusion of a reply, as a comparable string: the
/// structural and verdict fields only, none of the cache/solver counters.
/// In the sharded topology every worker's cache evolves along its own shard
/// of the request space (and is further pre-seeded by snapshot broadcasts),
/// so counters like `sat_cache_hits` legitimately differ between a worker
/// and the sequential single-process reference — but the verdict must not.
std::string verdictSignature(const std::string &Reply) {
  static const char *Keys[] = {
      "\"transactions\": ",           "\"events\": ",
      "\"events_after_passes\": ",    "\"lint_warnings\": ",
      "\"serializable\": ",           "\"generalized\": ",
      "\"violations\": ",             "\"violations_validated\": ",
      "\"violations_unvalidated\": ", "\"violations_inconclusive\": ",
      "\"k_checked\": ",              "\"truncated\": ",
  };
  std::string Sig;
  for (const char *K : Keys) {
    size_t Pos = Reply.find(K);
    if (Pos == std::string::npos) {
      Sig += "?;";
      continue;
    }
    size_t Start = Pos + std::strlen(K);
    size_t End = Reply.find_first_of(",}", Start);
    Sig += Reply.substr(Start, End - Start);
    Sig += ';';
  }
  return Sig;
}

/// Writes \p SectionJson under the top-level key \p Section of \p OutPath,
/// preserving the other topology's section if the file already holds one —
/// BENCH_fleet.json carries both `single_process` and `sharded` results, and
/// the two runs happen in separate invocations. A legacy flat file (or
/// garbage) is simply replaced.
bool mergeFleetJson(const char *OutPath, const char *Section,
                    const std::string &SectionJson) {
  std::string Err;
  std::optional<JsonValue> Sec = parseJson(SectionJson, Err);
  if (!Sec) {
    std::fprintf(stderr, "error: internal: bad %s section: %s\n", Section,
                 Err.c_str());
    return false;
  }
  static const char *Sections[] = {"single_process", "sharded"};
  std::vector<std::pair<std::string, JsonValue>> Members;
  if (std::FILE *In = std::fopen(OutPath, "r")) {
    std::string All;
    char Buf[65536];
    size_t N;
    while ((N = std::fread(Buf, 1, sizeof(Buf), In)) > 0)
      All.append(Buf, N);
    std::fclose(In);
    std::string OldErr;
    if (std::optional<JsonValue> Old = parseJson(All, OldErr))
      if (const auto *Obj = Old->asObject())
        for (const auto &M : *Obj)
          for (const char *Known : Sections)
            if (M.first == Known && M.first != Section)
              Members.push_back(M);
  }
  Members.emplace_back(Section, std::move(*Sec));
  std::stable_sort(Members.begin(), Members.end(),
                   [](const auto &A, const auto &B) {
                     return A.first < B.first; // sharded < single_process
                   });
  std::FILE *F = std::fopen(OutPath, "w");
  if (!F) {
    std::fprintf(stderr, "error: cannot write %s\n", OutPath);
    return false;
  }
  std::fprintf(F, "{\n");
  for (size_t I = 0; I < Members.size(); ++I)
    std::fprintf(F, "  \"%s\": %s%s\n", Members[I].first.c_str(),
                 renderJson(Members[I].second).c_str(),
                 I + 1 == Members.size() ? "" : ",");
  std::fprintf(F, "}\n");
  std::fclose(F);
  return true;
}

std::string oneLineJson(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S)
    if (C != '\n')
      Out += C;
  return Out;
}

/// The single-process reference for one app: the exact analysis c4-serve
/// runs for `{"program": <source>}` with no option overrides, rendered
/// through the same stats emitter. \p Cache mirrors the server's (fresh
/// directory, same sequential app order), so oracle pre-seeding — and with
/// it every stats counter — matches the server's cold run byte for byte.
std::string fleetReference(const BenchApp &App, AnalysisCache &Cache) {
  std::string Source = App.Source;
  CompileResult Compiled = compileC4L(Source);
  if (!Compiled.ok())
    return "";
  CompiledProgram &P = *Compiled.Program;

  AnalyzerOptions Options;
  Options.DisplayFilter = true;
  Options.UseAtomicSets = true;
  Options.NumThreads = 1;
  PassOptions PassOpts;
  PassOpts.Reduce = true;
  PassOpts.UniqueValues = Options.Features.UniqueValues;
  PassOpts.Lint = false;
  PassResult Passes = runPasses(P, PassOpts, &Source);
  if (!Passes.Ok)
    return "";
  Options.AtomicSets = P.AtomicSets;

  PipelineResult PR = analyzeCached(*P.History, Options, *P.Registry, &Cache);

  StatsJsonFields F;
  F.File = "<inline>";
  F.Transactions = P.History->numTxns();
  F.Events = P.History->numStoreEvents();
  F.FrontendSeconds = P.FrontendSeconds;
  F.LexSeconds = P.LexSeconds;
  F.ParseSeconds = P.ParseSeconds;
  F.BuildSeconds = P.BuildSeconds;
  F.PassSeconds = Passes.Stats.Seconds;
  F.PassIterations = Passes.Stats.Iterations;
  F.EventsBefore = Passes.Stats.EventsBefore;
  F.EventsAfter = Passes.Stats.EventsAfter;
  F.DeadWrites = Passes.Stats.DeadWrites;
  F.PrunedBranches = Passes.Stats.PrunedBranches;
  F.ConstProps = Passes.Stats.ConstProps;
  F.FreshPromotions = Passes.Stats.FreshPromotions;
  F.LintWarnings = Passes.Lints.size();
  return "\"stats\": " + oneLineJson(renderStatsJson(F, PR.R));
}

/// Extracts the integer value of \p Key from a one-line stats reply.
long fleetStatField(const std::string &Reply, const char *Key) {
  std::string Needle = std::string("\"") + Key + "\": ";
  size_t Pos = Reply.find(Needle);
  if (Pos == std::string::npos)
    return -1;
  return std::atol(Reply.c_str() + Pos + Needle.size());
}

/// Raises the open-file soft limit to the hard limit: one connection per
/// client thread plus the server's mirror side needs more than the usual
/// 1024-fd default.
void raiseFdLimit() {
  rlimit RL;
  if (::getrlimit(RLIMIT_NOFILE, &RL) == 0 && RL.rlim_cur < RL.rlim_max) {
    RL.rlim_cur = RL.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &RL);
  }
}

int runFleet(const char *OutPath, bool Quick, unsigned Clients,
             unsigned RequestsPerClient) {
#ifndef C4_SERVE_BIN
  (void)OutPath;
  (void)Quick;
  (void)Clients;
  (void)RequestsPerClient;
  std::fprintf(stderr, "error: built without C4_SERVE_BIN\n");
  return 1;
#else
  raiseFdLimit();

  // The corpus and its per-app request lines + reference replies.
  std::vector<const BenchApp *> Apps;
  for (const BenchApp &App : benchApps()) {
    if (Quick && Apps.size() >= 6)
      break;
    Apps.push_back(&App);
  }

  char RefDirTemplate[] = "/tmp/c4-fleet-ref-XXXXXX";
  char SrvDirTemplate[] = "/tmp/c4-fleet-srv-XXXXXX";
  if (!::mkdtemp(RefDirTemplate) || !::mkdtemp(SrvDirTemplate)) {
    std::fprintf(stderr, "error: cannot create temp cache directories\n");
    return 1;
  }
  std::string RefDir = RefDirTemplate, SrvDir = SrvDirTemplate;

  std::printf("Fleet soak: %zu apps, %u clients x %u requests against a "
              "c4-serve process\n\n",
              Apps.size(), Clients, RequestsPerClient);

  // In-process references, sequentially in corpus order (the server's
  // stampede phase below replays the same order, so the two caches'
  // oracle snapshots evolve identically).
  std::vector<std::string> Requests, References;
  {
    AnalysisCache RefCache(RefDir);
    for (const BenchApp *App : Apps) {
      Requests.push_back("{\"id\": \"x\", \"program\": \"" +
                         jsonEscape(App->Source) + "\"}\n");
      References.push_back(fleetReference(*App, RefCache));
      if (References.back().empty()) {
        std::fprintf(stderr, "error: reference analysis failed for %s\n",
                     App->Name);
        removeCacheDir(RefDir);
        removeCacheDir(SrvDir);
        return 1;
      }
    }
  }
  removeCacheDir(RefDir);

  // Spawn the server on a kernel-chosen port.
  std::string ErrPath = SrvDir + "/serve.err";
  std::string Cmd = std::string("exec ") + C4_SERVE_BIN +
                    " --tcp 127.0.0.1:0 --workers 0 --max-inflight 0"
                    " --cache-dir " +
                    SrvDir + " 2> " + ErrPath;
  pid_t ServePid = ::fork();
  if (ServePid == 0) {
    ::execl("/bin/sh", "sh", "-c", Cmd.c_str(), static_cast<char *>(nullptr));
    _exit(127);
  }
  int Port = 0;
  for (int I = 0; I < 400 && Port == 0; ++I) {
    ::usleep(25 * 1000);
    FILE *E = std::fopen(ErrPath.c_str(), "r");
    if (!E)
      continue;
    char Line[256];
    while (std::fgets(Line, sizeof(Line), E))
      if (const char *Pos = std::strstr(Line, "listening on 127.0.0.1:"))
        Port = std::atoi(Pos + 23);
    std::fclose(E);
  }
  if (Port == 0) {
    std::fprintf(stderr, "error: c4-serve did not come up\n");
    ::kill(ServePid, SIGKILL);
    ::waitpid(ServePid, nullptr, 0);
    removeCacheDir(SrvDir);
    return 1;
  }

  unsigned Failures = 0, Mismatches = 0;
  std::vector<std::string> ColdReplies(Apps.size());

  // Phase 1 — stampede: per app, 8 connections fire the identical request
  // concurrently; the single-flight layer must hold the backend to exactly
  // one run per app, and every reply must match the reference.
  constexpr unsigned StampedeWidth = 8;
  LineConn Control;
  if (!Control.connectTo(Port)) {
    std::fprintf(stderr, "error: cannot connect control channel\n");
    ++Failures;
  }
  for (size_t A = 0; A < Apps.size() && !Failures; ++A) {
    LineConn Conns[StampedeWidth];
    for (LineConn &C : Conns)
      if (!C.connectTo(Port) || !C.sendAll(Requests[A]))
        ++Failures;
    for (LineConn &C : Conns) {
      std::string Reply = C.recvLine();
      if (Reply.find("\"ok\": true") == std::string::npos) {
        std::fprintf(stderr, "%s: bad stampede reply: %s\n", Apps[A]->Name,
                     Reply.c_str());
        ++Failures;
        continue;
      }
      if (ColdReplies[A].empty())
        ColdReplies[A] = Reply;
      std::string Got = stripTimingValues(Reply);
      std::string Want = stripTimingValues("{" + References[A] + "}");
      if (Got != Want) {
        size_t D = 0;
        while (D < Got.size() && D < Want.size() && Got[D] == Want[D])
          ++D;
        size_t From = D > 40 ? D - 40 : 0;
        std::fprintf(stderr,
                     "%s: reply diverges from the single-process reference\n"
                     "  got  ...%s\n  want ...%s\n",
                     Apps[A]->Name, Got.substr(From, 120).c_str(),
                     Want.substr(From, 120).c_str());
        ++Mismatches;
      }
    }
    Control.sendAll("{\"id\": 0, \"op\": \"stats\"}\n");
    long BackendRuns = fleetStatField(Control.recvLine(), "backend_runs");
    if (BackendRuns != static_cast<long>(A + 1)) {
      std::fprintf(stderr,
                   "%s: single-flight breach: %ld backend runs after %zu "
                   "apps\n",
                   Apps[A]->Name, BackendRuns, A + 1);
      ++Failures;
    }
  }
  unsigned StampedeBackendRuns = static_cast<unsigned>(Apps.size());

  // Phase 2 — fleet: Clients concurrent closed-loop connections, all warm.
  std::atomic<unsigned> Connected{0}, FleetFailures{0}, FleetMismatches{0};
  std::atomic<unsigned> OverloadRetries{0};
  std::atomic<bool> Go{false};
  std::vector<std::vector<double>> LatMs(Clients);
  std::vector<std::thread> Threads;
  Threads.reserve(Clients);
  for (unsigned T = 0; T < Clients; ++T) {
    Threads.emplace_back([&, T] {
      LineConn C;
      if (!C.connectTo(Port)) {
        ++FleetFailures;
        ++Connected;
        return;
      }
      ++Connected;
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      for (unsigned R = 0; R < RequestsPerClient; ++R) {
        size_t A = (T + R) % Apps.size();
        auto Start = std::chrono::steady_clock::now();
        std::string Reply;
        for (unsigned Attempt = 0; Attempt < 1000; ++Attempt) {
          if (!C.sendAll(Requests[A])) {
            ++FleetFailures;
            return;
          }
          Reply = C.recvLine();
          if (Reply.find("\"overloaded\": true") == std::string::npos)
            break;
          ++OverloadRetries;
          ::usleep(1000);
        }
        LatMs[T].push_back(std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - Start)
                               .count());
        if (Reply.find("\"ok\": true") == std::string::npos) {
          ++FleetFailures;
          return;
        }
        if (stripTimingValues(Reply) != stripTimingValues(ColdReplies[A]))
          ++FleetMismatches;
      }
    });
  }
  while (Connected.load() < Clients)
    ::usleep(1000);
  auto FleetStart = std::chrono::steady_clock::now();
  Go.store(true, std::memory_order_release);
  for (std::thread &T : Threads)
    T.join();
  double FleetSeconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - FleetStart)
                            .count();
  Failures += FleetFailures.load();
  Mismatches += FleetMismatches.load();

  // Post-traffic accounting from the server itself.
  long Dropped = -1, Overloads = -1, FlightWaits = -1, BackendRuns = -1;
  if (Control.Fd >= 0) {
    Control.sendAll("{\"id\": 0, \"op\": \"stats\"}\n");
    std::string Stats = Control.recvLine();
    Dropped = fleetStatField(Stats, "replies_dropped");
    Overloads = fleetStatField(Stats, "overload_rejects");
    FlightWaits = fleetStatField(Stats, "single_flight_waits");
    BackendRuns = fleetStatField(Stats, "backend_runs");
  }
  if (Dropped != 0) {
    std::fprintf(stderr, "error: %ld silently dropped replies\n", Dropped);
    ++Failures;
  }
  if (BackendRuns != static_cast<long>(Apps.size())) {
    std::fprintf(stderr, "error: %ld backend runs for %zu apps\n",
                 BackendRuns, Apps.size());
    ++Failures;
  }
  Control.reset();

  // Phase 3 — graceful drain: SIGTERM must end the process with exit 0.
  bool DrainClean = false;
  ::kill(ServePid, SIGTERM);
  for (int I = 0; I < 1000; ++I) {
    int St;
    if (::waitpid(ServePid, &St, WNOHANG) == ServePid) {
      DrainClean = WIFEXITED(St) && WEXITSTATUS(St) == 0;
      ServePid = -1;
      break;
    }
    ::usleep(10 * 1000);
  }
  if (ServePid != -1) {
    ::kill(ServePid, SIGKILL);
    ::waitpid(ServePid, nullptr, 0);
  }
  if (!DrainClean) {
    std::fprintf(stderr, "error: server did not drain cleanly on SIGTERM\n");
    ++Failures;
  }
  removeCacheDir(SrvDir);

  // Latency aggregation.
  std::vector<double> All;
  for (const std::vector<double> &L : LatMs)
    All.insert(All.end(), L.begin(), L.end());
  std::sort(All.begin(), All.end());
  auto Pct = [&](double P) {
    if (All.empty())
      return 0.0;
    size_t I = static_cast<size_t>(P * (All.size() - 1));
    return All[I];
  };
  double P50 = Pct(0.50), P99 = Pct(0.99);
  double Rps = FleetSeconds > 0 ? All.size() / FleetSeconds : 0.0;

  std::printf("  stampede: %zu apps x %u conns, backend runs %u, "
              "flight waits %ld\n",
              Apps.size(), StampedeWidth, StampedeBackendRuns, FlightWaits);
  std::printf("  fleet: %zu requests in %.2fs = %.0f req/s "
              "(p50 %.2f ms, p99 %.2f ms, %u overload retries)\n",
              All.size(), FleetSeconds, Rps, P50, P99,
              OverloadRetries.load());
  std::printf("  dropped replies %ld, overload rejects %ld, mismatches %u, "
              "drain %s\n",
              Dropped, Overloads, Mismatches,
              DrainClean ? "clean" : "UNCLEAN");

  char Section[1024];
  std::snprintf(Section, sizeof(Section),
                "{\"apps\": %zu, \"clients\": %u, \"requests_per_client\": "
                "%u, \"requests\": %zu, \"fleet_seconds\": %.3f, \"rps\": "
                "%.0f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
                "\"stampede_width\": %u, \"stampede_backend_runs\": %u, "
                "\"single_flight_waits\": %ld, \"overload_rejects\": %ld, "
                "\"overload_retries\": %u, \"replies_dropped\": %ld, "
                "\"reference_mismatches\": %u, \"failures\": %u, "
                "\"drain_clean\": %s}",
                Apps.size(), Clients, RequestsPerClient, All.size(),
                FleetSeconds, Rps, P50, P99, StampedeWidth,
                StampedeBackendRuns, FlightWaits, Overloads,
                OverloadRetries.load(), Dropped, Mismatches, Failures,
                DrainClean ? "true" : "false");
  if (!mergeFleetJson(OutPath, "single_process", Section))
    return 1;
  std::printf("  fleet soak written to %s (single_process section)\n",
              OutPath);
  return Failures || Mismatches ? 1 : 0;
#endif
}

//===----------------------------------------------------------------------===//
// --fleet --sharded: the same soak against a c4-router worker fleet.
//===----------------------------------------------------------------------===//

#if defined(C4_SERVE_BIN) && defined(C4_ROUTER_BIN)
/// Sums one integer stat over every live worker, queried directly on the
/// workers' Unix backhaul sockets (the router multiplexes client traffic
/// but each worker also accepts side connections on the same socket).
long sumWorkerStat(const std::string &SrvDir, unsigned Workers,
                   const char *Key) {
  long Sum = 0;
  for (unsigned I = 0; I < Workers; ++I) {
    LineConn C;
    if (!C.connectUnix(SrvDir + "/worker-" + std::to_string(I) + ".sock"))
      continue; // a worker mid-restart contributes nothing
    if (!C.sendAll("{\"id\": 0, \"op\": \"stats\"}\n"))
      continue;
    long V = fleetStatField(C.recvLine(), Key);
    if (V > 0)
      Sum += V;
  }
  return Sum;
}

/// The live worker pids, in index order, from a router stats reply
/// (pid -1 for a worker that is down or restarting).
std::vector<long> workerPids(const std::string &Stats) {
  std::vector<long> Pids;
  size_t Pos = 0;
  while ((Pos = Stats.find("\"pid\": ", Pos)) != std::string::npos) {
    Pos += 7;
    Pids.push_back(std::atol(Stats.c_str() + Pos));
  }
  return Pids;
}
#endif

/// The sharded topology's soak: a c4-router front over \p Workers c4-serve
/// processes, the same corpus and client fleet as runFleet, plus fault
/// injection — one worker is SIGKILLed midway through the soak and the run
/// must still deliver every reply with the correct verdict. Asserts the
/// shared snapshot tier carried facts between workers and that rendezvous
/// stickiness kept the fleet's total backend runs below what N independent
/// workers would have spent. Results land in the `sharded` section of
/// \p OutPath, alongside runFleet's `single_process` section.
int runFleetSharded(const char *OutPath, bool Quick, unsigned Clients,
                    unsigned RequestsPerClient, unsigned Workers) {
#if !defined(C4_SERVE_BIN) || !defined(C4_ROUTER_BIN)
  (void)OutPath;
  (void)Quick;
  (void)Clients;
  (void)RequestsPerClient;
  (void)Workers;
  std::fprintf(stderr, "error: built without C4_SERVE_BIN/C4_ROUTER_BIN\n");
  return 1;
#else
  raiseFdLimit();
  if (Workers < 2) {
    std::fprintf(stderr, "error: --sharded needs at least 2 workers\n");
    return 1;
  }

  std::vector<const BenchApp *> Apps;
  for (const BenchApp &App : benchApps()) {
    if (Quick && Apps.size() >= 6)
      break;
    Apps.push_back(&App);
  }

  char RefDirTemplate[] = "/tmp/c4-fleet-ref-XXXXXX";
  char SrvDirTemplate[] = "/tmp/c4-fleet-srv-XXXXXX";
  if (!::mkdtemp(RefDirTemplate) || !::mkdtemp(SrvDirTemplate)) {
    std::fprintf(stderr, "error: cannot create temp cache directories\n");
    return 1;
  }
  std::string RefDir = RefDirTemplate, SrvDir = SrvDirTemplate;
  auto CleanupSrvDir = [&SrvDir, Workers] {
    for (unsigned I = 0; I < Workers; ++I) {
      std::string W = SrvDir + "/worker-" + std::to_string(I);
      removeCacheDir(W);
      ::unlink((W + ".sock").c_str());
      ::unlink((W + ".err").c_str());
    }
    ::unlink((SrvDir + "/router.err").c_str());
    ::rmdir(SrvDir.c_str());
  };

  std::printf("Sharded fleet soak: %zu apps, %u clients x %u requests "
              "against a c4-router fleet of %u workers\n\n",
              Apps.size(), Clients, RequestsPerClient, Workers);

  // In-process reference verdicts. Counter-level byte equality is a
  // single-process property (it depends on the exact cache history); the
  // sharded assertion is verdict equality per verdictSignature.
  std::vector<std::string> Requests, RefSigs;
  {
    AnalysisCache RefCache(RefDir);
    for (const BenchApp *App : Apps) {
      Requests.push_back("{\"id\": \"x\", \"program\": \"" +
                         jsonEscape(App->Source) + "\"}\n");
      std::string Ref = fleetReference(*App, RefCache);
      if (Ref.empty()) {
        std::fprintf(stderr, "error: reference analysis failed for %s\n",
                     App->Name);
        removeCacheDir(RefDir);
        CleanupSrvDir();
        return 1;
      }
      RefSigs.push_back(verdictSignature("{" + Ref + "}"));
    }
  }
  removeCacheDir(RefDir);

  // Spawn the router; it spawns and supervises the workers.
  std::string ErrPath = SrvDir + "/router.err";
  std::string Cmd = std::string("exec ") + C4_ROUTER_BIN +
                    " --tcp 127.0.0.1:0 --workers " +
                    std::to_string(Workers) +
                    " --worker-threads 2 --max-inflight 0"
                    " --snapshot-interval-ms 200 --serve-bin " C4_SERVE_BIN
                    " --cache-dir " +
                    SrvDir + " 2> " + ErrPath;
  pid_t RouterPid = ::fork();
  if (RouterPid == 0) {
    ::execl("/bin/sh", "sh", "-c", Cmd.c_str(), static_cast<char *>(nullptr));
    _exit(127);
  }
  int Port = 0;
  for (int I = 0; I < 400 && Port == 0; ++I) {
    ::usleep(25 * 1000);
    FILE *E = std::fopen(ErrPath.c_str(), "r");
    if (!E)
      continue;
    char Line[256];
    while (std::fgets(Line, sizeof(Line), E))
      if (const char *Pos = std::strstr(Line, "listening on 127.0.0.1:"))
        Port = std::atoi(Pos + 23);
    std::fclose(E);
  }
  auto KillRouter = [&RouterPid] {
    if (RouterPid > 0) {
      ::kill(RouterPid, SIGKILL);
      ::waitpid(RouterPid, nullptr, 0);
      RouterPid = -1;
    }
  };
  if (Port == 0) {
    std::fprintf(stderr, "error: c4-router did not come up\n");
    KillRouter();
    CleanupSrvDir();
    return 1;
  }

  unsigned Failures = 0, Mismatches = 0;

  // Wait until the whole fleet is up before generating load.
  LineConn Control;
  if (!Control.connectTo(Port)) {
    std::fprintf(stderr, "error: cannot connect control channel\n");
    ++Failures;
  }
  for (int I = 0; I < 400 && !Failures; ++I) {
    Control.sendAll("{\"id\": 0, \"op\": \"stats\"}\n");
    if (fleetStatField(Control.recvLine(), "workers_up") ==
        static_cast<long>(Workers))
      break;
    ::usleep(25 * 1000);
  }

  // Phase 1 — stampede through the router: identical concurrent requests
  // must still cost one backend run fleet-wide. Rendezvous stickiness pins
  // them all to one worker, whose single-flight layer collapses them.
  constexpr unsigned StampedeWidth = 8;
  for (size_t A = 0; A < Apps.size() && !Failures; ++A) {
    LineConn Conns[StampedeWidth];
    for (LineConn &C : Conns)
      if (!C.connectTo(Port) || !C.sendAll(Requests[A]))
        ++Failures;
    for (LineConn &C : Conns) {
      std::string Reply = C.recvLine();
      if (Reply.find("\"ok\": true") == std::string::npos) {
        std::fprintf(stderr, "%s: bad stampede reply: %s\n", Apps[A]->Name,
                     Reply.c_str());
        ++Failures;
        continue;
      }
      if (verdictSignature(Reply) != RefSigs[A]) {
        std::fprintf(stderr,
                     "%s: verdict diverges from the single-process "
                     "reference\n  got  %s\n  want %s\n",
                     Apps[A]->Name, verdictSignature(Reply).c_str(),
                     RefSigs[A].c_str());
        ++Mismatches;
      }
    }
    long BackendRuns = sumWorkerStat(SrvDir, Workers, "backend_runs");
    if (BackendRuns != static_cast<long>(A + 1)) {
      std::fprintf(stderr,
                   "%s: fleet-wide single-flight breach: %ld backend runs "
                   "after %zu apps\n",
                   Apps[A]->Name, BackendRuns, A + 1);
      ++Failures;
    }
  }

  // Phase 2 — soak with fault injection: the client fleet as in runFleet,
  // plus a supervisor thread that SIGKILLs one loaded worker once half the
  // replies are in. The router must re-route that worker's in-flight
  // requests and restart it; clients must see every reply, verdict-correct.
  std::atomic<unsigned> Connected{0}, FleetFailures{0}, FleetMismatches{0};
  std::atomic<unsigned> OverloadRetries{0};
  std::atomic<uint64_t> RepliesDone{0};
  std::atomic<bool> Go{false}, SoakDone{false};
  std::vector<std::vector<double>> LatMs(Clients);
  std::vector<std::thread> Threads;
  Threads.reserve(Clients);
  for (unsigned T = 0; T < Clients; ++T) {
    Threads.emplace_back([&, T] {
      LineConn C;
      if (!C.connectTo(Port)) {
        ++FleetFailures;
        ++Connected;
        return;
      }
      ++Connected;
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      for (unsigned R = 0; R < RequestsPerClient; ++R) {
        size_t A = (T + R) % Apps.size();
        auto Start = std::chrono::steady_clock::now();
        std::string Reply;
        for (unsigned Attempt = 0; Attempt < 1000; ++Attempt) {
          if (!C.sendAll(Requests[A])) {
            ++FleetFailures;
            return;
          }
          Reply = C.recvLine();
          if (Reply.find("\"overloaded\": true") == std::string::npos)
            break;
          ++OverloadRetries;
          ::usleep(1000);
        }
        LatMs[T].push_back(std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - Start)
                               .count());
        if (Reply.find("\"ok\": true") == std::string::npos) {
          ++FleetFailures;
          return;
        }
        ++RepliesDone;
        if (verdictSignature(Reply) != RefSigs[A])
          ++FleetMismatches;
      }
    });
  }

  long KilledPid = -1;
  std::thread Killer([&] {
    const uint64_t Half =
        static_cast<uint64_t>(Clients) * RequestsPerClient / 2;
    while (!SoakDone.load() && RepliesDone.load() < Half)
      ::usleep(2000);
    if (SoakDone.load())
      return;
    LineConn C;
    if (!C.connectTo(Port) ||
        !C.sendAll("{\"id\": 0, \"op\": \"stats\"}\n"))
      return;
    std::vector<long> Pids = workerPids(C.recvLine());
    for (long Pid : Pids)
      if (Pid > 0) {
        KilledPid = Pid;
        ::kill(static_cast<pid_t>(Pid), SIGKILL);
        std::printf("  fault injection: SIGKILLed worker pid %ld at %llu "
                    "replies\n",
                    Pid, static_cast<unsigned long long>(RepliesDone.load()));
        break;
      }
  });

  while (Connected.load() < Clients)
    ::usleep(1000);
  auto FleetStart = std::chrono::steady_clock::now();
  Go.store(true, std::memory_order_release);
  for (std::thread &T : Threads)
    T.join();
  SoakDone.store(true);
  Killer.join();
  double FleetSeconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - FleetStart)
                            .count();
  Failures += FleetFailures.load();
  Mismatches += FleetMismatches.load();
  if (KilledPid < 0) {
    std::fprintf(stderr, "error: fault injection never fired\n");
    ++Failures;
  }

  // Post-soak accounting from the router and the workers themselves.
  long Dropped = -1, Restarts = -1, Broadcasts = -1, FactsImported = -1;
  long Rerouted = -1;
  std::vector<long> FinalPids;
  if (Control.Fd >= 0) {
    Control.sendAll("{\"id\": 0, \"op\": \"stats\"}\n");
    std::string Stats = Control.recvLine();
    Dropped = fleetStatField(Stats, "replies_dropped");
    Restarts = fleetStatField(Stats, "worker_restarts");
    Broadcasts = fleetStatField(Stats, "snapshot_broadcasts");
    FactsImported = fleetStatField(Stats, "snapshot_facts_imported");
    Rerouted = fleetStatField(Stats, "rerouted_requests");
    FinalPids = workerPids(Stats);
  }
  if (Dropped != 0) {
    std::fprintf(stderr, "error: %ld dropped replies\n", Dropped);
    ++Failures;
  }
  if (Restarts < 1) {
    std::fprintf(stderr, "error: killed worker was never restarted\n");
    ++Failures;
  }
  if (Broadcasts < 1 || FactsImported < 1) {
    std::fprintf(stderr,
                 "error: snapshot tier idle (%ld broadcasts, %ld facts)\n",
                 Broadcasts, FactsImported);
    ++Failures;
  }
  // Stickiness + the shared snapshot tier must beat N independent workers:
  // each of those would run every app's backend itself (Apps x Workers).
  long BackendSum = sumWorkerStat(SrvDir, Workers, "backend_runs");
  long IndependentRuns = static_cast<long>(Apps.size() * Workers);
  if (BackendSum <= 0 || BackendSum >= IndependentRuns) {
    std::fprintf(stderr,
                 "error: %ld fleet backend runs, expected fewer than the "
                 "%ld of %u independent workers\n",
                 BackendSum, IndependentRuns, Workers);
    ++Failures;
  }
  Control.reset();

  // Phase 3 — graceful drain: SIGTERM must end the router with exit 0 and
  // no worker process may outlive it.
  bool DrainClean = false;
  ::kill(RouterPid, SIGTERM);
  for (int I = 0; I < 2000; ++I) {
    int St;
    if (::waitpid(RouterPid, &St, WNOHANG) == RouterPid) {
      DrainClean = WIFEXITED(St) && WEXITSTATUS(St) == 0;
      RouterPid = -1;
      break;
    }
    ::usleep(10 * 1000);
  }
  KillRouter();
  if (!DrainClean) {
    std::fprintf(stderr, "error: router did not drain cleanly on SIGTERM\n");
    ++Failures;
  }
  unsigned Orphans = 0;
  for (long Pid : FinalPids)
    if (Pid > 0 && ::kill(static_cast<pid_t>(Pid), 0) == 0)
      ++Orphans;
  if (Orphans) {
    std::fprintf(stderr, "error: %u worker process(es) outlived the drain\n",
                 Orphans);
    ++Failures;
  }
  CleanupSrvDir();

  // Latency aggregation.
  std::vector<double> All;
  for (const std::vector<double> &L : LatMs)
    All.insert(All.end(), L.begin(), L.end());
  std::sort(All.begin(), All.end());
  auto Pct = [&](double P) {
    if (All.empty())
      return 0.0;
    size_t I = static_cast<size_t>(P * (All.size() - 1));
    return All[I];
  };
  double P50 = Pct(0.50), P99 = Pct(0.99);
  double Rps = FleetSeconds > 0 ? All.size() / FleetSeconds : 0.0;

  std::printf("  sharded fleet: %zu requests in %.2fs = %.0f req/s "
              "(p50 %.2f ms, p99 %.2f ms)\n",
              All.size(), FleetSeconds, Rps, P50, P99);
  std::printf("  workers %u, restarts %ld, rerouted %ld, backend runs %ld "
              "(vs %ld independent)\n",
              Workers, Restarts, Rerouted, BackendSum, IndependentRuns);
  std::printf("  snapshot tier: %ld broadcasts, %ld facts imported\n",
              Broadcasts, FactsImported);
  std::printf("  dropped replies %ld, mismatches %u, drain %s\n", Dropped,
              Mismatches, DrainClean ? "clean" : "UNCLEAN");

  char Section[1024];
  std::snprintf(Section, sizeof(Section),
                "{\"apps\": %zu, \"workers\": %u, \"clients\": %u, "
                "\"requests_per_client\": %u, \"requests\": %zu, "
                "\"fleet_seconds\": %.3f, \"rps\": %.0f, \"p50_ms\": %.3f, "
                "\"p99_ms\": %.3f, \"worker_restarts\": %ld, "
                "\"rerouted_requests\": %ld, \"backend_runs\": %ld, "
                "\"independent_backend_runs\": %ld, "
                "\"snapshot_broadcasts\": %ld, "
                "\"snapshot_facts_imported\": %ld, \"replies_dropped\": %ld, "
                "\"verdict_mismatches\": %u, \"failures\": %u, "
                "\"drain_clean\": %s}",
                Apps.size(), Workers, Clients, RequestsPerClient, All.size(),
                FleetSeconds, Rps, P50, P99, Restarts, Rerouted, BackendSum,
                IndependentRuns, Broadcasts, FactsImported, Dropped,
                Mismatches, Failures, DrainClean ? "true" : "false");
  if (!mergeFleetJson(OutPath, "sharded", Section))
    return 1;
  std::printf("  sharded soak written to %s (sharded section)\n", OutPath);
  return Failures || Mismatches ? 1 : 0;
#endif
}

} // namespace

static const int StdoutLineBuffered = []() {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  return 0;
}();

int main(int Argc, char **Argv) {
  bool Quick = false, NoPasses = false, LintOnly = false;
  const char *GovernancePath = nullptr;
  const char *PassesPath = nullptr;
  const char *ServeSimPath = nullptr;
  const char *IncrementalPath = nullptr;
  const char *FleetPath = nullptr;
  bool Sharded = false;
  unsigned FleetClients = 1000, FleetRequests = 4, FleetWorkers = 4;
  for (int I = 1; I != Argc; ++I) {
    if (!std::strcmp(Argv[I], "--quick"))
      Quick = true;
    else if (!std::strcmp(Argv[I], "--no-passes"))
      NoPasses = true;
    else if (!std::strcmp(Argv[I], "--lint"))
      LintOnly = true;
    else if (!std::strcmp(Argv[I], "--governance") && I + 1 != Argc)
      GovernancePath = Argv[++I];
    else if (!std::strcmp(Argv[I], "--passes") && I + 1 != Argc)
      PassesPath = Argv[++I];
    else if (!std::strcmp(Argv[I], "--serve-sim") && I + 1 != Argc)
      ServeSimPath = Argv[++I];
    else if (!std::strcmp(Argv[I], "--incremental") && I + 1 != Argc)
      IncrementalPath = Argv[++I];
    else if (!std::strcmp(Argv[I], "--fleet") && I + 1 != Argc)
      FleetPath = Argv[++I];
    else if (!std::strcmp(Argv[I], "--fleet-clients") && I + 1 != Argc)
      FleetClients = static_cast<unsigned>(std::atoi(Argv[++I]));
    else if (!std::strcmp(Argv[I], "--fleet-requests") && I + 1 != Argc)
      FleetRequests = static_cast<unsigned>(std::atoi(Argv[++I]));
    else if (!std::strcmp(Argv[I], "--fleet-workers") && I + 1 != Argc)
      FleetWorkers = static_cast<unsigned>(std::atoi(Argv[++I]));
    else if (!std::strcmp(Argv[I], "--sharded"))
      Sharded = true;
  }

  if (FleetPath && Sharded)
    return runFleetSharded(FleetPath, Quick, FleetClients, FleetRequests,
                           FleetWorkers);
  if (FleetPath)
    return runFleet(FleetPath, Quick, FleetClients, FleetRequests);

  if (ServeSimPath)
    return runServeSim(ServeSimPath, Quick, NoPasses);

  if (IncrementalPath)
    return runIncremental(IncrementalPath, Quick, NoPasses);

  if (LintOnly) {
    // Lint every benchmark app (no analysis). Exits 1 on any unsuppressed
    // warning, so CI can gate on a lint-clean suite.
    unsigned Warnings = 0;
    for (const BenchApp &App : benchApps()) {
      std::string Source = App.Source;
      CompileResult Compiled = compileC4L(Source);
      if (!Compiled.ok()) {
        std::printf("%s: COMPILE ERROR: %s\n", App.Name,
                    Compiled.Error.c_str());
        ++Warnings;
        continue;
      }
      PassOptions Opts;
      Opts.Reduce = false;
      PassResult R = runPasses(*Compiled.Program, Opts, &Source);
      Warnings += static_cast<unsigned>(R.Lints.size());
      std::fputs(renderLintText(R.Lints, App.Name).c_str(), stdout);
    }
    std::printf("%u lint warning(s) across %zu apps\n", Warnings,
                benchApps().size());
    return Warnings ? 1 : 0;
  }
  QueryTrace Trace;
  auto SuiteStart = std::chrono::steady_clock::now();

  std::printf("Table 1: analysis results on the 28 benchmark "
              "applications\n");
  std::printf("(paper numbers in [brackets]; E/H/F = harmful / harmless / "
              "false alarm)\n\n");
  std::printf("%-18s %7s %13s | %-22s | %-22s\n", "Program", "T/E",
              "FE/BE [s]", "Unfiltered E/H/F/Sum", "Filtered E/H/F/Sum");

  Counts TotalUnf, TotalFil;
  unsigned TotalSSGFlagged = 0, TotalRefuted = 0, TotalUnknown = 0;
  unsigned TotalRetries = 0, TotalDfsExhausted = 0;
  uint64_t TotalRlimitSpent = 0;
  double TotalBackend = 0;
  unsigned Projects = 0, Failures = 0, NotGeneralized = 0;
  const char *LastDomain = "";

  // --passes comparison state.
  std::vector<PassRow> PassRows;
  PassStats TotalPassStats;
  double RawSeconds = 0, ReducedSeconds = 0, PassSeconds = 0;
  unsigned VerdictMismatches = 0;
  double PrefilterOffSeconds = 0, PrefilterDomainSeconds = 0;
  unsigned PrefilterMismatches = 0;

  for (const BenchApp &App : benchApps()) {
    if (Quick && Projects >= 6)
      break;
    if (std::strcmp(LastDomain, App.Domain)) {
      std::printf("--- %s ---\n", App.Domain);
      LastDomain = App.Domain;
    }
    CompileResult Compiled = compileC4L(App.Source);
    if (!Compiled.ok()) {
      std::printf("%-18s COMPILE ERROR: %s\n", App.Name,
                  Compiled.Error.c_str());
      ++Failures;
      continue;
    }
    ++Projects;
    CompiledProgram &P = *Compiled.Program;

    AnalyzerOptions Unfiltered;
    if (GovernancePath)
      Unfiltered.Trace = &Trace;

    // Raw (pre-reduction) baseline for the --passes comparison. Runs
    // before the passes mutate P so both variants see the same program.
    std::string RawKeyU, RawKeyF;
    unsigned RawEdges = 0, RawQueries = 0;
    unsigned RawEvents = P.History->numStoreEvents();
    if (PassesPath) {
      auto RawStart = std::chrono::steady_clock::now();
      AnalysisResult RawU = analyze(*P.History, Unfiltered);
      AnalyzerOptions RawFilteredOpts;
      RawFilteredOpts.DisplayFilter = true;
      RawFilteredOpts.UseAtomicSets = !P.AtomicSets.empty();
      RawFilteredOpts.AtomicSets = P.AtomicSets;
      AnalysisResult RawF = analyze(*P.History, RawFilteredOpts);
      RawSeconds += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - RawStart)
                        .count();
      RawKeyU = verdictKey(RawU);
      RawKeyF = verdictKey(RawF);
      RawEdges = RawU.SSGEdges + RawF.SSGEdges;
      RawQueries = RawU.SmtQueries + RawF.SmtQueries;
    }

    if (!NoPasses) {
      PassOptions PassOpts;
      PassOpts.Lint = false;
      PassResult Passes = runPasses(P, PassOpts);
      if (!Passes.Ok) {
        std::printf("%-18s PASS ERROR: %s\n", App.Name,
                    Passes.Error.c_str());
        ++Failures;
        continue;
      }
      TotalPassStats.EventsBefore += Passes.Stats.EventsBefore;
      TotalPassStats.EventsAfter += Passes.Stats.EventsAfter;
      TotalPassStats.DeadWrites += Passes.Stats.DeadWrites;
      TotalPassStats.PrunedBranches += Passes.Stats.PrunedBranches;
      TotalPassStats.ConstProps += Passes.Stats.ConstProps;
      TotalPassStats.FreshPromotions += Passes.Stats.FreshPromotions;
      PassSeconds += Passes.Stats.Seconds;
    }

    auto ReducedStart = std::chrono::steady_clock::now();
    AnalysisResult RU = analyze(*P.History, Unfiltered);

    AnalyzerOptions Filtered;
    Filtered.DisplayFilter = true;
    Filtered.UseAtomicSets = !P.AtomicSets.empty();
    Filtered.AtomicSets = P.AtomicSets;
    if (GovernancePath)
      Filtered.Trace = &Trace;
    AnalysisResult RF = analyze(*P.History, Filtered);
    ReducedSeconds += std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - ReducedStart)
                          .count();

    if (PassesPath) {
      bool Match =
          RawKeyU == verdictKey(RU) && RawKeyF == verdictKey(RF);
      if (!Match)
        ++VerdictMismatches;

      // Prefilter A/B differential on the reduced history: rerun both
      // variants with the relational domain disabled. The verdicts must
      // match — the prefilter is only allowed to skip Z3 queries, never
      // to change an answer.
      AnalyzerOptions OffU;
      OffU.UsePrefilter = false;
      AnalyzerOptions OffF;
      OffF.DisplayFilter = true;
      OffF.UseAtomicSets = !P.AtomicSets.empty();
      OffF.AtomicSets = P.AtomicSets;
      OffF.UsePrefilter = false;
      auto OffStart = std::chrono::steady_clock::now();
      AnalysisResult OU = analyze(*P.History, OffU);
      AnalysisResult OF = analyze(*P.History, OffF);
      PrefilterOffSeconds += std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - OffStart)
                                 .count();
      bool PMatch =
          verdictKey(OU) == verdictKey(RU) && verdictKey(OF) == verdictKey(RF);
      if (!PMatch)
        ++PrefilterMismatches;
      PrefilterDomainSeconds += RU.PrefilterSeconds + RF.PrefilterSeconds;

      PassRows.push_back({App.Name, RawEvents,
                          P.History->numStoreEvents(), RawEdges,
                          RU.SSGEdges + RF.SSGEdges, RawQueries,
                          RU.SmtQueries + RF.SmtQueries, Match,
                          RU.SmtQueriesPrefiltered + RF.SmtQueriesPrefiltered,
                          OU.SmtQueries + OF.SmtQueries, PMatch});
    }

    Counts CU = classifyAll(App, RU);
    Counts CF = classifyAll(App, RF);
    TotalUnf.E += CU.E;
    TotalUnf.H += CU.H;
    TotalUnf.F += CU.F;
    TotalFil.E += CF.E;
    TotalFil.H += CF.H;
    TotalFil.F += CF.F;
    TotalSSGFlagged += RF.SSGFlagged + RU.SSGFlagged;
    TotalRefuted += RF.SMTRefuted + RU.SMTRefuted;
    TotalUnknown += RF.SMTUnknown + RU.SMTUnknown;
    TotalRetries += RF.SMTRetries + RU.SMTRetries;
    TotalDfsExhausted += RF.DfsBudgetExhausted + RU.DfsBudgetExhausted;
    TotalRlimitSpent += RF.RlimitSpent + RU.RlimitSpent;
    TotalBackend += RF.BackendSeconds + RU.BackendSeconds;
    if (!RU.Generalized || !RF.Generalized)
      ++NotGeneralized;

    std::printf("%-18s %3u/%-3u %6.2f/%-6.2f | %u/%u/%u/%u [%u/%u/%u/%u]%*s "
                "| %u/%u/%u/%u [%u/%u/%u/%u]%s\n",
                App.Name, P.History->numTxns(), P.History->numStoreEvents(),
                P.FrontendSeconds, RU.BackendSeconds + RF.BackendSeconds,
                CU.E, CU.H, CU.F, CU.total(), App.PaperUnfiltered.E,
                App.PaperUnfiltered.H, App.PaperUnfiltered.F,
                App.PaperUnfiltered.E + App.PaperUnfiltered.H +
                    App.PaperUnfiltered.F,
                1, "", CF.E, CF.H, CF.F, CF.total(), App.PaperFiltered.E,
                App.PaperFiltered.H, App.PaperFiltered.F,
                App.PaperFiltered.E + App.PaperFiltered.H +
                    App.PaperFiltered.F,
                RF.Generalized ? "" : " (bounded)");
  }

  std::printf("\nSummary (paper / measured)\n");
  std::printf("  projects analyzed: %u (failures: %u, bounded-only: %u)\n",
              Projects, Failures, NotGeneralized);
  std::printf("  avg violations per project unfiltered: [7.3] %.1f\n",
              Projects ? static_cast<double>(TotalUnf.total()) / Projects
                       : 0.0);
  std::printf("  avg violations per project filtered:   [1.3] %.1f\n",
              Projects ? static_cast<double>(TotalFil.total()) / Projects
                       : 0.0);
  std::printf("  unfiltered totals E/H/F: %u/%u/%u\n", TotalUnf.E,
              TotalUnf.H, TotalUnf.F);
  std::printf("  filtered totals   E/H/F: %u/%u/%u\n", TotalFil.E,
              TotalFil.H, TotalFil.F);
  unsigned FilTotal = TotalFil.total();
  if (FilTotal) {
    std::printf("  filtered harmful rate:     [43%%] %u%%\n",
                100 * TotalFil.E / FilTotal);
    std::printf("  filtered false-alarm rate: [10%%] %u%%\n",
                100 * TotalFil.F / FilTotal);
  }
  std::printf("  SSG-flagged unfoldings refuted by SMT: %u of %u "
              "(unknown: %u)\n",
              TotalRefuted, TotalSSGFlagged, TotalUnknown);

  if (GovernancePath) {
    // Aggregate the query trace per stage and dump the governance
    // regression baseline.
    double WallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      SuiteStart)
            .count();
    struct StageAgg {
      const char *Name;
      uint64_t Queries = 0, Retried = 0, Retries = 0, Unknown = 0;
      uint64_t RlimitSpent = 0;
      double WallMs = 0;
    } Stages[2] = {{"bounded"}, {"generalize"}};
    for (const QueryRecord &R : Trace.records()) {
      StageAgg &S = Stages[std::strcmp(R.Stage, "bounded") ? 1 : 0];
      ++S.Queries;
      if (R.Attempts > 1) {
        ++S.Retried;
        S.Retries += R.Attempts - 1;
      }
      if (!std::strcmp(R.Outcome, "unknown") ||
          !std::strcmp(R.Outcome, "error"))
        ++S.Unknown;
      S.RlimitSpent += R.RlimitSpent;
      S.WallMs += R.WallMs;
    }
    FILE *F = std::fopen(GovernancePath, "w");
    if (!F) {
      std::fprintf(stderr, "error: cannot write %s\n", GovernancePath);
      return 1;
    }
    std::fprintf(F, "{\n  \"projects\": %u,\n  \"wall_seconds\": %.1f,\n"
                    "  \"backend_seconds\": %.1f,\n",
                 Projects, WallSeconds, TotalBackend);
    std::fprintf(F, "  \"smt_retries\": %u,\n  \"smt_unknown\": %u,\n"
                    "  \"dfs_budget_exhausted\": %u,\n"
                    "  \"rlimit_spent\": %llu,\n  \"stages\": {\n",
                 TotalRetries, TotalUnknown, TotalDfsExhausted,
                 static_cast<unsigned long long>(TotalRlimitSpent));
    for (unsigned I = 0; I != 2; ++I) {
      const StageAgg &S = Stages[I];
      double RetryRate =
          S.Queries ? static_cast<double>(S.Retried) / S.Queries : 0.0;
      std::fprintf(
          F,
          "    \"%s\": {\"queries\": %llu, \"retried\": %llu, "
          "\"retries\": %llu, \"retry_rate\": %.4f, \"unknown\": %llu, "
          "\"rlimit_spent\": %llu, \"wall_ms\": %.1f}%s\n",
          S.Name, static_cast<unsigned long long>(S.Queries),
          static_cast<unsigned long long>(S.Retried),
          static_cast<unsigned long long>(S.Retries), RetryRate,
          static_cast<unsigned long long>(S.Unknown),
          static_cast<unsigned long long>(S.RlimitSpent), S.WallMs,
          I == 0 ? "," : "");
    }
    std::fprintf(F, "  }\n}\n");
    std::fclose(F);
    std::printf("  governance aggregate written to %s\n", GovernancePath);
  }

  if (PassesPath) {
    std::printf("\nHistory reduction (raw -> reduced, unfiltered + "
                "filtered runs summed)\n");
    std::printf("  %-18s %13s %13s %13s  %s\n", "Program", "events",
                "ssg edges", "smt queries", "verdicts");
    unsigned SumEvB = 0, SumEvA = 0, SumEdB = 0, SumEdA = 0, SumQB = 0,
             SumQA = 0, SumQPre = 0, SumQOff = 0;
    for (const PassRow &Row : PassRows) {
      std::printf("  %-18s %5u -> %-5u %5u -> %-5u %5u -> %-5u  %s\n",
                  Row.Name, Row.EventsBefore, Row.EventsAfter,
                  Row.EdgesBefore, Row.EdgesAfter, Row.QueriesBefore,
                  Row.QueriesAfter,
                  Row.VerdictMatch ? "match" : "MISMATCH");
      SumEvB += Row.EventsBefore;
      SumEvA += Row.EventsAfter;
      SumEdB += Row.EdgesBefore;
      SumEdA += Row.EdgesAfter;
      SumQB += Row.QueriesBefore;
      SumQA += Row.QueriesAfter;
      SumQPre += Row.QueriesPrefiltered;
      SumQOff += Row.QueriesNoPrefilter;
    }
    std::printf("  %-18s %5u -> %-5u %5u -> %-5u %5u -> %-5u  %s\n",
                "TOTAL", SumEvB, SumEvA, SumEdB, SumEdA, SumQB, SumQA,
                VerdictMismatches ? "MISMATCHES" : "all match");
    std::printf("  dead writes %u, pruned branches %u, const props %u, "
                "fresh promotions %u (pass time %.2fs)\n",
                TotalPassStats.DeadWrites, TotalPassStats.PrunedBranches,
                TotalPassStats.ConstProps, TotalPassStats.FreshPromotions,
                PassSeconds);
    double KillFraction =
        SumQA + SumQPre
            ? static_cast<double>(SumQPre) / (SumQA + SumQPre)
            : 0.0;
    std::printf("  prefilter: killed %u of %u bounded queries (%.0f%%), "
                "domain time %.2fs, reduced analysis %.1fs on vs %.1fs "
                "off, verdicts %s\n",
                SumQPre, SumQA + SumQPre, 100.0 * KillFraction,
                PrefilterDomainSeconds, ReducedSeconds, PrefilterOffSeconds,
                PrefilterMismatches ? "DIVERGE" : "identical");

    FILE *F = std::fopen(PassesPath, "w");
    if (!F) {
      std::fprintf(stderr, "error: cannot write %s\n", PassesPath);
      return 1;
    }
    std::fprintf(F,
                 "{\n  \"projects\": %u,\n  \"verdict_mismatches\": %u,\n",
                 Projects, VerdictMismatches);
    std::fprintf(F,
                 "  \"events_before\": %u,\n  \"events_after\": %u,\n"
                 "  \"ssg_edges_before\": %u,\n  \"ssg_edges_after\": %u,\n"
                 "  \"smt_queries_before\": %u,\n"
                 "  \"smt_queries_after\": %u,\n",
                 SumEvB, SumEvA, SumEdB, SumEdA, SumQB, SumQA);
    std::fprintf(F,
                 "  \"smt_queries_prefiltered\": %u,\n"
                 "  \"smt_queries_no_prefilter\": %u,\n"
                 "  \"prefilter_kill_fraction\": %.4f,\n"
                 "  \"prefilter_seconds\": %.3f,\n"
                 "  \"prefilter_verdict_mismatches\": %u,\n"
                 "  \"analysis_seconds_prefilter_off\": %.1f,\n",
                 SumQPre, SumQOff, KillFraction, PrefilterDomainSeconds,
                 PrefilterMismatches, PrefilterOffSeconds);
    std::fprintf(F,
                 "  \"dead_writes\": %u,\n  \"pruned_branches\": %u,\n"
                 "  \"const_props\": %u,\n  \"fresh_promotions\": %u,\n",
                 TotalPassStats.DeadWrites, TotalPassStats.PrunedBranches,
                 TotalPassStats.ConstProps, TotalPassStats.FreshPromotions);
    std::fprintf(F,
                 "  \"pass_seconds\": %.2f,\n"
                 "  \"analysis_seconds_before\": %.1f,\n"
                 "  \"analysis_seconds_after\": %.1f,\n  \"apps\": [\n",
                 PassSeconds, RawSeconds, ReducedSeconds);
    for (size_t I = 0; I != PassRows.size(); ++I) {
      const PassRow &Row = PassRows[I];
      std::fprintf(F,
                   "    {\"name\": \"%s\", \"events\": [%u, %u], "
                   "\"ssg_edges\": [%u, %u], \"smt_queries\": [%u, %u], "
                   "\"verdict_match\": %s, "
                   "\"smt_queries_prefiltered\": %u, "
                   "\"smt_queries_no_prefilter\": %u, "
                   "\"prefilter_match\": %s}%s\n",
                   Row.Name, Row.EventsBefore, Row.EventsAfter,
                   Row.EdgesBefore, Row.EdgesAfter, Row.QueriesBefore,
                   Row.QueriesAfter, Row.VerdictMatch ? "true" : "false",
                   Row.QueriesPrefiltered, Row.QueriesNoPrefilter,
                   Row.PrefilterMatch ? "true" : "false",
                   I + 1 == PassRows.size() ? "" : ",");
    }
    std::fprintf(F, "  ]\n}\n");
    std::fclose(F);
    std::printf("  pass comparison written to %s\n", PassesPath);
  }
  return Failures || VerdictMismatches || PrefilterMismatches ? 1 : 0;
}
