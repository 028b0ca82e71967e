//===- tools/c4-analyze.cpp - C4 command line driver ----------------------===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front end: compiles a .c4l file and runs the full analysis.
///
///   c4-analyze [options] <file.c4l>
///     --no-filter          disable the display-code and atomic-set filters
///     --no-commutativity   ablation switches (paper §9.3)
///     --no-absorption
///     --no-constraints
///     --no-control-flow
///     --no-asymmetric
///     --no-unique
///     --max-k <n>          session bound cap (default 3, must be >= 1)
///     --threads <n>        worker threads for the bounded check
///                          (0 = hardware concurrency; results are
///                          independent of the thread count)
///     --no-cache           disable the commutativity/absorption
///                          memoization oracle (A/B measurements)
///     --rlimit <n>         per-query solver budget in Z3 resource units —
///                          deterministic across machines, unlike wall time
///                          (0 = wall-clock backstop only)
///     --rlimit-cap <n>     ceiling of the geometric retry escalation
///     --retries <n>        max re-solves after an unknown (each retry
///                          multiplies the rlimit by the escalation factor)
///     --smt-timeout-ms <n> wall-clock backstop per solver call
///     --deadline-ms <n>    global analysis deadline; on expiry the run
///                          winds down cooperatively and reports a partial
///                          but sound verdict (0 = none)
///     --dfs-budget <n>     step budget of the layout-viability pre-filter
///     --trace <file>       write a JSONL query trace: one record per
///                          solver query (stage, unfolding, rlimit spent,
///                          retries, outcome, wall time)
///     --cache-dir <dir>    persistent cross-run cache (created if needed):
///                          whole-history verdicts keyed by a content
///                          fingerprint. A warm hit replays the cold run's result and
///                          statistics byte-for-byte; any miss or corrupt
///                          entry silently falls back to a cold analysis
///     --incremental-cache <dir>
///                          like --cache-dir, plus the incremental layer:
///                          per-unfolding outcome records (cycles with
///                          their witness models) keyed by transaction
///                          content digests, so after an edit only the
///                          queries touching the edited transaction are
///                          re-solved (verdicts are identical either way)
///     --seed <n>           RNG seed for --simulate (default 0xC4C4)
///     --simulate <n>       additionally execute n randomized workloads on
///                          the causal-store simulator and report how often
///                          the dynamic analyzer observes a violation
///     --stats-json         print the analysis result and statistics as a
///                          single JSON object on stdout (machine-readable
///                          perf trajectories for the bench suite)
///     --dot                print the general static serialization graph in
///                          Graphviz format and exit
///     --no-passes          skip the reduction pass pipeline (the abstract
///                          history is analyzed exactly as compiled); the
///                          verdict is unchanged, only cost may differ
///     --lint               print lint warnings (docs/passes.md) for the
///                          program as written and exit without analyzing
///     --lint-json          like --lint, but as a JSON object
///     --werror             treat lint warnings as errors
///
/// Exit codes: 0 clean, 1 serializability violation reported (takes
/// precedence over --werror), 2 usage or compile error, 3 lint warnings
/// present under --werror (and no violation).
///
//===----------------------------------------------------------------------===//

#include "analysis/Pipeline.h"
#include "frontend/Frontend.h"
#include "passes/PassManager.h"
#include "ssg/GraphExport.h"
#include "store/DynamicAnalyzer.h"
#include "store/Interpreter.h"
#include "support/Format.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace c4;

static int usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s [--no-filter] [--no-commutativity] "
               "[--no-absorption] [--no-constraints] [--no-control-flow] "
               "[--no-asymmetric] [--no-unique] [--no-cache] [--max-k N] "
               "[--threads N] [--rlimit N] [--rlimit-cap N] [--retries N] "
               "[--smt-timeout-ms N] [--deadline-ms N] [--dfs-budget N] "
               "[--trace FILE] [--cache-dir DIR] [--incremental-cache DIR] "
               "[--seed N] [--simulate N] "
               "[--stats-json] [--dot] [--no-passes] [--lint] [--lint-json] "
               "[--werror] <file.c4l>\n",
               Prog);
  return 2;
}

int main(int Argc, char **Argv) {
  AnalyzerOptions Options;
  Options.DisplayFilter = true;
  Options.UseAtomicSets = true;
  unsigned SimulateTrials = 0;
  unsigned Seed = 0xC4C4;
  bool DumpDot = false;
  bool StatsJson = false;
  bool NoPasses = false, LintText = false, LintJson = false, Werror = false;
  const char *Path = nullptr;
  const char *TracePath = nullptr;
  const char *CacheDir = nullptr;
  bool IncrementalCache = false;
  for (int I = 1; I != Argc; ++I) {
    const char *Arg = Argv[I];
    if (!std::strcmp(Arg, "--no-filter")) {
      Options.DisplayFilter = false;
      Options.UseAtomicSets = false;
    } else if (!std::strcmp(Arg, "--no-commutativity")) {
      Options.Features.Commutativity = false;
    } else if (!std::strcmp(Arg, "--no-absorption")) {
      Options.Features.Absorption = false;
    } else if (!std::strcmp(Arg, "--no-constraints")) {
      Options.Features.Constraints = false;
    } else if (!std::strcmp(Arg, "--no-control-flow")) {
      Options.Features.ControlFlow = false;
    } else if (!std::strcmp(Arg, "--no-asymmetric")) {
      Options.Features.AsymmetricAntiDeps = false;
    } else if (!std::strcmp(Arg, "--no-unique")) {
      Options.Features.UniqueValues = false;
    } else if (!std::strcmp(Arg, "--no-cache")) {
      Options.UseOracle = false;
    } else if (!std::strcmp(Arg, "--max-k")) {
      if (I + 1 == Argc || !parseCount(Arg, Argv[++I], Options.MaxK))
        return usage(Argv[0]);
      if (Options.MaxK < 1) {
        std::fprintf(stderr, "error: --max-k must be at least 1\n");
        return usage(Argv[0]);
      }
    } else if (!std::strcmp(Arg, "--threads")) {
      if (I + 1 == Argc || !parseCount(Arg, Argv[++I], Options.NumThreads))
        return usage(Argv[0]);
    } else if (!std::strcmp(Arg, "--rlimit")) {
      unsigned V = 0;
      if (I + 1 == Argc || !parseCount(Arg, Argv[++I], V))
        return usage(Argv[0]);
      Options.Budget.Rlimit = V;
    } else if (!std::strcmp(Arg, "--rlimit-cap")) {
      unsigned V = 0;
      if (I + 1 == Argc || !parseCount(Arg, Argv[++I], V))
        return usage(Argv[0]);
      Options.Budget.RlimitCap = V;
    } else if (!std::strcmp(Arg, "--retries")) {
      if (I + 1 == Argc ||
          !parseCount(Arg, Argv[++I], Options.Budget.MaxRetries))
        return usage(Argv[0]);
    } else if (!std::strcmp(Arg, "--smt-timeout-ms")) {
      if (I + 1 == Argc || !parseCount(Arg, Argv[++I], Options.Budget.WallMs))
        return usage(Argv[0]);
    } else if (!std::strcmp(Arg, "--deadline-ms")) {
      if (I + 1 == Argc || !parseCount(Arg, Argv[++I], Options.DeadlineMs))
        return usage(Argv[0]);
    } else if (!std::strcmp(Arg, "--dfs-budget")) {
      if (I + 1 == Argc ||
          !parseCount(Arg, Argv[++I], Options.LayoutDfsBudget))
        return usage(Argv[0]);
    } else if (!std::strcmp(Arg, "--trace")) {
      if (I + 1 == Argc)
        return usage(Argv[0]);
      TracePath = Argv[++I];
    } else if (!std::strcmp(Arg, "--cache-dir")) {
      if (I + 1 == Argc)
        return usage(Argv[0]);
      CacheDir = Argv[++I];
    } else if (!std::strcmp(Arg, "--incremental-cache")) {
      if (I + 1 == Argc)
        return usage(Argv[0]);
      CacheDir = Argv[++I];
      IncrementalCache = true;
    } else if (!std::strcmp(Arg, "--seed")) {
      if (I + 1 == Argc || !parseCount(Arg, Argv[++I], Seed))
        return usage(Argv[0]);
    } else if (!std::strcmp(Arg, "--simulate")) {
      if (I + 1 == Argc || !parseCount(Arg, Argv[++I], SimulateTrials))
        return usage(Argv[0]);
    } else if (!std::strcmp(Arg, "--stats-json")) {
      StatsJson = true;
    } else if (!std::strcmp(Arg, "--dot")) {
      DumpDot = true;
    } else if (!std::strcmp(Arg, "--no-passes")) {
      NoPasses = true;
    } else if (!std::strcmp(Arg, "--lint")) {
      LintText = true;
    } else if (!std::strcmp(Arg, "--lint-json")) {
      LintJson = true;
    } else if (!std::strcmp(Arg, "--werror")) {
      Werror = true;
    } else if (Arg[0] == '-') {
      return usage(Argv[0]);
    } else if (!Path) {
      Path = Arg;
    } else {
      return usage(Argv[0]);
    }
  }
  if (!Path)
    return usage(Argv[0]);

  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open %s\n", Path);
    return 2;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();

  CompileResult Compiled = compileC4L(Buffer.str());
  if (!Compiled.ok()) {
    std::fprintf(stderr, "%s: error: %s\n", Path, Compiled.Error.c_str());
    return 2;
  }
  CompiledProgram &P = *Compiled.Program;

  // The pass pipeline: sound history reduction plus the lint layer. Lint
  // modes analyze the program exactly as written (no reduction), so every
  // diagnostic points at source the user can see.
  PassOptions PassOpts;
  PassOpts.Reduce = !NoPasses && !LintText && !LintJson;
  PassOpts.UniqueValues = Options.Features.UniqueValues;
  PassOpts.Lint = LintText || LintJson || Werror;
  PassResult Passes;
  if (PassOpts.Reduce || PassOpts.Lint) {
    std::string Source = Buffer.str();
    Passes = runPasses(P, PassOpts, &Source);
    if (!Passes.Ok) {
      std::fprintf(stderr, "%s: error: %s\n", Path, Passes.Error.c_str());
      return 2;
    }
  }
  if (LintText || LintJson) {
    std::fputs((LintJson ? renderLintJson(Passes.Lints, Path)
                         : renderLintText(Passes.Lints, Path))
                   .c_str(),
               stdout);
    return Werror && !Passes.Lints.empty() ? 3 : 0;
  }
  if (Werror && !Passes.Lints.empty())
    std::fputs(renderLintText(Passes.Lints, Path).c_str(), stderr);

  Options.AtomicSets = P.AtomicSets;

  if (DumpDot) {
    SSG G(*P.History, Options.Features);
    G.analyze();
    std::fputs(ssgToDot(*P.History, G.graph()).c_str(), stdout);
    return 0;
  }

  if (!StatsJson)
    std::printf("%s: %u transactions, %u events (front end %.3fs)\n", Path,
                P.History->numTxns(), P.History->numStoreEvents(),
                P.FrontendSeconds);
  QueryTrace Trace;
  if (TracePath)
    Options.Trace = &Trace;

  // The persistent cross-run cache (verdicts, plus incremental records
  // with --incremental-cache). A directory that cannot be created degrades
  // to a plain cold run.
  std::unique_ptr<AnalysisCache> Cache;
  if (CacheDir) {
    Cache = std::make_unique<AnalysisCache>(CacheDir, IncrementalCache);
    if (!Cache->enabled())
      std::fprintf(stderr,
                   "warning: cannot open cache directory %s; running cold\n",
                   CacheDir);
  }
  PipelineResult PR =
      analyzeCached(*P.History, Options, *P.Registry, Cache.get());
  AnalysisResult &R = PR.R;
  if (Cache && Cache->enabled())
    // Cache observability goes to stderr: stdout carries only the result,
    // so warm output stays comparable to cold output.
    std::fprintf(stderr, "cache: verdict %s (fingerprint %s)\n",
                 PR.CacheHit ? "hit" : "miss", PR.Fingerprint.c_str());
  if (TracePath && !Trace.writeFile(TracePath)) {
    std::fprintf(stderr, "error: cannot write trace to %s\n", TracePath);
    return 2;
  }
  if (StatsJson) {
    StatsJsonFields F;
    F.File = Path;
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
    std::fputs(renderStatsJson(F, R).c_str(), stdout);
  } else {
    std::fputs(reportStr(*P.History, R).c_str(), stdout);
  }

  if (SimulateTrials) {
    // Cross-check dynamically: randomized workloads on the causal-store
    // simulator, analyzed by the dynamic DSG analyzer (§9.5 baseline).
    Rng Rand(Seed);
    unsigned Detected = 0;
    for (unsigned Trial = 0; Trial != SimulateTrials; ++Trial) {
      CausalStore Store(*P.Sch, 2);
      ProgramRunner Runner(P, Store);
      unsigned Sessions[2] = {Store.openSession(0), Store.openSession(1)};
      for (unsigned S : Sessions)
        for (const std::string &Name : P.AST->SessionConsts)
          Runner.setSessionConst(S, Name, 40 + S);
      std::string Error;
      for (int Round = 0; Round != 6; ++Round) {
        const TxnDecl &T = P.AST->Txns[Rand.below(P.AST->Txns.size())];
        std::vector<int64_t> Args;
        for (size_t A = 0; A != T.Params.size(); ++A)
          Args.push_back(Rand.range(1, 2));
        Runner.runTxn(Sessions[Rand.below(2)], T.Name, Args, Error);
        while (Rand.chance(1, 2) && Store.deliverRandom(Rand)) {
        }
      }
      Store.deliverAll();
      if (analyzeDynamic(Store.history(), Store.schedule())
              .violationFound())
        ++Detected;
    }
    std::printf("simulation: %u of %u randomized executions exhibited a "
                "DSG cycle dynamically (seed 0x%X)\n",
                Detected, SimulateTrials, Seed);
  }
  if (!R.Violations.empty())
    return 1;
  return Werror && !Passes.Lints.empty() ? 3 : 0;
}
