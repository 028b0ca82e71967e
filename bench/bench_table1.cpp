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
///   bench_table1 [--quick] [--no-passes] [--lint]
///     --quick      only the first six apps
///     --no-passes  skip the history-reduction passes that otherwise run
///                  between compilation and analysis
///     --lint       lint every app instead (no analysis); exits 1 on any
///                  unsuppressed warning
///
/// Any other argument prints the usage line and exits 2. Performance
/// numbers for the analyzer's layers come from the repository's benchmark
/// (`python3 perfbench/run.py`); the serving and incremental contracts are
/// gated by tests under tests/.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "apps/Apps.h"
#include "frontend/Frontend.h"
#include "passes/PassManager.h"

#include <cstdio>
#include <cstring>
#include <string>

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

/// Lints every benchmark app (no analysis). Returns 1 on any unsuppressed
/// warning, so CI can gate on a lint-clean suite.
int lintApps() {
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

} // namespace

static const int StdoutLineBuffered = []() {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  return 0;
}();

int main(int Argc, char **Argv) {
  bool Quick = false, NoPasses = false, LintOnly = false;
  for (int I = 1; I != Argc; ++I) {
    if (!std::strcmp(Argv[I], "--quick")) {
      Quick = true;
    } else if (!std::strcmp(Argv[I], "--no-passes")) {
      NoPasses = true;
    } else if (!std::strcmp(Argv[I], "--lint")) {
      LintOnly = true;
    } else {
      std::fprintf(stderr,
                   "error: unknown argument '%s'\n"
                   "usage: %s [--quick] [--no-passes] [--lint]\n",
                   Argv[I], Argv[0]);
      return 2;
    }
  }

  if (LintOnly)
    return lintApps();

  std::printf("Table 1: analysis results on the 28 benchmark "
              "applications\n");
  std::printf("(paper numbers in [brackets]; E/H/F = harmful / harmless / "
              "false alarm)\n\n");
  std::printf("%-18s %7s %13s | %-22s | %-22s\n", "Program", "T/E",
              "FE/BE [s]", "Unfiltered E/H/F/Sum", "Filtered E/H/F/Sum");

  Counts TotalUnf, TotalFil;
  unsigned TotalSSGFlagged = 0, TotalRefuted = 0, TotalUnknown = 0;
  unsigned Projects = 0, Failures = 0, NotGeneralized = 0;
  const char *LastDomain = "";

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
    }

    AnalyzerOptions Unfiltered;
    AnalysisResult RU = analyze(*P.History, Unfiltered);

    AnalyzerOptions Filtered;
    Filtered.DisplayFilter = true;
    Filtered.UseAtomicSets = !P.AtomicSets.empty();
    Filtered.AtomicSets = P.AtomicSets;
    AnalysisResult RF = analyze(*P.History, Filtered);

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
  return Failures ? 1 : 0;
}
