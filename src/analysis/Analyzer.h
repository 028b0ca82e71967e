//===- analysis/Analyzer.h - The C4 analysis driver (Alg. 1) ----*- C++ -*-===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end C4 back end (paper Figure 2 and Algorithm 1). Given an
/// abstract history, the analyzer
///
///  1. runs the fast general SSG analysis (§6); if it proves the program
///     serializable, done;
///  2. otherwise iterates k = 2, 3, ...: enumerates the k-unfoldings,
///     skips those subsumed by known violations, pre-filters with the
///     instantiated SSG, and asks the SMT stage (§7) for concrete DSG
///     cycles, which become violations with counter-examples;
///  3. after each round, attempts to generalize to an unbounded number of
///     sessions (§7.2): every (k+1)-session segment pattern must be
///     subsumed, infeasible, or short-cuttable.
///
/// Filters (§9.1): display-code queries can be excluded, and the analysis
/// can be run per atomic set of containers.
///
//===----------------------------------------------------------------------===//

#ifndef C4_ANALYSIS_ANALYZER_H
#define C4_ANALYSIS_ANALYZER_H

#include "abstract/Features.h"
#include "smt/Encoding.h"
#include "smt/QueryTrace.h"

#include <optional>
#include <string>
#include <vector>

namespace c4 {

class Deadline;
class IncrementalStore;

/// Tuning knobs and feature/filter configuration for one analysis run.
struct AnalyzerOptions {
  AnalysisFeatures Features;
  /// Iteration limit for the session bound k.
  unsigned MaxK = 3;
  /// Caps for enumeration (a warning flag is set when hit).
  unsigned MaxUnfoldings = 200000;
  unsigned MaxCandidateCycles = 128;
  /// Per-query solver budget: deterministic rlimit first, wall-clock
  /// backstop, geometric retry on unknown (see SolverBudget).
  SolverBudget Budget;
  /// Global analysis deadline in milliseconds (0 = none). When it expires
  /// the run winds down cooperatively: remaining unfoldings are deferred
  /// (counted in UnfoldingsDeferred), generalization is skipped, and the
  /// result degrades to a partial-but-sound bounded verdict — never to a
  /// serializability claim.
  unsigned DeadlineMs = 0;
  /// Optional externally owned deadline governing this run instead of a
  /// fresh one built from DeadlineMs (which still describes the budget for
  /// fingerprinting — callers arm the external deadline from the same
  /// value). Lets a caller cancel an in-flight analysis cooperatively: the
  /// serving tier's graceful drain trips every live request's deadline and
  /// each run winds down to the usual partial-but-sound verdict. Not part
  /// of the verdict fingerprint — cancellation marks the result
  /// DeadlineExpired, which is never cached or shared.
  const Deadline *ExternalDeadline = nullptr;
  /// Step budget for the layout-viability DFS pre-filter. Exhaustion keeps
  /// the layout (sound) and is counted in DfsBudgetExhausted.
  unsigned LayoutDfsBudget = 20000;
  /// Optional structured query trace: one record per solver query.
  QueryTrace *Trace = nullptr;
  /// Worker threads for the bounded check (0 = hardware concurrency).
  /// Parallel runs commit results in enumeration order, so verdicts,
  /// violation sets and statistics are identical to a single-threaded run.
  unsigned NumThreads = 0;
  /// Shares one memoization oracle for rewrite-spec conditions and their
  /// satisfiability verdicts across all SSG instantiations and SMT
  /// encodings of the run. Identical verdicts either way; disabling it is
  /// for the oracle-equivalence tests and A/B measurements.
  bool UseOracle = true;
  /// Optional Z3 environment to reuse for the sequential stages instead of
  /// constructing a fresh one per run (a context costs ~15 ms, noticeable
  /// for a service answering many small requests). The caller guarantees
  /// no concurrent use; per-query name generations keep reuse sound.
  Z3Env *ReuseEnv = nullptr;
  /// Master switch for the incremental layers below (`--no-incremental`).
  /// Like NumThreads and UseOracle this is observability-only: the layers
  /// replay verdicts the solver itself proved, so results are identical
  /// either way, and the flag is absent from the verdict fingerprint. Their
  /// reuse counters (like the oracle cache counters) vary with cache state
  /// and are normalized by the differential tooling.
  bool UseIncremental = true;
  /// Optional incremental store of per-unfolding outcome records (see
  /// analysis/Incremental.h). Lookups consult only the immutable base
  /// loaded at run start; fresh records accumulate run-locally, so hits
  /// and misses are deterministic across thread counts. Ignored when
  /// UseIncremental is false.
  IncrementalStore *Incremental = nullptr;
  /// §9.1 filters.
  bool DisplayFilter = false;
  bool UseAtomicSets = false;
  /// Atomic sets: groups of container ids analyzed independently.
  std::vector<std::vector<unsigned>> AtomicSets;
};

/// One detected serializability violation.
struct Violation {
  /// The sorted set of syntactic (original abstract) transactions on the
  /// cycle — the subsumption key.
  std::vector<unsigned> OrigTxns;
  std::vector<std::string> TxnNames;
  /// Concrete witness (absent if the solver returned unknown).
  std::optional<CounterExample> CE;
  /// Rendered witness text. Normally mirrors CE->Text; for results
  /// rehydrated from the verdict cache (where the structural witness is not
  /// persisted) it is the only surviving form. reportStr() prefers CE->Text
  /// and falls back to this.
  std::string CEText;
  /// True when recorded due to a solver timeout rather than a model.
  bool Inconclusive = false;
  /// True when the witness was checked end to end: it is a concretization
  /// of the abstract history and its schedule's DSG is cyclic.
  bool Validated = false;
};

/// Outcome and statistics of an analysis run.
struct AnalysisResult {
  std::vector<Violation> Violations;
  /// True when the result covers any number of sessions: either the fast
  /// analysis proved serializability, or the §7.2 generalization succeeded.
  bool Generalized = false;
  /// True when the general SSG analysis alone proved serializability.
  bool FastProvedSerializable = false;
  /// Largest session bound fully checked.
  unsigned KChecked = 0;
  // Statistics for the evaluation (§9.2).
  unsigned UnfoldingsChecked = 0;
  unsigned UnfoldingsSubsumed = 0;
  unsigned LayoutsFiltered = 0; ///< session layouts dropped by the cheap
                                ///< viability pre-filter (never unfolded)
  unsigned SSGEdges = 0;    ///< edge count of the general SSG (stage 1);
                            ///< summed over atomic-set runs
  unsigned SmtQueries = 0;  ///< solver queries issued (bounded + generalize)
  unsigned SSGFlagged = 0;  ///< unfoldings whose SSG admitted cycles
  unsigned SMTRefuted = 0;  ///< ... of which the SMT stage refuted
  unsigned SMTUnknown = 0;
  unsigned SMTRetries = 0; ///< escalated re-solves after an unknown
  unsigned SmtSolves = 0; ///< queries that actually reached Z3 — SmtQueries
                          ///< minus incremental-record replays (the
                          ///< warm-run speedup metric)
  uint64_t RlimitSpent = 0; ///< solver resource units across all queries
  bool Truncated = false; ///< an enumeration cap was hit
  /// The --deadline-ms budget expired; the result is partial but sound
  /// (reported violations are real findings, but unchecked work remains).
  bool DeadlineExpired = false;
  /// Unfoldings of the last bounded round never conclusively checked
  /// because the deadline expired first.
  unsigned UnfoldingsDeferred = 0;
  /// Layout-viability DFS budget exhaustions (layouts conservatively kept).
  unsigned DfsBudgetExhausted = 0;
  double BackendSeconds = 0;

  // Observability (oracle cache + per-stage time). Stage seconds are
  // cumulative across workers, so with multiple threads they can exceed
  // BackendSeconds (they measure work, not wall time).
  uint64_t CondCacheHits = 0, CondCacheMisses = 0;
  uint64_t SatCacheHits = 0, SatCacheMisses = 0;
  // Incremental-layer observability (see analysis/Incremental.h). Like the
  // oracle cache counters these depend on the persisted cache state, not
  // on the program alone.
  uint64_t TxnFingerprintHits = 0; ///< transactions whose content digest
                                   ///< was already in the persisted store
  uint64_t SolverCtxReuses = 0; ///< solver contexts shared instead of
                                ///< rebuilt (retry re-checks + generalize
                                ///< chunk reuse)
  double IncrementalSeconds = 0; ///< digest/key computation + lookups
  double SSGSeconds = 0;  ///< SSG construction + Theorem 3 + cycle/segment
                          ///< enumeration on instantiated graphs
  double EnumSeconds = 0; ///< unfolding enumeration (incl. layout filter)
  double SmtSeconds = 0;  ///< ϕ_cyclic encoding + solving
  double ValidateSeconds = 0; ///< witness validation, plus the witness
                              ///< rebuild of replayed cycle records

  bool serializable() const { return Violations.empty() && Generalized; }

  // Violation triage: a solver-budget timeout (Inconclusive) must never be
  // read as a proven violation, so reports and stats keep the three classes
  // apart.
  unsigned validatedViolations() const {
    unsigned N = 0;
    for (const Violation &V : Violations)
      N += !V.Inconclusive && V.Validated;
    return N;
  }
  unsigned unvalidatedViolations() const {
    unsigned N = 0;
    for (const Violation &V : Violations)
      N += !V.Inconclusive && !V.Validated;
    return N;
  }
  unsigned inconclusiveViolations() const {
    unsigned N = 0;
    for (const Violation &V : Violations)
      N += V.Inconclusive;
    return N;
  }
};

/// Runs the full pipeline on an abstract history.
AnalysisResult analyze(const AbstractHistory &A,
                       const AnalyzerOptions &O = {});

/// Renders a short report.
std::string reportStr(const AbstractHistory &A, const AnalysisResult &R);

} // namespace c4

#endif // C4_ANALYSIS_ANALYZER_H
