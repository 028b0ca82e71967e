//===- analysis/Analyzer.cpp ----------------------------------------------===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"

#include "abstract/Concretize.h"
#include "analysis/Incremental.h"
#include "spec/CommutativityCache.h"
#include "support/Format.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

using namespace c4;

namespace {

/// Accumulates wall time into a double on scope exit (per-stage stats).
class StageTimer {
public:
  explicit StageTimer(double &Dest)
      : Acc(Dest), Start(std::chrono::steady_clock::now()) {}
  ~StageTimer() {
    Acc += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Start)
               .count();
  }

private:
  double &Acc;
  std::chrono::steady_clock::time_point Start;
};

/// Shared state of one analysis run (one event mask).
class Run {
public:
  Run(const AbstractHistory &Hist, const AnalyzerOptions &Opts,
      std::vector<bool> EventMask, CommutativityOracle *CondOracle,
      const Deadline *Dl)
      : A(Hist), O(Opts), Mask(std::move(EventMask)), Oracle(CondOracle),
        DL(Dl) {
    if (O.UseIncremental && O.Incremental) {
      StageTimer Timer(IncrSec);
      Incr = O.Incremental;
      IncrCtx = incrementalContextDigest(A, O, Mask);
    }
  }

  void execute(AnalysisResult &R);

private:
  bool subsumed(const Unfolding &U, const std::vector<Violation> &V) const;
  /// Runs one bounded round; returns false when the analysis deadline
  /// expired before every unfolding of the round was conclusively handled
  /// (the remainder is counted in AnalysisResult::UnfoldingsDeferred and
  /// the round must not count towards KChecked).
  bool checkBounded(unsigned K, AnalysisResult &R,
                    const std::vector<unsigned> &Universe);
  /// One worker unit of the bounded check: SSG + candidate cycles + SMT for
  /// a single unfolding. Pure apart from the shared oracle (thread-safe).
  struct UnfoldingOutcome {
    bool PrunedEarly = false; ///< subsumed before the commit; result not
                              ///< needed
    bool Cancelled = false;   ///< deadline expired before the solve started
    bool CandTruncated = false;
    bool Flagged = false; ///< the instantiated SSG admitted candidates
    bool Reused = false; ///< replayed from a persisted incremental record;
                         ///< the solve was skipped
    UnfoldingResult Res;
    SolveTelemetry Tel;
    bool CEValid = false;
    double SSGSec = 0, SmtSec = 0, IncrSec = 0, ValidateSec = 0;
  };
  /// Coordination between the workers and the commit loop of one parallel
  /// bounded round, guarded by Mu.
  struct CommitState {
    std::mutex Mu;
    std::condition_variable Advanced; ///< signalled as Consumed grows
    const std::vector<Violation> *Committed = nullptr;
    size_t Consumed = 0; ///< outcomes the commit loop has taken, in order
    /// Per unfolding index: the sorted transactions of the cycle a worker
    /// found or replayed for it, published ahead of its commit.
    std::vector<std::vector<unsigned>> Cycles;
  };
  /// \p CS and \p Index are set on parallel rounds only.
  UnfoldingOutcome solveOne(const Unfolding &U, Z3Env *Env,
                            CommitState *CS = nullptr, size_t Index = 0);
  /// Parallel rounds: true when \p U is subsumed by the committed
  /// violations, after waiting for the commit of every earlier unfolding
  /// whose published cycle lies inside \p U's transactions.
  bool heldBack(const Unfolding &U, size_t Index, CommitState &CS) const;
  /// Replays incremental record \p Rec into \p Out; false when the record
  /// cannot be replayed (a cycle without a witness that fits).
  bool replay(const IncrRecord &Rec, const Unfolding &U,
              const std::vector<CandidateCycle> &Cands,
              UnfoldingOutcome &Out) const;
  /// Folds a worker outcome's stage timers into the run's.
  void addStageTimes(const UnfoldingOutcome &Out) {
    SSGSec += Out.SSGSec;
    SmtSec += Out.SmtSec;
    IncrSec += Out.IncrSec;
    ValidateSec += Out.ValidateSec;
  }
  /// Applies one outcome to \p R exactly as the sequential loop would,
  /// re-checking subsumption against the violations committed so far.
  /// \p K / \p Index identify the query for the trace (commit order).
  void commitOutcome(const Unfolding &U, UnfoldingOutcome &&Out,
                     AnalysisResult &R, unsigned K, long Index);
  unsigned effectiveThreads(size_t Work) const;
  bool generalizes(unsigned K, const AnalysisResult &R,
                   const std::vector<unsigned> &Universe);
  std::vector<struct MergeCtx>
  buildMerges(const Unfolding &U,
              const std::vector<std::vector<bool>> &SoClosure);
  std::vector<bool> maskForUnfolding(const Unfolding &U) const;
  /// Returns true if a new violation was recorded (false on duplicates).
  bool recordViolation(AnalysisResult &R, std::vector<unsigned> OrigTxns,
                       std::optional<CounterExample> CE, bool Inconclusive);
  bool validateCE(const CounterExample &CE) const;

  /// Cheap pre-filter for session layouts: can the layout carry a
  /// candidate cycle (Closed) or a §7.2 spanning segment (open)? Checked on
  /// a mini-graph over the layout's transactions using the precomputed
  /// general SSG edges (a sound over-approximation of every instantiated
  /// SSG) plus intra-session order. Skipping a layout that fails avoids
  /// building its abstract history entirely.
  bool layoutViable(const std::vector<std::vector<unsigned>> &Layout,
                    bool Closed, bool RequireAllNodes) const;
  static bool layoutSubsumed(const std::vector<std::vector<unsigned>> &Layout,
                             const std::vector<Violation> &V);
  void precomputeGeneralEdges();
  /// Folds the run's stage timers and layout-filter counts into \p R.
  void finishStats(AnalysisResult &R) const {
    R.SSGSeconds += SSGSec;
    R.EnumSeconds += EnumSec;
    R.SmtSeconds += SmtSec;
    R.ValidateSeconds += ValidateSec;
    R.LayoutsFiltered += LayoutsFilteredGen;
    R.SMTRetries += SmtRetriesGen;
    R.SmtQueries += SmtQueriesGen;
    R.RlimitSpent += RlimitSpentGen;
    R.SmtSolves += SmtSolvesGen;
    R.SolverCtxReuses += SolverCtxReusesGen;
    R.IncrementalSeconds += IncrSec;
    R.DfsBudgetExhausted += DfsExhaustions;
    R.DeadlineExpired = R.DeadlineExpired || DeadlineHit;
  }

  const AbstractHistory &A;
  const AnalyzerOptions &O;
  std::vector<bool> Mask; // original events included in this run
  CommutativityOracle *Oracle; // shared memoization, may be null
  const Deadline *DL;          // the run's analysis deadline (never null)
  // General-SSG pairwise edges over original transactions (self-pairs
  // describe two instances of the same transaction).
  std::vector<std::vector<bool>> GenAny, GenAnti;
  // Per-stage time accumulators, folded into the AnalysisResult by
  // execute(); see AnalysisResult for their meaning. LayoutsFilteredGen
  // counts viability-filtered layouts of the generalization check (whose
  // result object is const at filter time).
  double SSGSec = 0, EnumSec = 0, SmtSec = 0, ValidateSec = 0;
  unsigned LayoutsFilteredGen = 0;
  // Governance accumulators outside the result object: the generalization
  // check sees a const result, and the viability filter runs under both
  // const and non-const result contexts. Folded in by finishStats.
  unsigned SmtRetriesGen = 0;
  unsigned SmtQueriesGen = 0;
  uint64_t RlimitSpentGen = 0;
  unsigned SmtSolvesGen = 0;
  uint64_t SolverCtxReusesGen = 0;
  double IncrSec = 0; ///< digest/key computation + record lookups
  mutable unsigned DfsExhaustions = 0;
  bool DeadlineHit = false;
  /// The incremental record store when it participates in this run (see
  /// the constructor), else null.
  IncrementalStore *Incr = nullptr;
  /// The run-level context digest scoping every record key.
  std::string IncrCtx;
  std::vector<SSGViolation> Components; // Stage-1 suspicious components

  /// The Z3 environment reused by every main-thread SMT query of this run
  /// (sequential bounded checks and the generalization chunks). Contexts
  /// cost ~15ms to create+destroy — more than most solves — so queries
  /// reset and reuse one env instead. Lazily built: runs refuted by the
  /// fast stage never pay for a context.
  Z3Env &seqEnv() {
    if (O.ReuseEnv)
      return *O.ReuseEnv;
    if (!SeqEnv)
      SeqEnv = std::make_unique<Z3Env>();
    return *SeqEnv;
  }
  std::unique_ptr<Z3Env> SeqEnv;
};

/// Per-thread Z3 environment for parallel workers, lazily built on first
/// use and dropped when the pool thread exits (pools live for one bounded
/// round). Z3 contexts must not be shared between threads.
thread_local std::unique_ptr<Z3Env> WorkerEnv;

bool Run::layoutSubsumed(
    const std::vector<std::vector<unsigned>> &Layout,
    const std::vector<Violation> &V) {
  std::vector<unsigned> Set;
  for (const std::vector<unsigned> &Session : Layout)
    Set.insert(Set.end(), Session.begin(), Session.end());
  std::sort(Set.begin(), Set.end());
  Set.erase(std::unique(Set.begin(), Set.end()), Set.end());
  for (const Violation &Viol : V)
    if (std::includes(Set.begin(), Set.end(), Viol.OrigTxns.begin(),
                      Viol.OrigTxns.end()))
      return true;
  return false;
}

void Run::precomputeGeneralEdges() {
  StageTimer Timer(SSGSec);
  SSG G(A, O.Features);
  G.setOracle(Oracle);
  G.setEventMask(Mask);
  G.analyze();
  unsigned N = A.numTxns();
  GenAny.assign(N, std::vector<bool>(N, false));
  GenAnti = GenAny;
  for (const Digraph::Edge &E : G.graph().edges()) {
    if (E.Label == DepSO)
      continue; // session order is layout-dependent; added per layout
    GenAny[E.From][E.To] = true;
    if (E.Label == DepAntiDep)
      GenAnti[E.From][E.To] = true;
  }
}

bool Run::layoutViable(const std::vector<std::vector<unsigned>> &Layout,
                       bool Closed, bool RequireAllNodes) const {
  // Mini-graph nodes: the layout's transaction instances.
  struct Node {
    unsigned Orig;
    unsigned Session;
  };
  std::vector<Node> Nodes;
  for (unsigned S = 0; S != Layout.size(); ++S)
    for (unsigned T : Layout[S])
      Nodes.push_back({T, S});
  unsigned N = static_cast<unsigned>(Nodes.size());
  unsigned FullMask = (1u << Layout.size()) - 1;

  auto HasEdge = [&](unsigned I, unsigned J, bool &Anti) {
    Anti = GenAnti[Nodes[I].Orig][Nodes[J].Orig];
    if (GenAny[Nodes[I].Orig][Nodes[J].Orig])
      return true;
    // Intra-session order: instances were listed in chain order.
    return Nodes[I].Session == Nodes[J].Session && I < J;
  };

  // DFS over simple paths: cover every session, use >= 1 anti edge, and
  // (for cycles) return to the start. The search is budgeted: on dense
  // mini-graphs we give up and conservatively keep the layout (the precise
  // machinery decides). Exhaustions are counted — a run that silently falls
  // back to "viable" everywhere has lost its pre-filter and the operator
  // should know (surfaced in AnalysisResult::DfsBudgetExhausted) — and the
  // budget is configurable (AnalyzerOptions::LayoutDfsBudget).
  std::vector<bool> OnPath(N, false);
  unsigned Covered = 0;
  unsigned Budget = O.LayoutDfsBudget;
  bool Exhausted = false;
  std::function<bool(unsigned, unsigned, unsigned, bool)> Dfs =
      [&](unsigned Start, unsigned Node2, unsigned SessMask,
          bool Anti) -> bool {
    if (Budget == 0) {
      Exhausted = true;
      return true; // budget exhausted: treat as viable
    }
    --Budget;
    // Deadline poll every 4096 steps: a dense mini-graph DFS can run for
    // a while, and the enumeration filter is on the round's critical path.
    if ((Budget & 0xFFFu) == 0 && DL->expired()) {
      Exhausted = true;
      return true; // cancelled: conservatively viable (round is deferred)
    }
    if (SessMask == FullMask && Anti &&
        (!RequireAllNodes || Covered == N)) {
      if (!Closed)
        return true;
      bool EdgeAnti = false;
      if (HasEdge(Node2, Start, EdgeAnti))
        return true;
    }
    for (unsigned Next = 0; Next != N; ++Next) {
      if (OnPath[Next])
        continue;
      bool EdgeAnti = false;
      if (!HasEdge(Node2, Next, EdgeAnti))
        continue;
      OnPath[Next] = true;
      ++Covered;
      if (Dfs(Start, Next, SessMask | (1u << Nodes[Next].Session),
              Anti || EdgeAnti)) {
        OnPath[Next] = false;
        --Covered;
        return true;
      }
      OnPath[Next] = false;
      --Covered;
    }
    return false;
  };
  for (unsigned Start = 0; Start != N; ++Start) {
    std::fill(OnPath.begin(), OnPath.end(), false);
    OnPath[Start] = true;
    Covered = 1;
    if (Dfs(Start, Start, 1u << Nodes[Start].Session, false)) {
      DfsExhaustions += Exhausted;
      return true;
    }
  }
  DfsExhaustions += Exhausted;
  return false;
}

bool Run::subsumed(const Unfolding &U,
                   const std::vector<Violation> &V) const {
  std::vector<unsigned> Set = U.origTxnSet();
  for (const Violation &Viol : V)
    if (std::includes(Set.begin(), Set.end(), Viol.OrigTxns.begin(),
                      Viol.OrigTxns.end()))
      return true;
  return false;
}

std::vector<bool> Run::maskForUnfolding(const Unfolding &U) const {
  std::vector<bool> M(U.H.numEvents(), true);
  for (unsigned E = 0; E != U.H.numEvents(); ++E)
    M[E] = Mask[U.OrigEvent[E]];
  return M;
}

bool Run::recordViolation(AnalysisResult &R, std::vector<unsigned> OrigTxns,
                          std::optional<CounterExample> CE,
                          bool Inconclusive) {
  std::sort(OrigTxns.begin(), OrigTxns.end());
  OrigTxns.erase(std::unique(OrigTxns.begin(), OrigTxns.end()),
                 OrigTxns.end());
  for (const Violation &V : R.Violations)
    if (V.OrigTxns == OrigTxns)
      return false;
  Violation V;
  V.OrigTxns = std::move(OrigTxns);
  for (unsigned T : V.OrigTxns)
    V.TxnNames.push_back(A.txn(T).Name);
  V.CE = std::move(CE);
  if (V.CE)
    V.CEText = V.CE->Text;
  V.Inconclusive = Inconclusive;
  R.Violations.push_back(std::move(V));
  return true;
}

bool Run::validateCE(const CounterExample &CE) const {
  // End-to-end check of the extracted witness: it must concretize the
  // abstract history and its schedule's DSG must be cyclic (the criterion's
  // definition of a violation). Validation can fail legitimately when the
  // S1 return-value fix-up changed a guard-feeding query, leaving a
  // pre-schedule witness (see DESIGN.md).
  if (!findConcretization(CE.H, A).has_value())
    return false;
  EventRelations Rel(CE.H);
  DependenceTriple T = computeDependencies(CE.H, CE.S, Rel);
  return buildDSG(CE.H, T).hasCycle();
}

unsigned Run::effectiveThreads(size_t Work) const {
  unsigned T = O.NumThreads ? O.NumThreads
                            : std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(
      std::min<size_t>(T, std::max<size_t>(Work, 1)));
}

bool Run::heldBack(const Unfolding &U, size_t Index, CommitState &CS) const {
  std::vector<unsigned> Set = U.origTxnSet();
  std::unique_lock<std::mutex> Lock(CS.Mu);
  for (size_t I = CS.Consumed; I < Index; I = std::max(I + 1, CS.Consumed)) {
    const std::vector<unsigned> &Cycle = CS.Cycles[I];
    if (Cycle.empty() ||
        !std::includes(Set.begin(), Set.end(), Cycle.begin(), Cycle.end()))
      continue;
    // Unfolding I's cycle will subsume this one once committed: wait for
    // that instead of solving a query whose outcome would be discarded.
    // The commit loop consumes every outcome in order, and all tasks
    // before this one have started (FIFO pool), so the wait ends.
    CS.Advanced.wait(Lock, [&] { return CS.Consumed > I; });
    if (subsumed(U, *CS.Committed))
      return true;
  }
  return subsumed(U, *CS.Committed);
}

Run::UnfoldingOutcome Run::solveOne(const Unfolding &U, Z3Env *Env,
                                    CommitState *CS, size_t Index) {
  UnfoldingOutcome Out;
  if (DL->expired()) {
    // Cooperative cancellation: report the unit as cancelled without doing
    // the work; the commit loop counts it as deferred.
    Out.Cancelled = true;
    return Out;
  }
  // Early pruning against the violations committed so far, here and again
  // before the solve. Safe for determinism: the committed set only grows,
  // so anything subsumed now is still subsumed at commit time, where the
  // authoritative (in-order) re-check happens and the result of this task
  // is not consulted.
  if (CS && heldBack(U, Index, *CS)) {
    Out.PrunedEarly = true;
    return Out;
  }
  // Publishes a found or replayed cycle to the workers of later unfoldings.
  auto Publish = [&] {
    if (!CS || Out.Res.Status != UnfoldingResult::CycleFound)
      return;
    std::vector<unsigned> Cycle = Out.Res.CE->OrigTxns;
    std::sort(Cycle.begin(), Cycle.end());
    Cycle.erase(std::unique(Cycle.begin(), Cycle.end()), Cycle.end());
    std::lock_guard<std::mutex> Lock(CS->Mu);
    CS->Cycles[Index] = std::move(Cycle);
  };
  SSG G(U.H, O.Features, U.SessionTags);
  std::vector<CandidateCycle> Cands;
  {
    StageTimer Timer(Out.SSGSec);
    G.setOracle(Oracle);
    G.setEventMask(maskForUnfolding(U));
    G.analyze();
    Cands = G.candidateCycles(O.MaxCandidateCycles, Out.CandTruncated);
  }
  if (Cands.empty())
    return Out;
  Out.Flagged = true;
  // Incremental record lookup: a persisted outcome replays the solve of
  // this unit, counters included, so a warm run's non-timing statistics
  // match a cold run's. The key covers the unfolding's name-free content
  // and the exact candidate set (see analysis/Incremental.h for what is
  // stored).
  std::string RecKey;
  const IncrRecord *Rec = nullptr;
  if (Incr) {
    StageTimer Timer(Out.IncrSec);
    RecKey = unfoldingRecordKey(IncrCtx, U, Cands, "bounded");
    Rec = Incr->lookup(RecKey);
  }
  if (Rec && replay(*Rec, U, Cands, Out)) {
    Publish();
    return Out;
  }
  if (CS && heldBack(U, Index, *CS)) {
    Out.PrunedEarly = true;
    return Out;
  }
  {
    StageTimer Timer(Out.SmtSec);
    SolverPolicy P{O.Budget, DL};
    Out.Res = solveUnfolding(U, G, Cands, O.Features, P, Oracle, Env,
                             &Out.Tel);
  }
  bool Cycle = Out.Res.Status == UnfoldingResult::CycleFound;
  if (Cycle) {
    Publish();
    StageTimer Timer(Out.ValidateSec);
    Out.CEValid = validateCE(*Out.Res.CE);
  }
  // Unknowns and errors are never frozen, and a cycle only with its
  // canonical witness (UnfoldingResult::Witness).
  if (Incr && !Out.Tel.Error &&
      (Out.Res.Status == UnfoldingResult::NoCycle || Out.Res.Witness))
    Incr->record(RecKey, {.Attempts = Out.Tel.Attempts,
                          .CtxReuses = Out.Tel.CtxReuses,
                          .RlimitBudget = Out.Tel.RlimitBudget,
                          .Cycle = Cycle,
                          .Witness = std::move(Out.Res.Witness)});
  return Out;
}

bool Run::replay(const IncrRecord &Rec, const Unfolding &U,
                 const std::vector<CandidateCycle> &Cands,
                 UnfoldingOutcome &Out) const {
  if (Rec.Cycle && !(Rec.Witness && Rec.Witness->fits(U, Cands.size())))
    return false;
  Out.Reused = true;
  Out.Tel.Attempts = Rec.Attempts;
  Out.Tel.CtxReuses = Rec.CtxReuses;
  Out.Tel.RlimitBudget = Rec.RlimitBudget;
  if (!Rec.Cycle) {
    Out.Res.Status = UnfoldingResult::NoCycle;
    return true;
  }
  // The counter-example is rebuilt from the stored model with the current
  // program's names and validated afresh, exactly as a solved one is.
  StageTimer Timer(Out.ValidateSec);
  Out.Res.Status = UnfoldingResult::CycleFound;
  Out.Res.CE = buildCounterExample(U, Cands, *Rec.Witness);
  Out.CEValid = validateCE(*Out.Res.CE);
  return true;
}

void Run::commitOutcome(const Unfolding &U, UnfoldingOutcome &&Out,
                        AnalysisResult &R, unsigned K, long Index) {
  // Authoritative subsumption check, in enumeration order — reproduces the
  // sequential loop's decision exactly.
  if (subsumed(U, R.Violations)) {
    ++R.UnfoldingsSubsumed;
    return;
  }
  assert(!Out.PrunedEarly && "commit set is a superset of the pruning set");
  ++R.UnfoldingsChecked;
  R.Truncated = R.Truncated || Out.CandTruncated;
  if (!Out.Flagged)
    return;
  ++R.SSGFlagged;
  ++R.SmtQueries;
  // Governance accounting and the trace record happen at commit time, in
  // enumeration order, so both are deterministic across thread counts.
  // (RlimitSpent is telemetry — Z3's spent counter can jitter by a few
  // thousand units with context history — but attempts/verdicts are exact.)
  if (Out.Tel.Attempts > 1)
    R.SMTRetries += Out.Tel.Attempts - 1;
  R.RlimitSpent += Out.Tel.RlimitSpent;
  // Reused records replay the cold run's attempt/retry counters above, but
  // only queries that actually reached Z3 this run count as solves.
  if (!Out.Reused && Out.Tel.Attempts > 0)
    ++R.SmtSolves;
  R.SolverCtxReuses += Out.Tel.CtxReuses;
  const char *Outcome = "unknown";
  switch (Out.Res.Status) {
  case UnfoldingResult::NoCycle:
    ++R.SMTRefuted;
    Outcome = "no-cycle";
    break;
  case UnfoldingResult::Unknown:
    ++R.SMTUnknown;
    Outcome = Out.Tel.Error ? "error" : "unknown";
    // Sound default: report the unfolding's transactions as a potential
    // violation.
    recordViolation(R, U.origTxnSet(), std::nullopt,
                    /*Inconclusive=*/true);
    break;
  case UnfoldingResult::CycleFound:
    Outcome = "cycle";
    break;
  }
  if (O.Trace) {
    QueryRecord Rec;
    Rec.Stage = "bounded";
    Rec.K = K;
    Rec.Unfolding = Index;
    // Reused queries issued no solve attempt; the replayed count matches
    // the cold run's trace line.
    Rec.Attempts =
        Out.Reused ? Out.Tel.Attempts : std::max(1u, Out.Tel.Attempts);
    Rec.RlimitBudget = Out.Tel.RlimitBudget;
    Rec.RlimitSpent = Out.Tel.RlimitSpent;
    Rec.Outcome = Outcome;
    Rec.Reused = Out.Reused;
    Rec.WallMs = (Out.SmtSec + Out.IncrSec) * 1000.0;
    O.Trace->append(Rec);
  }
  if (Out.Res.Status == UnfoldingResult::CycleFound) {
    // Copy the key first: the CE is moved into the violation.
    std::vector<unsigned> Key = Out.Res.CE->OrigTxns;
    if (recordViolation(R, std::move(Key), std::move(Out.Res.CE),
                        /*Inconclusive=*/false))
      R.Violations.back().Validated = Out.CEValid;
  }
}

bool Run::checkBounded(unsigned K, AnalysisResult &R,
                       const std::vector<unsigned> &Universe) {
  bool Truncated = false;
  std::function<bool(const std::vector<std::vector<unsigned>> &)> Filter =
      [&](const std::vector<std::vector<unsigned>> &Layout) {
        if (layoutSubsumed(Layout, R.Violations)) {
          ++R.UnfoldingsSubsumed;
          return false;
        }
        if (layoutViable(Layout, /*Closed=*/true,
                         /*RequireAllNodes=*/false))
          return true;
        ++R.LayoutsFiltered;
        return false;
      };
  std::vector<Unfolding> Unfoldings;
  {
    StageTimer Timer(EnumSec);
    Unfoldings = enumerateUnfoldings(A, K, O.MaxUnfoldings, Truncated,
                                     &Universe, &Filter, DL);
  }
  R.Truncated = R.Truncated || Truncated;
  if (DL->expired()) {
    // Deadline hit during enumeration: everything in this round is
    // deferred (Truncated is already set if enumeration stopped early,
    // blocking generalization downstream).
    R.UnfoldingsDeferred += static_cast<unsigned>(Unfoldings.size());
    R.DeadlineExpired = true;
    return false;
  }

  unsigned Threads = effectiveThreads(Unfoldings.size());
  if (Threads <= 1) {
    // Sequential: solve and commit one unfolding at a time (the early
    // subsumption check inside solveOne is skipped; commitOutcome decides).
    for (size_t I = 0; I != Unfoldings.size(); ++I) {
      const Unfolding &U = Unfoldings[I];
      if (DL->expired()) {
        R.UnfoldingsDeferred += static_cast<unsigned>(Unfoldings.size() - I);
        R.DeadlineExpired = true;
        return false;
      }
      if (subsumed(U, R.Violations)) {
        ++R.UnfoldingsSubsumed;
        continue;
      }
      UnfoldingOutcome Out = solveOne(U, &seqEnv());
      addStageTimes(Out);
      if (Out.Cancelled) {
        R.UnfoldingsDeferred += static_cast<unsigned>(Unfoldings.size() - I);
        R.DeadlineExpired = true;
        return false;
      }
      commitOutcome(U, std::move(Out), R, K, static_cast<long>(I));
    }
    return true;
  }

  // Parallel: workers solve unfoldings speculatively; the main thread
  // commits results strictly in enumeration order, so violation sets and
  // every statistic are identical to the sequential run. Workers prune
  // against the committed violations, and hold a solve back while an
  // earlier unfolding's cycle that would subsume it awaits its commit, to
  // bound the speculative waste. The pool is bound to the deadline: once
  // it expires, workers short-circuit at task entry and the commit loop
  // defers every unit from the first cancelled/expired index on — outcomes
  // that raced past the expiry are discarded rather than committed, so a
  // deadline run commits a prefix of the enumeration order (where the cut
  // lands is timing-dependent; without a deadline, runs stay
  // bit-identical).
  CommitState CS;
  CS.Committed = &R.Violations;
  CS.Cycles.resize(Unfoldings.size());
  ThreadPool Pool(Threads, DL);
  std::vector<std::future<UnfoldingOutcome>> Futures;
  Futures.reserve(Unfoldings.size());
  for (size_t I = 0; I != Unfoldings.size(); ++I)
    Futures.push_back(Pool.submit([this, &Unfoldings, I, &CS,
                                   &Pool]() -> UnfoldingOutcome {
      if (Pool.cancelled()) {
        UnfoldingOutcome Out;
        Out.Cancelled = true;
        return Out;
      }
      if (!WorkerEnv)
        WorkerEnv = std::make_unique<Z3Env>();
      return solveOne(Unfoldings[I], WorkerEnv.get(), &CS, I);
    }));
  bool Winding = false;
  unsigned Deferred = 0;
  for (size_t I = 0; I != Unfoldings.size(); ++I) {
    UnfoldingOutcome Out = Futures[I].get();
    addStageTimes(Out);
    std::lock_guard<std::mutex> Lock(CS.Mu);
    if (Winding || Out.Cancelled || DL->expired()) {
      Winding = true;
      ++Deferred; // drain the remaining futures, discarding outcomes
    } else {
      commitOutcome(Unfoldings[I], std::move(Out), R, K,
                    static_cast<long>(I));
    }
    ++CS.Consumed;
    CS.Advanced.notify_all();
  }
  if (Winding) {
    R.UnfoldingsDeferred += Deferred;
    R.DeadlineExpired = true;
    return false;
  }
  return true;
}

/// The session layout of an unfolding: per session, the original
/// transaction ids in chain order.
static std::vector<std::vector<unsigned>>
sessionSpecs(const Unfolding &U) {
  std::vector<std::vector<unsigned>> Specs(U.NumSessions);
  // Transactions were instantiated session by session in chain order, so
  // increasing transaction id preserves both.
  for (unsigned T = 0; T != U.H.numTxns(); ++T)
    Specs[U.SessionTags[T]].push_back(U.OrigTxn[T]);
  return Specs;
}

/// A session merge of an unfolding: the transaction mapping into the merged
/// unfolding plus the merged instantiated SSG.
struct MergeCtx {
  std::vector<unsigned> MapTxn;
  Digraph Graph;
};

/// Builds all legal one-session merges of \p U (session J appended to
/// session I when the abstract session order permits) with their SSGs.
std::vector<MergeCtx>
Run::buildMerges(const Unfolding &U,
                 const std::vector<std::vector<bool>> &SoClosure) {
  std::vector<MergeCtx> Result;
  std::vector<std::vector<unsigned>> Specs = sessionSpecs(U);
  std::vector<std::vector<unsigned>> OldIds(U.NumSessions);
  for (unsigned T = 0; T != U.H.numTxns(); ++T)
    OldIds[U.SessionTags[T]].push_back(T);
  for (unsigned I = 0; I != U.NumSessions; ++I)
    for (unsigned J = 0; J != U.NumSessions; ++J) {
      if (I == J || Specs[I].empty() || Specs[J].empty())
        continue;
      if (!SoClosure[Specs[I].back()][Specs[J].front()])
        continue;
      std::vector<std::vector<unsigned>> Merged;
      std::vector<unsigned> MapTxn(U.H.numTxns(), 0);
      unsigned Next = 0;
      for (unsigned S = 0; S != U.NumSessions; ++S) {
        if (S == J)
          continue;
        std::vector<unsigned> Spec = Specs[S];
        for (unsigned T : OldIds[S])
          MapTxn[T] = Next++;
        if (S == I) {
          Spec.insert(Spec.end(), Specs[J].begin(), Specs[J].end());
          for (unsigned T : OldIds[J])
            MapTxn[T] = Next++;
        }
        Merged.push_back(std::move(Spec));
      }
      Unfolding MU = buildUnfolding(A, Merged);
      StageTimer Timer(SSGSec);
      SSG G(MU.H, O.Features, MU.SessionTags);
      G.setOracle(Oracle);
      G.setEventMask(maskForUnfolding(MU));
      G.analyze();
      Result.push_back({std::move(MapTxn), G.graph()});
    }
  return Result;
}

/// §7.2 short-cut: can the segment pattern be reduced by one session? We
/// merge the transactions of one spanned session onto the end of another
/// (when the abstract session order permits) and check that every segment
/// step still has an SSG edge with one of its labels in the merged
/// unfolding. If so, any cycle containing the segment transforms into a
/// cycle over fewer sessions with the same syntactic transactions, which
/// the bounded check (or a further reduction) covers.
static bool shortcutReducibleWith(const std::vector<MergeCtx> &Merges,
                                  const CandidateCycle &Seg) {
  for (const MergeCtx &M : Merges) {
    bool AllSteps = true;
    for (unsigned Step = 0; Step + 1 < Seg.Txns.size() && AllSteps;
         ++Step) {
      unsigned From = M.MapTxn[Seg.Txns[Step]];
      unsigned To = M.MapTxn[Seg.Txns[Step + 1]];
      bool Any = false;
      for (unsigned EI : M.Graph.edgesBetween(From, To))
        for (int L : Seg.StepLabels[Step])
          Any = Any || M.Graph.edge(EI).Label == L;
      AllSteps = Any;
    }
    if (AllSteps)
      return true;
  }
  return false;
}

bool Run::generalizes(unsigned K, const AnalysisResult &R,
                      const std::vector<unsigned> &Universe) {
  // Any violation we could not conclusively analyze blocks generalization.
  for (const Violation &V : R.Violations)
    if (V.Inconclusive)
      return false;
  // A generalization claim covers *every* number of sessions; under an
  // expired deadline we cannot afford the evidence, so refuse (sound).
  if (DL->expired()) {
    DeadlineHit = true;
    return false;
  }
  bool Truncated = false;
  std::function<bool(const std::vector<std::vector<unsigned>> &)> Filter =
      [&](const std::vector<std::vector<unsigned>> &Layout) {
        // Segments are only examined on the layout holding exactly their
        // transactions (any segment of a larger layout is covered by its
        // exact one), so subsumption applies at layout granularity and the
        // spanning path must cover every transaction.
        if (layoutSubsumed(Layout, R.Violations))
          return false;
        if (layoutViable(Layout, /*Closed=*/false,
                         /*RequireAllNodes=*/true))
          return true;
        ++LayoutsFilteredGen;
        return false;
      };
  std::vector<Unfolding> Unfoldings;
  {
    StageTimer Timer(EnumSec);
    Unfoldings = enumerateUnfoldings(A, K, O.MaxUnfoldings, Truncated,
                                     &Universe, &Filter, DL);
  }
  if (DL->expired()) {
    DeadlineHit = true;
    return false;
  }
  if (Truncated) {
    if (std::getenv("C4_DEBUG_GEN"))
      std::fputs("gen blocked: unfolding enumeration truncated\n", stderr);
    return false;
  }

  // Transitive closure of the original may-follow relation (for merges).
  unsigned N = A.numTxns();
  std::vector<std::vector<bool>> SoClosure(N, std::vector<bool>(N, false));
  for (unsigned S = 0; S != N; ++S)
    for (unsigned T = 0; T != N; ++T)
      SoClosure[S][T] = A.maySo(S, T);
  for (unsigned M = 0; M != N; ++M)
    for (unsigned I = 0; I != N; ++I) {
      if (!SoClosure[I][M])
        continue;
      for (unsigned J = 0; J != N; ++J)
        if (SoClosure[M][J])
          SoClosure[I][J] = true;
    }

  long GenIndex = -1;
  for (const Unfolding &U : Unfoldings) {
    ++GenIndex;
    if (DL->expired()) {
      DeadlineHit = true;
      return false;
    }
    SSG G(U.H, O.Features, U.SessionTags);
    G.setOracle(Oracle);
    G.setEventMask(maskForUnfolding(U));
    {
      StageTimer Timer(SSGSec);
      G.analyze();
    }
    // (a) Segments subsumed by known violations are dropped during
    // enumeration; (b) the cheap SSG-level short-cut (session merging)
    // handles most of the rest.
    std::vector<MergeCtx> Merges;
    bool MergesBuilt = false;
    std::function<bool(const CandidateCycle &)> Unsubsumed =
        [&](const CandidateCycle &Seg) {
          std::vector<unsigned> SegSet;
          for (unsigned T : Seg.Txns)
            SegSet.push_back(U.OrigTxn[T]);
          std::sort(SegSet.begin(), SegSet.end());
          SegSet.erase(std::unique(SegSet.begin(), SegSet.end()),
                       SegSet.end());
          for (const Violation &V : R.Violations)
            if (std::includes(SegSet.begin(), SegSet.end(),
                              V.OrigTxns.begin(), V.OrigTxns.end()))
              return false;
          return true;
        };
    bool SegTruncated = false;
    std::vector<CandidateCycle> Segments;
    {
      StageTimer Timer(SSGSec);
      Segments = G.spanningSegments(U.NumSessions, /*MaxSegments=*/4096,
                                    SegTruncated, U.OrigTxn, &Unsubsumed,
                                    /*RequireAllTxns=*/true);
    }
    if (SegTruncated) {
      if (std::getenv("C4_DEBUG_GEN"))
        std::fputs("gen blocked: segment enumeration truncated\n", stderr);
      return false;
    }
    if (Segments.empty())
      continue;

    std::vector<CandidateCycle> Remaining;
    for (CandidateCycle &Seg : Segments) {
      if (!MergesBuilt) {
        Merges = buildMerges(U, SoClosure);
        MergesBuilt = true;
      }
      if (!shortcutReducibleWith(Merges, Seg))
        Remaining.push_back(std::move(Seg));
    }
    if (Remaining.empty())
      continue;

    // (c) SMT: the remaining segments must be infeasible. Query in chunks
    // to keep individual encodings small.
    UnfoldingResult Res;
    Res.Status = UnfoldingResult::NoCycle;
    {
      SolverPolicy P{O.Budget, DL};
      // One shared solver context per unfolding: the session layout's base
      // encoding (orders, control flow, facts) is built once and chunks
      // 2..n add only their cycle selectors under push/pop, instead of
      // re-encoding everything per chunk. Lazily built — unfoldings whose
      // chunks are all replayed never pay for an encoding.
      std::optional<LayoutSolver> LS;
      for (size_t Begin = 0;
           Begin < Remaining.size() &&
           Res.Status == UnfoldingResult::NoCycle;
           Begin += 64) {
        if (DL->expired()) {
          DeadlineHit = true;
          return false;
        }
        std::vector<CandidateCycle> Chunk(
            Remaining.begin() + Begin,
            Remaining.begin() +
                std::min(Remaining.size(), Begin + 64));
        SolveTelemetry Tel;
        double ChunkSec = 0;
        bool Reused = false;
        ++SmtQueriesGen;
        // Incremental record lookup first (see solveOne): a persisted
        // outcome replays the chunk's solve counters. A cycle record
        // replays only the "blocked" status: a generalization-stage cycle
        // is never reported.
        std::string RecKey;
        if (Incr) {
          double IncrChunkSec = 0;
          {
            StageTimer IncrTimer(IncrChunkSec);
            RecKey = unfoldingRecordKey(IncrCtx, U, Chunk, "generalize");
            if (const IncrRecord *Rec = Incr->lookup(RecKey)) {
              Reused = true;
              Res.Status = Rec->Cycle ? UnfoldingResult::CycleFound
                                      : UnfoldingResult::NoCycle;
              Tel.Attempts = Rec->Attempts;
              Tel.CtxReuses = Rec->CtxReuses;
              Tel.RlimitBudget = Rec->RlimitBudget;
              if (Tel.Attempts > 1)
                SmtRetriesGen += Tel.Attempts - 1;
              SolverCtxReusesGen += Tel.CtxReuses;
            }
          }
          IncrSec += IncrChunkSec;
          ChunkSec += IncrChunkSec;
        }
        if (!Reused) {
          double SolveSec = 0;
          {
            StageTimer SolveTimer(SolveSec);
            if (!LS)
              LS.emplace(U, G, O.Features, P, Oracle, &seqEnv());
            Res = LS->solve(Chunk, &Tel);
          }
          SmtSec += SolveSec;
          ChunkSec += SolveSec;
          if (Tel.Attempts > 1)
            SmtRetriesGen += Tel.Attempts - 1;
          RlimitSpentGen += Tel.RlimitSpent;
          SolverCtxReusesGen += Tel.CtxReuses;
          if (Tel.Attempts > 0)
            ++SmtSolvesGen;
          bool Cycle = Res.Status == UnfoldingResult::CycleFound;
          if (Incr && !Tel.Error && Res.Status != UnfoldingResult::Unknown)
            Incr->record(RecKey, {.Attempts = Tel.Attempts,
                                  .CtxReuses = Tel.CtxReuses,
                                  .RlimitBudget = Tel.RlimitBudget,
                                  .Cycle = Cycle});
        }
        if (O.Trace) {
          QueryRecord Rec;
          Rec.Stage = "generalize";
          Rec.K = K;
          Rec.Unfolding = GenIndex;
          Rec.Attempts = Reused ? Tel.Attempts : std::max(1u, Tel.Attempts);
          Rec.RlimitBudget = Tel.RlimitBudget;
          Rec.RlimitSpent = Tel.RlimitSpent;
          Rec.Outcome = Res.Status == UnfoldingResult::NoCycle ? "no-cycle"
                        : Res.Status == UnfoldingResult::CycleFound
                            ? "cycle"
                            : (Tel.Error ? "error" : "unknown");
          Rec.Reused = Reused;
          Rec.WallMs = ChunkSec * 1000.0;
          O.Trace->append(Rec);
        }
      }
    }
    if (Res.Status != UnfoldingResult::NoCycle) {
      if (std::getenv("C4_DEBUG_GEN")) {
        std::string Msg = "gen blocked in:";
        for (unsigned T = 0; T != U.H.numTxns(); ++T)
          Msg += strf(" %s/s%u", U.H.txn(T).Name.c_str(), U.SessionTags[T]);
        Msg += strf(" (%zu segs, status %d); first:",
                    Remaining.size(), static_cast<int>(Res.Status));
        for (unsigned T : Remaining.front().Txns)
          Msg += strf(" %u", T);
        for (const auto &L : Remaining.front().StepLabels) {
          Msg += " [";
          for (int X : L)
            Msg += strf("%d,", X);
          Msg += "]";
        }
        Msg += "\n";
        std::fputs(Msg.c_str(), stderr);
      }
      return false;
    }
  }
  return true;
}

void Run::execute(AnalysisResult &R) {
  precomputeGeneralEdges();
  // Stage 1: the fast general SSG analysis.
  bool FastProved = false;
  {
    StageTimer Timer(SSGSec);
    SSG General(A, O.Features);
    General.setOracle(Oracle);
    General.setEventMask(Mask);
    General.analyze();
    R.SSGEdges +=
        static_cast<unsigned>(General.graph().edges().size());
    if (General.provesSerializable()) {
      FastProved = true;
    } else {
      // Stage 2 below consumes the suspicious components.
      Components = General.violations();
    }
  }
  if (FastProved) {
    R.FastProvedSerializable = true;
    R.Generalized = true;
    finishStats(R);
    return;
  }

  // Stage 2: per suspicious component (a minimal DSG cycle projects onto a
  // cycle of the SSG, hence into one strongly connected component), run
  // bounded checks with increasing k, then generalize (§7.2).
  bool AllGeneralized = true;
  for (const SSGViolation &Component : Components) {
    unsigned K = 2;
    bool Generalized = false;
    while (true) {
      if (DL->expired()) {
        // Deadline before this round started: nothing of it was checked,
        // so KChecked keeps its last fully-completed value.
        DeadlineHit = true;
        break;
      }
      bool Completed = checkBounded(K, R, Component.Txns);
      if (!Completed) {
        // Partial round: results committed so far are sound findings, but
        // the bound K was not exhaustively checked — it must not count, and
        // neither generalization nor completeness can be claimed.
        DeadlineHit = true;
        break;
      }
      R.KChecked = std::max(R.KChecked, K);
      ++K;
      if (generalizes(K, R, Component.Txns)) {
        Generalized = true;
        break;
      }
      if (K > O.MaxK)
        break;
    }
    AllGeneralized = AllGeneralized && Generalized;
  }
  R.Generalized = AllGeneralized;
  finishStats(R);
}

} // namespace

AnalysisResult c4::analyze(const AbstractHistory &A,
                           const AnalyzerOptions &O) {
  auto Start = std::chrono::steady_clock::now();
  AnalysisResult R;

  // The global deadline, shared by every Run (atomic sets share one budget:
  // the flag bounds the whole analysis, not each subset). A caller-owned
  // deadline takes precedence so the serving tier can cancel the run.
  Deadline OwnDL(O.DeadlineMs);
  const Deadline &DL = O.ExternalDeadline ? *O.ExternalDeadline : OwnDL;

  // One memoization oracle per analyze() call: the rewrite-spec conditions
  // and satisfiability verdicts are shared by every SSG instantiation and
  // SMT encoding of the run (across atomic sets, unfoldings and threads).
  CommutativityOracle Oracle;
  CommutativityOracle *OraclePtr = O.UseOracle ? &Oracle : nullptr;

  // Base mask: the display-code filter.
  std::vector<bool> Base(A.numEvents(), true);
  if (O.DisplayFilter)
    for (unsigned E = 0; E != A.numEvents(); ++E)
      if (A.event(E).Display)
        Base[E] = false;

  // Transaction fingerprinting (once per analyze() call, not per atomic-set
  // sub-run): note every transaction's content digest in the incremental
  // store and count how many were already present in the persisted base —
  // the `txn_fingerprint_hits` signal of how much of the program survived
  // the edit unchanged.
  if (O.UseIncremental && O.Incremental) {
    StageTimer Timer(R.IncrementalSeconds);
    for (unsigned T = 0; T != A.numTxns(); ++T) {
      std::string D = txnContentDigest(A, T);
      R.TxnFingerprintHits += O.Incremental->baseHasTxn(D);
      O.Incremental->noteTxn(D);
    }
  }

  if (O.UseAtomicSets && !O.AtomicSets.empty()) {
    // Analyze each atomic set independently and merge.
    bool AllGeneralized = true, AllFast = true;
    for (const std::vector<unsigned> &Set : O.AtomicSets) {
      std::vector<bool> Mask = Base;
      for (unsigned E = 0; E != A.numEvents(); ++E) {
        if (A.event(E).isMarker())
          continue;
        bool In = std::find(Set.begin(), Set.end(),
                            A.event(E).Container) != Set.end();
        Mask[E] = Mask[E] && In;
      }
      AnalysisResult Sub;
      Run(A, O, std::move(Mask), OraclePtr, &DL).execute(Sub);
      for (Violation &V : Sub.Violations) {
        bool Dup = false;
        for (const Violation &Old : R.Violations)
          Dup = Dup || Old.OrigTxns == V.OrigTxns;
        if (!Dup)
          R.Violations.push_back(std::move(V));
      }
      AllGeneralized = AllGeneralized && Sub.Generalized;
      // The whole app is fast-proved only when *every* atomic set was: one
      // SSG-clean set must not mask another set's SMT-stage work.
      AllFast = AllFast && Sub.FastProvedSerializable;
      R.KChecked = std::max(R.KChecked, Sub.KChecked);
      R.UnfoldingsChecked += Sub.UnfoldingsChecked;
      R.UnfoldingsSubsumed += Sub.UnfoldingsSubsumed;
      R.LayoutsFiltered += Sub.LayoutsFiltered;
      R.SSGEdges += Sub.SSGEdges;
      R.SmtQueries += Sub.SmtQueries;
      R.SSGFlagged += Sub.SSGFlagged;
      R.SMTRefuted += Sub.SMTRefuted;
      R.SMTUnknown += Sub.SMTUnknown;
      R.SMTRetries += Sub.SMTRetries;
      R.SmtSolves += Sub.SmtSolves;
      R.SolverCtxReuses += Sub.SolverCtxReuses;
      R.RlimitSpent += Sub.RlimitSpent;
      R.UnfoldingsDeferred += Sub.UnfoldingsDeferred;
      R.DfsBudgetExhausted += Sub.DfsBudgetExhausted;
      R.DeadlineExpired = R.DeadlineExpired || Sub.DeadlineExpired;
      R.Truncated = R.Truncated || Sub.Truncated;
      R.SSGSeconds += Sub.SSGSeconds;
      R.EnumSeconds += Sub.EnumSeconds;
      R.SmtSeconds += Sub.SmtSeconds;
      R.ValidateSeconds += Sub.ValidateSeconds;
      R.IncrementalSeconds += Sub.IncrementalSeconds;
    }
    R.Generalized = AllGeneralized;
    R.FastProvedSerializable = AllFast && R.Violations.empty();
  } else {
    Run(A, O, std::move(Base), OraclePtr, &DL).execute(R);
  }

  OracleStats OS = OraclePtr ? OraclePtr->stats() : OracleStats{};
  R.CondCacheHits = OS.CondHits;
  R.CondCacheMisses = OS.CondMisses;
  R.SatCacheHits = OS.SatHits;
  R.SatCacheMisses = OS.SatMisses;
  R.BackendSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  return R;
}

std::string c4::reportStr(const AbstractHistory &A, const AnalysisResult &R) {
  std::string Out;
  if (R.serializable()) {
    Out += "result: serializable (for any number of sessions)\n";
  } else if (R.Violations.empty()) {
    if (R.DeadlineExpired)
      Out += strf("result: no violations found before the deadline "
                  "(checked up to k=%u; partial)\n",
                  R.KChecked);
    else
      Out += strf("result: no violations up to k=%u sessions "
                  "(generalization incomplete)\n",
                  R.KChecked);
  } else {
    // Triage: a solver-budget timeout must never read as a proven
    // violation, so the three classes are reported side by side.
    Out += strf("result: %zu violation(s): %u validated, %u unvalidated, "
                "%u inconclusive%s\n",
                R.Violations.size(), R.validatedViolations(),
                R.unvalidatedViolations(), R.inconclusiveViolations(),
                R.inconclusiveViolations() ? " (solver budget exhausted)"
                                           : "");
  }
  if (R.DeadlineExpired)
    Out += strf("deadline: analysis budget expired; checked up to k=%u, "
                "%u unfolding(s) deferred (partial but sound: reported "
                "violations are real findings, deferred work unchecked)\n",
                R.KChecked, R.UnfoldingsDeferred);
  for (const Violation &V : R.Violations) {
    Out += "violation involving transactions: " + join(V.TxnNames, ", ");
    if (V.Inconclusive)
      Out += " (inconclusive: solver budget exhausted)";
    else if (V.Validated)
      Out += " (validated counter-example)";
    Out += "\n";
    if (V.CE)
      Out += V.CE->Text;
    else if (!V.CEText.empty()) // cache-rehydrated: only the text survives
      Out += V.CEText;
  }
  Out += strf("stats: unfoldings checked %u, subsumed %u, "
              "layouts filtered %u, SSG-flagged %u, "
              "SMT-refuted %u, unknown %u, retries %u, deferred %u, "
              "dfs-budget-exhausted %u, backend %.3fs\n",
              R.UnfoldingsChecked, R.UnfoldingsSubsumed, R.LayoutsFiltered,
              R.SSGFlagged, R.SMTRefuted, R.SMTUnknown, R.SMTRetries,
              R.UnfoldingsDeferred, R.DfsBudgetExhausted, R.BackendSeconds);
  Out += strf("cache: cond %llu hits / %llu misses, sat %llu hits / "
              "%llu misses; rlimit spent %llu; stages: ssg %.3fs, "
              "enum %.3fs, smt %.3fs\n",
              static_cast<unsigned long long>(R.CondCacheHits),
              static_cast<unsigned long long>(R.CondCacheMisses),
              static_cast<unsigned long long>(R.SatCacheHits),
              static_cast<unsigned long long>(R.SatCacheMisses),
              static_cast<unsigned long long>(R.RlimitSpent),
              R.SSGSeconds, R.EnumSeconds, R.SmtSeconds);
  // The incremental layers only report when something was actually reused
  // (or attempted): cold runs without a cache keep their baseline report.
  if (R.TxnFingerprintHits || R.SolverCtxReuses)
    Out += strf("incremental: %llu txn fingerprint hit(s), %llu solver ctx "
                "reuse(s); %.3fs\n",
                static_cast<unsigned long long>(R.TxnFingerprintHits),
                static_cast<unsigned long long>(R.SolverCtxReuses),
                R.IncrementalSeconds);
  (void)A;
  return Out;
}
