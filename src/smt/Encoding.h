//===- smt/Encoding.h - The ϕ_cyclic SMT encoding (§7) ----------*- C++ -*-===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Encodes the serializability criterion for one k-unfolding into a
/// first-order query for Z3 (paper §7): a model is a pre-schedule of a
/// one-to-one concretization of the unfolding whose DSG contains a cycle.
///
/// Model variables:
///  * per transaction: a presence boolean and an integer arbitration
///    position (atomic visibility S3 makes transactions contiguous in ar,
///    so transaction-level positions are exact),
///  * per ordered transaction pair: a visibility boolean (transitive,
///    including session order — causal consistency S2),
///  * per event: a presence boolean, an integer position inside its
///    transaction, and one integer per combined value slot,
///  * per eo edge: a "taken" boolean — present events form a path through
///    the transaction's event order with all guards satisfied (§8
///    control-flow constraints),
///  * session-local and global symbolic constants (VarL, VarG).
///
/// Dependencies follow D1-D3 with the far-commutativity / far-absorption
/// rewrite specification, asymmetric commutativity on anti-dependencies and
/// the fresh-unique-value axioms (§8). The cycle itself is selected from the
/// SC1-feasible simple cycles of the unfolding's instantiated SSG.
///
//===----------------------------------------------------------------------===//

#ifndef C4_SMT_ENCODING_H
#define C4_SMT_ENCODING_H

#include "abstract/Features.h"
#include "history/Schedule.h"
#include "smt/Z3Env.h"
#include "ssg/SSG.h"
#include "support/Deadline.h"
#include "unfold/Unfolder.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace c4 {

/// A concrete witness extracted from a Z3 model: a history, the
/// pre-schedule, and the DSG cycle found.
struct CounterExample {
  History H;
  Schedule S;
  /// Transactions on the cycle, as concrete transaction ids of H.
  std::vector<unsigned> CycleTxns;
  /// The original (syntactic) transaction ids of the cycle.
  std::vector<unsigned> OrigTxns;
  /// Human-readable rendering.
  std::string Text;
};

/// A name-free image of a ϕ_cyclic model: everything a counter-example is
/// built from, indexed by the unfolding's transaction and event ids.
/// Entries of absent transactions and events are zero.
struct WitnessModel {
  unsigned Cycle = 0; ///< the realized candidate (lowest set selector)
  std::vector<bool> TxnPresent;
  std::vector<int64_t> TxnPos;
  std::vector<std::vector<bool>> Vis; ///< [s][t] transaction visibility
  std::vector<bool> EvPresent;
  std::vector<int64_t> EvPos;
  std::vector<std::vector<int64_t>> Vals; ///< [event][value slot]

  /// True when the model has the shape of a model of unfolding \p U
  /// against \p NumCands candidates.
  bool fits(const Unfolding &U, size_t NumCands) const;
  bool operator==(const WitnessModel &) const = default;
};

/// Builds the counter-example \p M describes on unfolding \p U against
/// \p Cands, the one path for a model just read from Z3 and for one
/// loaded from an incremental record. Names come from \p U. Requires
/// `M.fits(U, Cands.size())`.
CounterExample buildCounterExample(const Unfolding &U,
                                   const std::vector<CandidateCycle> &Cands,
                                   const WitnessModel &M);

/// Result of solving one unfolding.
struct UnfoldingResult {
  enum StatusKind { NoCycle, CycleFound, Unknown } Status = NoCycle;
  std::optional<CounterExample> CE;
  /// The model CE was built from, set only when its cycle index is
  /// canonical (see minimizeRealizedCycle): only then may it be replayed.
  std::optional<WitnessModel> Witness;
};

/// Resource-governance policy for the precise stage: the per-query budget
/// and an optional analysis deadline. The deadline is consulted between
/// solve attempts (never mid-check — the per-attempt wall ceiling, clamped
/// to the remaining deadline, bounds overshoot instead) so cancellation is
/// always sound: an interrupted query reports Unknown, not a verdict.
struct SolverPolicy {
  SolverBudget Budget;
  const Deadline *DL = nullptr;
};

/// Per-query telemetry filled by \ref solveUnfolding for the query trace
/// and the analysis statistics.
struct SolveTelemetry {
  /// Solve attempts issued (1 = solved within the base budget).
  unsigned Attempts = 0;
  /// The rlimit budget of the last attempt.
  uint64_t RlimitBudget = 0;
  /// Resource units spent across all attempts (0 when unavailable).
  uint64_t RlimitSpent = 0;
  /// True when a z3::exception was confined to an Unknown result.
  bool Error = false;
  /// Times an already-encoded solver context answered instead of a fresh
  /// encode: retry re-checks under an escalated budget (`Z3Env::rearm`)
  /// plus, through \ref LayoutSolver, additional cycle chunks solved
  /// against a shared base encoding.
  unsigned CtxReuses = 0;
};

/// Builds and solves ϕ_cyclic for \p U. \p Candidates are the SC1-feasible
/// simple cycles of the unfolding's instantiated SSG \p G (built with the
/// same features \p F). \p P governs the solver resources: the primary
/// budget is an rlimit (escalated geometrically on unknown up to the cap),
/// the wall clock is a backstop only. \p Oracle, when given, memoizes the
/// rewrite-spec conditions used by the encoding (shared with the SSG
/// stage; thread-safe). The query is reset into, encoded on and solved on
/// the calling thread's env (Z3Env::forThisThread). It is encoded once; an
/// unknown is retried by re-arming the *same* solver with an escalated
/// rlimit (`Z3Env::rearm`) and re-checking, and each such re-check counts
/// into `SolveTelemetry::CtxReuses`. \p Telemetry, when given, receives the
/// attempt/spend accounting. A CycleFound result carries its canonical
/// witness model (see UnfoldingResult::Witness).
UnfoldingResult solveUnfolding(const Unfolding &U, const SSG &G,
                               const std::vector<CandidateCycle> &Candidates,
                               const AnalysisFeatures &F,
                               const SolverPolicy &P = {},
                               CommutativityOracle *Oracle = nullptr,
                               SolveTelemetry *Telemetry = nullptr);

/// A shared solver context for the many cycle/segment chunks of one
/// session layout (the §7.2 generalization loop solves the same unfolding
/// against successive candidate-segment chunks). The base encoding —
/// orders, control flow, facts, fresh values, query values — is built
/// exactly once; each \ref solve call pushes a scope, encodes only the
/// chunk's cycle selectors, solves (with the same escalating-rlimit retry
/// governance as \ref solveUnfolding), and pops. Every chunk after the
/// first counts a context reuse. It holds the constructing thread's env
/// (reset once here), so that thread solves nothing else while it lives.
class LayoutSolver {
public:
  /// All referees must outlive the solver.
  LayoutSolver(const Unfolding &U, const SSG &G, const AnalysisFeatures &F,
               const SolverPolicy &P, CommutativityOracle *Oracle = nullptr);
  ~LayoutSolver();
  LayoutSolver(const LayoutSolver &) = delete;
  LayoutSolver &operator=(const LayoutSolver &) = delete;

  /// Solves ϕ_cyclic restricted to \p Candidates on the shared base
  /// encoding. Semantics and telemetry match \ref solveUnfolding.
  UnfoldingResult solve(const std::vector<CandidateCycle> &Candidates,
                        SolveTelemetry *Telemetry = nullptr);

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace c4

#endif // C4_SMT_ENCODING_H
