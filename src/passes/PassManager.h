//===- passes/PassManager.h - Reduction + lint pipeline ---------*- C++ -*-===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pass pipeline that runs between `compileC4L()` and analysis. It
/// rewrites a clone of the program AST with sound history reductions —
/// verdict-preserving by construction, see docs/passes.md for the
/// per-pass soundness arguments — and emits the structured lint
/// diagnostics of Lint.h:
///
///   1. Guard-constraint analysis (dataflow over the per-transaction CFG):
///      tracks interval/equality constraints on let-bound names implied by
///      the guards dominating each block.
///   2. Infeasible-branch pruning: a branch arm whose edge constraint
///      contradicts the incoming state is deleted (C4L-W003).
///   3. Constant propagation: a name constrained to a single value is
///      replaced by the literal, so derived argument equalities become
///      constant facts in the abstract history (fewer non-commutativity
///      edges).
///   4. Dead/absorbed-write elimination: an update provably absorbed by a
///      later update of the same basic block is deleted (C4L-W005), using
///      the far-absorption specs of src/spec.
///
/// Steps 1–4 iterate to a fixpoint, then the reduced AST is re-built into
/// the CompiledProgram. Afterwards, fresh-identity promotion upgrades
/// argument slots provably equal to a `fresh` creator's return into
/// AbsFact::FreshVar facts (paper §8 unique-value reasoning without SMT),
/// and the program-level lints (C4L-W001/2/4) run.
///
//===----------------------------------------------------------------------===//

#ifndef C4_PASSES_PASSMANAGER_H
#define C4_PASSES_PASSMANAGER_H

#include "passes/Lint.h"

#include <memory>
#include <string>
#include <vector>

namespace c4 {

struct CompiledProgram;
struct ProgramAST;

/// Pipeline configuration.
struct PassOptions {
  /// Run the reducing passes (branch pruning, const-prop, dead-write
  /// elimination, fresh promotion). When false only the lints run —
  /// this is `c4-analyze --no-passes`.
  bool Reduce = true;
  /// Whether the downstream analysis models unique values (paper §8).
  /// Fresh-identity promotion is only sound (and only useful) then.
  bool UniqueValues = true;
  /// Collect lint diagnostics.
  bool Lint = true;
};

/// Per-pipeline telemetry, surfaced in `--stats-json`.
struct PassStats {
  unsigned EventsBefore = 0;  ///< abstract-history events before reduction
  unsigned EventsAfter = 0;   ///< ... and after
  unsigned DeadWrites = 0;    ///< updates removed by absorption (W005)
  unsigned PrunedBranches = 0; ///< statically infeasible arms removed (W003)
  unsigned ConstProps = 0;    ///< name arguments replaced by literals
  unsigned FreshPromotions = 0; ///< slots promoted to FreshVar facts
  unsigned Iterations = 0;    ///< reduction fixpoint rounds executed
  double Seconds = 0;         ///< wall time of the whole pipeline
};

/// Result of running the pipeline.
struct PassResult {
  PassStats Stats;
  std::vector<LintDiagnostic> Lints; ///< sorted, suppression-filtered
  bool Changed = false; ///< the program was rewritten
  bool Ok = true;
  std::string Error; ///< set when Ok is false (internal rebuild failure)
};

/// Runs the pipeline over \p P in place. \p Source, when provided, is the
/// original program text, used only to honor `c4l-allow` suppressions.
/// On internal failure the program is left exactly as compiled.
PassResult runPasses(CompiledProgram &P, const PassOptions &Opts,
                     const std::string *Source = nullptr);

/// Deep-copies a program AST (exposed for tests).
std::unique_ptr<ProgramAST> cloneAST(const ProgramAST &AST);

/// Fresh-identity promotion alone (exposed for tests): upgrades argument
/// slots provably carrying the fresh value returned by a dominating
/// creator event of the same transaction to AbsFact::FreshVar. Returns the
/// number of promoted slots.
unsigned promoteFreshFacts(CompiledProgram &P);

} // namespace c4

#endif // C4_PASSES_PASSMANAGER_H
