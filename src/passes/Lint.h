//===- passes/Lint.h - Structured lint diagnostics --------------*- C++ -*-===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lint layer of the pass framework: structured diagnostics with stable
/// warning IDs, source lines (from the AST's Line fields) and deterministic
/// ordering, rendered as text or JSON by `c4-analyze --lint` /
/// `--lint-json`.
///
/// Warning catalog (stable IDs — never renumber):
///   C4L-W001  unused write: a container is updated but never queried by
///             any transaction, so its writes are unobservable.
///   C4L-W002  read of a never-written container: a container is queried
///             but no transaction ever updates it.
///   C4L-W003  always-false guard: a branch arm is statically infeasible
///             under the guards dominating it (guard implication).
///   C4L-W004  multi-container update outside any atomic set: a transaction
///             updates several containers that no declared atomic set
///             groups together (§9.1 filters cannot relate them).
///   C4L-W005  redundant operation: an update is provably absorbed by a
///             later update of the same transaction (far absorption) and
///             was eliminated by the reduction pipeline.
///   C4L-W006  retired; the ID is not reused.
///
/// Suppression: a source line carrying (or immediately preceded by a line
/// carrying) a `c4l-allow` comment suppresses warnings reported for that
/// line — all of them for a bare `c4l-allow`, or only the listed IDs, e.g.
/// `// c4l-allow C4L-W001`.
///
//===----------------------------------------------------------------------===//

#ifndef C4_PASSES_LINT_H
#define C4_PASSES_LINT_H

#include <string>
#include <vector>

namespace c4 {

/// One lint warning.
struct LintDiagnostic {
  std::string Id;   ///< stable warning ID, e.g. "C4L-W001"
  unsigned Line = 0;
  std::string Txn;  ///< enclosing transaction, or "" for program-level
  std::string Message;
};

/// Sorts diagnostics into the canonical (line, id, message) order. All
/// renderers expect sorted input; the order is deterministic for a given
/// program.
void sortLints(std::vector<LintDiagnostic> &Lints);

/// Removes diagnostics suppressed by `c4l-allow` comments in \p Source.
std::vector<LintDiagnostic>
filterSuppressedLints(std::vector<LintDiagnostic> Lints,
                      const std::string &Source);

/// Renders "FILE:LINE: warning ID: message [txn]" lines.
std::string renderLintText(const std::vector<LintDiagnostic> &Lints,
                           const std::string &File);

/// Renders the documented JSON schema:
/// {"file": ..., "warnings": [{"id", "line", "txn", "message"}, ...]}
std::string renderLintJson(const std::vector<LintDiagnostic> &Lints,
                           const std::string &File);

} // namespace c4

#endif // C4_PASSES_LINT_H
