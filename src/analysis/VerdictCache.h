//===- analysis/VerdictCache.h - Whole-history verdict persistence *- C++ -*-=//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Content-addressed persistence of whole-history analysis results: the
/// verdict layer of the cross-run cache (analysis/Pipeline.h).
///
/// The cache key is `fingerprintAnalysis(A, O)`: a stable digest of every
/// input the verdict depends on — the schema (container and type names, op
/// signatures), the complete abstract history (events with facts, labels,
/// guarded eo edges and pair invariants rendered via Cond::str(), the
/// abstract session order, symbolic-variable counts) and the
/// verdict-affecting analyzer options (feature toggles, k/enumeration caps,
/// solver budget, deadline, DFS budget, filters, atomic sets) — plus the
/// rewrite-spec revision (kSpecRevision) and the blob format version.
/// Deliberately *excluded*: thread count, oracle on/off and tracing, which
/// change observability but never the verdict (parallel runs commit in
/// enumeration order, see AnalyzerOptions::NumThreads).
///
/// The value is `serializeResult(R)`: a versioned, deterministic text blob
/// holding the full AnalysisResult — verdict, violations (with their
/// rendered counter-example text; the structural CounterExample is not
/// persisted, see Violation::CEText) and *all* statistics including the
/// recorded stage timings. A warm hit therefore replays the cold run's
/// stats byte-for-byte, which is what makes "warm output identical to cold
/// output" testable at the CLI layer.
///
/// `deserializeResult` is strict: any malformed field yields nullopt, and
/// callers fall back to the cold path (the same contract DiskCache has for
/// torn entries).
///
//===----------------------------------------------------------------------===//

#ifndef C4_ANALYSIS_VERDICTCACHE_H
#define C4_ANALYSIS_VERDICTCACHE_H

#include "analysis/Analyzer.h"

#include <optional>
#include <string>

namespace c4 {

/// Stable content fingerprint of one (abstract history, options) analysis
/// instance; 32 hex characters, usable directly as a DiskCache key.
std::string fingerprintAnalysis(const AbstractHistory &A,
                                const AnalyzerOptions &O);

/// Serializes \p R into a deterministic, versioned text blob. Doubles are
/// stored as hexfloats, so they round-trip exactly.
std::string serializeResult(const AnalysisResult &R);

/// Parses a blob produced by serializeResult. Strict: nullopt on any
/// malformed or version-mismatched input.
std::optional<AnalysisResult> deserializeResult(const std::string &Blob);

/// Canonical digest of the *verdict* alone (serializability, violation
/// transaction sets and their triage classes) — the equality the service
/// and bench differential checks compare across cold/warm runs and thread
/// counts. Statistics do not contribute.
std::string verdictDigest(const AnalysisResult &R);

} // namespace c4

#endif // C4_ANALYSIS_VERDICTCACHE_H
