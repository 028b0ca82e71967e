//===- smt/QueryTrace.h - Structured solver query trace ---------*- C++ -*-===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A structured trace of every solver query an analysis run issues: one
/// record per ϕ_cyclic query with the pipeline stage, session bound,
/// unfolding id, retry/attempt counts, rlimit budget and spend, outcome and
/// wall time. Records are appended in commit order (the deterministic
/// enumeration order of the bounded check), so everything except the wall
/// and spent columns is reproducible across runs and thread counts. Ad-hoc
/// tooling can consume the JSONL rendering (`c4-analyze --trace <file>`,
/// one JSON object per line).
///
//===----------------------------------------------------------------------===//

#ifndef C4_SMT_QUERYTRACE_H
#define C4_SMT_QUERYTRACE_H

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace c4 {

/// One solver query (up to `Attempts` escalating solve attempts).
struct QueryRecord {
  /// Pipeline stage: "bounded" (per-unfolding ϕ_cyclic) or "generalize"
  /// (§7.2 segment-infeasibility chunks).
  const char *Stage = "bounded";
  /// Session bound k of the round that issued the query.
  unsigned K = 0;
  /// Commit-order unfolding index within the round (-1: not applicable).
  long Unfolding = -1;
  /// Solve attempts issued (1 = no retry).
  unsigned Attempts = 1;
  /// The rlimit budget of the last attempt (0 = wall-clock only).
  uint64_t RlimitBudget = 0;
  /// Total resource units spent across all attempts of this query.
  uint64_t RlimitSpent = 0;
  /// "cycle", "no-cycle", "unknown" or "error".
  const char *Outcome = "unknown";
  /// Always false; kept only because perfbench/loadgen.cpp reads it.
  bool Prefiltered = false;
  /// The outcome was replayed from a persisted incremental record without
  /// reaching Z3. Attempts replays the recording run's count; WallMs is
  /// the record lookup time.
  bool Reused = false;
  /// Wall time across all attempts, milliseconds.
  double WallMs = 0;
};

/// Thread-safe accumulator for query records; rendered as JSONL.
class QueryTrace {
public:
  void append(const QueryRecord &R) {
    std::lock_guard<std::mutex> Lock(Mu);
    Records.push_back(R);
  }

  /// Snapshot of the records appended so far.
  std::vector<QueryRecord> records() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Records;
  }

  size_t size() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Records.size();
  }

  /// Renders the trace as JSONL: one `{"seq":N,...}` object per line.
  std::string toJsonl() const;

  /// Writes the JSONL rendering to \p Path; false on I/O failure.
  bool writeFile(const std::string &Path) const;

private:
  mutable std::mutex Mu;
  std::vector<QueryRecord> Records;
};

} // namespace c4

#endif // C4_SMT_QUERYTRACE_H
