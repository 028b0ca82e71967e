//===- analysis/Incremental.h - Per-transaction incremental reuse -*- C++ -*-===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental re-analysis layer: content-addressed reuse of
/// per-unfolding solver outcomes across runs, keyed so that an edit to one
/// transaction invalidates only the queries that touch it.
///
/// Three digests cooperate:
///
///  * `txnContentDigest` — a *name-free* digest of one transaction's
///    content (its events' containers, ops, facts and labels plus the
///    eo/invariant constraints, with every event reference localized to
///    the transaction). Renaming a transaction, or editing a *different*
///    transaction, leaves the digest unchanged — that is the invalidation
///    granularity the whole layer is built on.
///
///  * `incrementalContextDigest` — the run-level environment a per-query
///    verdict depends on beyond the unfolding's own content: spec revision,
///    schema, variable counts, the event mask and every option that shapes
///    the ϕ_cyclic query or the statistics it produces (features, solver
///    budget). Runs with different contexts never share records.
///
///  * `unfoldingRecordKey` — context + the unfolding's session layout
///    (session tag and name-free content digest per instantiated
///    transaction, in instantiation order) + the exact candidate set +
///    the pipeline stage. Two unfoldings with this key produce the same
///    solver query, so an outcome recorded under it can be replayed,
///    counters included.
///
/// Which outcomes are stored. Each ϕ_cyclic query is built from one
/// unfolding alone (paper §7), so its answer is a function of the key:
///
///  * NoCycle, in both stages;
///  * CycleFound in the bounded stage, with the minimal realized cycle
///    index and a name-free witness model (per unfolding transaction:
///    presence and position; per event: presence, position and value
///    slots; per transaction pair: visibility). A replay rebuilds the
///    counter-example from that model through `buildCounterExample`, the
///    same function a fresh Z3 model goes through, with names taken from
///    the current program, and re-runs witness validation on it;
///  * CycleFound in the generalization stage, as the bare "blocked"
///    status: that cycle is never reported, only its existence matters.
///
/// Unknown, error and cancelled outcomes are timing accidents and are never
/// frozen, and neither is a bounded-stage witness whose cycle index is not
/// canonical (an unknown cut its minimization short).
///
/// Why a replayed witness keeps the verdict contract: the committed cycle
/// index is canonical (`minimizeRealizedCycle` pins it to the minimal
/// satisfiable candidate, a pure function of the query), so violation sets,
/// subsumption and every logical counter match a cold run. Only the
/// witness constants are model-chosen, and every differential already
/// treats the witness text (`v.ce`) as such. Validation re-checks the
/// rebuilt witness end to end, so a `Validated` mark never rests on the
/// record alone.
///
/// Determinism contract: lookups consult only the immutable base snapshot
/// loaded at run start; fresh records are
/// collected run-locally and merged after the run, so hit/miss counters
/// are independent of thread count.
///
//===----------------------------------------------------------------------===//

#ifndef C4_ANALYSIS_INCREMENTAL_H
#define C4_ANALYSIS_INCREMENTAL_H

#include "smt/Encoding.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace c4 {

class AbstractHistory;
struct AnalyzerOptions;

/// One cached per-unfolding (or per-chunk) outcome. Besides the verdict
/// itself the record replays the counters the cold run produced, so a warm
/// run's non-timing statistics match a cold run's.
struct IncrRecord {
  unsigned Attempts = 0;         ///< solve attempts of the cold run
  unsigned CtxReuses = 0;        ///< solver-context reuses (retry re-checks)
  uint64_t RlimitBudget = 0;     ///< rlimit budget of the last attempt
  bool Cycle = false;            ///< CycleFound (otherwise NoCycle)
  /// Bounded-stage cycles: the canonical witness model to rebuild the
  /// counter-example from.
  std::optional<WitnessModel> Witness = std::nullopt;
};

/// A portable image of the incremental layer, the unit of cross-run
/// persistence: the outcome records plus the set of transaction content
/// digests seen (powering the txn_fingerprint_hits statistic). Keys are
/// content digests, so entries survive transaction renames and are valid
/// across programs. Kept sorted — serialize() is deterministic.
class IncrementalSnapshot {
public:
  size_t numRecords() const { return Records.size(); }
  size_t numTxns() const { return TxnDigests.size(); }
  bool empty() const { return Records.empty() && TxnDigests.empty(); }

  const IncrRecord *record(const std::string &Key) const {
    auto It = Records.find(Key);
    return It == Records.end() ? nullptr : &It->second;
  }
  void addRecord(const std::string &Key, IncrRecord Rec) {
    Records.emplace(Key, std::move(Rec));
  }
  bool hasTxn(const std::string &Digest) const {
    return TxnDigests.count(Digest) != 0;
  }
  void addTxn(const std::string &Digest) { TxnDigests.insert(Digest); }

  /// Union with \p O. On a key collision both sides hold the same verdict
  /// (a pure function of the key; only witness constants may differ); the
  /// existing record is kept.
  void merge(const IncrementalSnapshot &O);

  /// Versioned text serialization (sorted, deterministic).
  std::string serialize() const;

  /// Parses a blob produced by serialize(). Returns nullopt on a malformed
  /// or version-mismatched blob — callers treat that as an empty cache.
  static std::optional<IncrementalSnapshot> deserialize(const std::string &B);

private:
  std::set<std::string> TxnDigests;
  std::map<std::string, IncrRecord> Records;
};

/// The run-facing store: an immutable base consulted for lookups plus a
/// run-local overlay of fresh records. Thread-safe.
class IncrementalStore {
public:
  /// \p BaseSnap may be null (empty base). It must outlive the store.
  explicit IncrementalStore(const IncrementalSnapshot *BaseSnap)
      : Base(BaseSnap) {}
  IncrementalStore(const IncrementalStore &) = delete;
  IncrementalStore &operator=(const IncrementalStore &) = delete;

  /// The base's record for \p Key, or null. Counts a hit or a miss.
  const IncrRecord *lookup(const std::string &Key);

  /// Records a fresh outcome into the run-local overlay (never consulted
  /// by lookup — see the determinism contract).
  void record(const std::string &Key, IncrRecord Rec);

  bool baseHasTxn(const std::string &Digest) const {
    return Base && Base->hasTxn(Digest);
  }
  /// Notes a transaction digest of the current program for export.
  void noteTxn(const std::string &Digest);

  /// Drains the run-local overlay into \p Out (merging).
  void exportInto(IncrementalSnapshot &Out) const;

  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }

private:
  const IncrementalSnapshot *Base;
  mutable std::mutex Mu;
  std::map<std::string, IncrRecord> Fresh;
  std::set<std::string> FreshTxns;
  std::atomic<uint64_t> Hits{0}, Misses{0};
};

/// Name-free content digest of transaction \p T of \p A: events (container,
/// op, display flag, label, facts) in transaction order plus the eo and
/// invariant constraints, with global event references rewritten to
/// transaction-local indices. The transaction's *name* is deliberately
/// excluded, as is anything about other transactions.
std::string txnContentDigest(const AbstractHistory &A, unsigned T);

/// Digest of the run-level environment per-query verdicts depend on (see
/// the file comment). \p Mask is the run's event mask over \p A's events.
std::string incrementalContextDigest(const AbstractHistory &A,
                                     const AnalyzerOptions &O,
                                     const std::vector<bool> &Mask);

/// Record key for one solver query: \p Context + the unfolding's session
/// layout with name-free per-transaction digests + the exact candidate set
/// + \p Stage ("bounded" or "generalize").
std::string unfoldingRecordKey(const std::string &Context, const Unfolding &U,
                               const std::vector<CandidateCycle> &Cands,
                               const char *Stage);

} // namespace c4

#endif // C4_ANALYSIS_INCREMENTAL_H
