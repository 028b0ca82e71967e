//===- analysis/Pipeline.h - Cached analysis entry point --------*- C++ -*-===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared entry point above `analyze()` used by the CLI (--cache-dir)
/// and the analysis service (tools/c4-serve): persistent cross-run caching
/// plus the canonical stats-JSON emitter, so both tools speak byte-identical
/// schemas.
///
/// An `AnalysisCache` wires the two persistence layers together on top of
/// one DiskCache directory:
///
///  * the *oracle layer* — a portable OracleSnapshot of satisfiability
///    verdicts, accumulated across runs in memory and persisted whenever it
///    grows. Every cold analysis pre-seeds a fresh per-run oracle from it
///    (resolved against the program's own TypeRegistry; entries are valid
///    across programs, see spec/CommutativityCache.h) and folds its new
///    entries back in afterwards;
///
///  * the *verdict layer* — whole-history results keyed by
///    `fingerprintAnalysis`. A hit skips the back end entirely and
///    rehydrates the cold run's result, statistics included, byte for byte.
///
/// In *incremental* mode (`--incremental-cache`) a third layer rides on
/// the same directory, for the case where the verdict layer misses because
/// the program was edited:
///
///  * the *incremental layer* — per-unfolding outcome records (NoCycle, and
///    cycles with their name-free witness models) keyed by transaction
///    content digests (analysis/Incremental.h), replaying bounded-check and
///    generalization queries whose transactions did not change.
///
/// All layers are advisory: any miss, corruption or disabled directory
/// falls back to the plain cold path with identical verdicts. Results whose
/// deadline expired are *not* persisted — they are timing-dependent
/// partial verdicts, and caching one would freeze a wall-clock accident
/// into future runs.
///
/// One AnalysisCache may be shared by concurrent requests (the service
/// does): DiskCache is internally thread-safe, the snapshot is guarded
/// here, and per-run oracles are private to their run.
///
//===----------------------------------------------------------------------===//

#ifndef C4_ANALYSIS_PIPELINE_H
#define C4_ANALYSIS_PIPELINE_H

#include "analysis/Incremental.h"
#include "analysis/VerdictCache.h"
#include "spec/CommutativityCache.h"
#include "support/DiskCache.h"
#include "support/SingleFlight.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

namespace c4 {

/// The persistent cross-run cache: one disk directory, two layers (three in
/// incremental mode).
class AnalysisCache {
public:
  /// Opens (creating if needed) the cache rooted at \p Dir and loads the
  /// persisted oracle snapshot. A directory that cannot be created leaves
  /// the cache disabled (analyses still run, uncached). With \p Incremental
  /// the per-unfolding record snapshot is loaded too and cold runs
  /// consult/extend it (`--incremental-cache`).
  explicit AnalysisCache(const std::string &Dir, bool Incremental = false);

  bool enabled() const { return Disk.enabled(); }
  bool incremental() const { return Incr; }

  DiskCacheStats diskStats() const { return Disk.stats(); }
  uint64_t verdictHits() const { return VerdictHits.load(); }
  uint64_t verdictMisses() const { return VerdictMisses.load(); }
  /// Analyses that actually ran the back end through this cache. Under
  /// concurrent identical requests the single-flight layer keeps this at
  /// one per distinct fingerprint — the serving tier's stampede guard.
  uint64_t backendRuns() const { return BackendRuns.load(); }
  /// Requests that waited on another request's in-flight identical
  /// analysis instead of running their own.
  uint64_t flightWaits() const { return FlightWaits.load(); }
  size_t oracleEntries();
  /// Incremental-layer sizes (0 when not in incremental mode).
  size_t incrRecords();
  size_t incrTxns();

  /// Persists any unwritten oracle snapshot growth. Writes are already
  /// eager on the cold path, so this is a cheap idempotent safety net the
  /// serving tier calls during graceful drain.
  void flush();

  /// Serializes the oracle facts accumulated since the previous call (or
  /// everything, on the first call) and advances the export baseline. Facts
  /// that arrived via importOracleBlob() are part of the baseline and are
  /// never echoed back. \p Facts receives the number of entries in the
  /// delta; an empty delta still serializes to a valid (header-only) blob.
  /// This is the `snapshot_export` op of the sharded serving tier.
  std::string exportOracleDelta(size_t &Facts);

  /// Merges a serialized snapshot (full or delta) produced by another
  /// process into this cache's oracle layer; subsequent cold analyses
  /// pre-seed from the union. Returns the number of *new* facts merged
  /// (re-importing an echo counts zero), or nullopt when the blob is
  /// malformed or from a different snapshot version — version skew between
  /// fleet members must degrade to "no sharing", never to corruption.
  std::optional<size_t> importOracleBlob(const std::string &Blob);

private:
  friend struct PipelineRunner;
  DiskCache Disk;
  bool Incr = false; ///< incremental layers enabled for this cache
  std::mutex SnapMu;
  OracleSnapshot Snapshot;  ///< accumulated across runs, guarded by SnapMu
  size_t PersistedSize = 0; ///< snapshot size at the last disk write
  /// What exportOracleDelta() has already handed out (plus everything
  /// imported); the next export ships Snapshot − ExportedBase.
  OracleSnapshot ExportedBase;
  // Incremental-mode state, all guarded by SnapMu like the oracle snapshot.
  IncrementalSnapshot IncrSnap; ///< per-unfolding records + txn digests
  size_t PersistedIncrRecords = 0, PersistedIncrTxns = 0;
  std::atomic<uint64_t> VerdictHits{0}, VerdictMisses{0};
  std::atomic<uint64_t> BackendRuns{0}, FlightWaits{0};
  SingleFlight Flights; ///< per-fingerprint stampede protection
};

/// Outcome of analyzeCached.
struct PipelineResult {
  AnalysisResult R;
  bool CacheHit = false;     ///< verdict layer hit; R was rehydrated
  std::string Fingerprint;   ///< empty when no cache was configured
  unsigned OracleImported = 0; ///< sat verdicts pre-seeded on the cold path
};

/// Runs the analysis through the cache (or plain `analyze()` when \p Cache
/// is null/disabled). \p Reg must be the registry the history's schema was
/// built against — the oracle snapshot resolves type names through it.
PipelineResult analyzeCached(const AbstractHistory &A,
                             const AnalyzerOptions &O, const TypeRegistry &Reg,
                             AnalysisCache *Cache);

/// Front-end/pass measurements and labels accompanying a result in the
/// stats-JSON object. Plain values rather than frontend/passes types: this
/// library sits below both, and the service fills the same fields from its
/// request context.
struct StatsJsonFields {
  std::string File; ///< echoed verbatim in "file"
  unsigned Transactions = 0, Events = 0;
  double FrontendSeconds = 0, LexSeconds = 0, ParseSeconds = 0,
         BuildSeconds = 0;
  double PassSeconds = 0;
  unsigned PassIterations = 0, EventsBefore = 0, EventsAfter = 0;
  unsigned DeadWrites = 0, PrunedBranches = 0, ConstProps = 0,
           FreshPromotions = 0;
  size_t LintWarnings = 0;
};

/// Renders the canonical `--stats-json` object (one schema for the CLI and
/// the service; see docs/cli.md for the field reference). Byte-for-byte
/// deterministic in its inputs.
std::string renderStatsJson(const StatsJsonFields &F,
                            const AnalysisResult &R);

} // namespace c4

#endif // C4_ANALYSIS_PIPELINE_H
