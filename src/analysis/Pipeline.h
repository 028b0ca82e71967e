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
/// An `AnalysisCache` keeps its persistence layers in one DiskCache
/// directory:
///
///  * the *verdict layer* — whole-history results keyed by
///    `fingerprintAnalysis`. A hit skips the back end entirely and
///    rehydrates the cold run's result, statistics included, byte for byte.
///    A miss reads only its own key: the commutativity oracle lives for one
///    run (spec/CommutativityCache.h) and nothing of it is persisted.
///
/// In *incremental* mode (`--incremental-cache`) a second layer rides on
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
/// does): DiskCache is internally thread-safe, the incremental snapshot is
/// guarded here, and per-run oracles are private to their run.
///
//===----------------------------------------------------------------------===//

#ifndef C4_ANALYSIS_PIPELINE_H
#define C4_ANALYSIS_PIPELINE_H

#include "analysis/Incremental.h"
#include "analysis/VerdictCache.h"
#include "support/DiskCache.h"
#include "support/SingleFlight.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

namespace c4 {

/// The persistent cross-run cache: one disk directory, the verdict layer
/// plus, in incremental mode, the incremental layer.
class AnalysisCache {
public:
  /// Opens (creating if needed) the cache rooted at \p Dir. A directory
  /// that cannot be created leaves the cache disabled (analyses still run,
  /// uncached). With \p Incremental the per-unfolding record snapshot is
  /// loaded and cold runs consult/extend it (`--incremental-cache`).
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
  /// Incremental-layer sizes (0 when not in incremental mode).
  size_t incrRecords();
  size_t incrTxns();

  /// Persists any unwritten incremental snapshot growth. Writes are
  /// already eager on the cold path, so this is a cheap idempotent safety
  /// net the serving tier calls during graceful drain.
  void flush();

private:
  friend struct PipelineRunner;
  DiskCache Disk;
  bool Incr = false; ///< incremental layers enabled for this cache
  // Incremental-mode state, all guarded by SnapMu.
  std::mutex SnapMu;
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
  unsigned OracleImported = 0; ///< always 0; perfbench/loadgen.cpp reads it
};

/// Runs the analysis through the cache (or plain `analyze()` when \p Cache
/// is null/disabled). \p Reg is unused; perfbench/loadgen.cpp calls this
/// four-argument form.
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
