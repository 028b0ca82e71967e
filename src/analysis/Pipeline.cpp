//===- analysis/Pipeline.cpp ----------------------------------------------===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "analysis/Pipeline.h"

#include "support/Json.h"

#include <cstdio>

using namespace c4;

namespace {

std::string verdictKey(const std::string &Fingerprint) {
  return "verdict-r" + std::to_string(kSpecRevision) + "-" + Fingerprint;
}

std::string incrKey() { return "incr-r" + std::to_string(kSpecRevision); }

} // namespace

AnalysisCache::AnalysisCache(const std::string &Dir, bool Incremental)
    : Disk(Dir), Incr(Incremental) {
  if (!Disk.enabled() || !Incr)
    return;
  if (std::optional<std::string> Blob = Disk.get(incrKey())) {
    if (std::optional<IncrementalSnapshot> S =
            IncrementalSnapshot::deserialize(*Blob)) {
      IncrSnap = std::move(*S);
      PersistedIncrRecords = IncrSnap.numRecords();
      PersistedIncrTxns = IncrSnap.numTxns();
    }
    // A blob of another snapshot version parses to nullopt and reads as
    // an empty cache; the next persist overwrites it.
  }
}

size_t AnalysisCache::incrRecords() {
  std::lock_guard<std::mutex> Lock(SnapMu);
  return IncrSnap.numRecords();
}

size_t AnalysisCache::incrTxns() {
  std::lock_guard<std::mutex> Lock(SnapMu);
  return IncrSnap.numTxns();
}

void AnalysisCache::flush() {
  std::lock_guard<std::mutex> Lock(SnapMu);
  if (!Disk.enabled() || !Incr)
    return;
  if (IncrSnap.numRecords() > PersistedIncrRecords ||
      IncrSnap.numTxns() > PersistedIncrTxns) {
    Disk.put(incrKey(), IncrSnap.serialize());
    PersistedIncrRecords = IncrSnap.numRecords();
    PersistedIncrTxns = IncrSnap.numTxns();
  }
}

namespace {
/// Guarantees a joined-as-leader flight completes exactly once: an early
/// exit (exception in the analysis) releases the followers unshared, so
/// they retry instead of blocking forever.
struct FlightGuard {
  SingleFlight &SF;
  const std::string &Key;
  SingleFlight::FlightPtr F;
  bool Completed = false;

  void share(std::string Blob) {
    SF.complete(Key, F, /*Share=*/true, std::move(Blob));
    Completed = true;
  }
  void decline() {
    SF.complete(Key, F, /*Share=*/false);
    Completed = true;
  }
  ~FlightGuard() {
    if (!Completed)
      SF.complete(Key, F, /*Share=*/false);
  }
};
} // namespace

namespace c4 {
/// Befriended by AnalysisCache: the cold/warm path over its layers,
/// with per-fingerprint single-flight between them. Concurrent identical
/// requests elect one leader; everyone else reuses its result (or, on a
/// disk hit, never enters the flight at all), so a stampede on one
/// fingerprint costs one backend run.
struct PipelineRunner {
  static PipelineResult run(const AbstractHistory &A,
                            const AnalyzerOptions &O, AnalysisCache &C) {
    PipelineResult PR;
    PR.Fingerprint = fingerprintAnalysis(A, O);
    // The verdict layer: a hit skips the back end entirely. A parse
    // failure after a checksum-clean read means a format skew within one
    // version — it reads as a miss, and the store below repairs the slot.
    auto VerdictHit = [&] {
      std::optional<std::string> Blob =
          C.Disk.get(verdictKey(PR.Fingerprint));
      std::optional<AnalysisResult> R =
          Blob ? deserializeResult(*Blob) : std::nullopt;
      if (!R)
        return false;
      C.VerdictHits.fetch_add(1, std::memory_order_relaxed);
      PR.R = std::move(*R);
      PR.CacheHit = true;
      return true;
    };

    for (;;) {
      uint64_t Completions = C.Flights.completions();
      if (VerdictHit())
        return PR;

      bool Leader = false;
      SingleFlight::FlightPtr F = C.Flights.join(PR.Fingerprint, Leader);
      if (!Leader) {
        // Another request is computing this exact analysis right now; wait
        // for its blob instead of redoing the work.
        C.FlightWaits.fetch_add(1, std::memory_order_relaxed);
        if (std::shared_ptr<const std::string> Blob = SingleFlight::wait(F)) {
          if (std::optional<AnalysisResult> R = deserializeResult(*Blob)) {
            PR.R = std::move(*R);
            PR.CacheHit = true;
            return PR;
          }
        }
        // The leader declined to share (deadline-expired partial) or the
        // blob was malformed: start over — the disk may have been
        // populated meanwhile, or this request becomes the next leader.
        continue;
      }

      FlightGuard Guard{C.Flights, PR.Fingerprint, F};
      // A flight that completed between the probe above and the join may
      // have stored this very verdict: probe again rather than run the
      // back end twice. Only then — a second probe on every miss would
      // double its disk reads. The count covers every key, so a flight of
      // another program also sets off the probe: one disk read on a path
      // that is about to run the back end. Followers of this flight wake
      // unshared and find the verdict on disk.
      if (C.Flights.completions() != Completions && VerdictHit())
        return PR;

      C.VerdictMisses.fetch_add(1, std::memory_order_relaxed);
      C.BackendRuns.fetch_add(1, std::memory_order_relaxed);

      // Incremental layer: freeze a private copy of the shared snapshot
      // for this run (lookups must see one immutable base — see the
      // determinism contract in analysis/Incremental.h) and hand the
      // analyzer a store over it.
      AnalyzerOptions O2 = O;
      std::optional<IncrementalSnapshot> IncrBase;
      std::optional<IncrementalStore> Store;
      if (C.Incr) {
        {
          std::lock_guard<std::mutex> Lock(C.SnapMu);
          IncrBase = C.IncrSnap;
        }
        Store.emplace(&*IncrBase);
        O2.Incremental = &*Store;
      }

      PR.R = analyze(A, O2);

      // Fold the incremental layer back, unless the deadline expired: a
      // wound-down run records only a prefix of its queries, and its txn
      // digests would claim "seen" for work that never completed.
      if (Store && !PR.R.DeadlineExpired) {
        std::lock_guard<std::mutex> Lock(C.SnapMu);
        Store->exportInto(C.IncrSnap);
        if (C.IncrSnap.numRecords() > C.PersistedIncrRecords ||
            C.IncrSnap.numTxns() > C.PersistedIncrTxns) {
          C.Disk.put(incrKey(), C.IncrSnap.serialize());
          C.PersistedIncrRecords = C.IncrSnap.numRecords();
          C.PersistedIncrTxns = C.IncrSnap.numTxns();
        }
      }

      // Persist and share the verdict — unless the deadline expired: that
      // result is a timing-dependent partial answer a rerun might improve
      // on, so it neither enters the disk layer nor fans out to waiters.
      // Disk store happens before the flight completes, so a request
      // joining after completion finds the blob on its first probe.
      if (!PR.R.DeadlineExpired) {
        std::string Blob = serializeResult(PR.R);
        C.Disk.put(verdictKey(PR.Fingerprint), Blob);
        Guard.share(std::move(Blob));
      } else {
        Guard.decline();
      }
      return PR;
    }
  }
};
} // namespace c4

PipelineResult c4::analyzeCached(const AbstractHistory &A,
                                 const AnalyzerOptions &O,
                                 const TypeRegistry & /*Reg*/,
                                 AnalysisCache *Cache) {
  if (!Cache || !Cache->enabled()) {
    PipelineResult PR;
    PR.R = analyze(A, O);
    return PR;
  }
  return PipelineRunner::run(A, O, *Cache);
}

std::string c4::renderStatsJson(const StatsJsonFields &F,
                                const AnalysisResult &R) {
  std::string Json;
  char Buf[256];
  Json += "{\n";
  std::snprintf(Buf, sizeof(Buf), "  \"file\": \"%s\",\n",
                jsonEscape(F.File).c_str());
  Json += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "  \"transactions\": %u,\n  \"events\": %u,\n"
                "  \"frontend_seconds\": %.6f,\n"
                "  \"lex_seconds\": %.6f,\n"
                "  \"parse_seconds\": %.6f,\n"
                "  \"build_seconds\": %.6f,\n",
                F.Transactions, F.Events, F.FrontendSeconds, F.LexSeconds,
                F.ParseSeconds, F.BuildSeconds);
  Json += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "  \"pass_seconds\": %.6f,\n"
                "  \"pass_iterations\": %u,\n"
                "  \"events_before_passes\": %u,\n"
                "  \"events_after_passes\": %u,\n"
                "  \"dead_writes\": %u,\n  \"pruned_branches\": %u,\n"
                "  \"const_props\": %u,\n  \"fresh_promotions\": %u,\n"
                "  \"lint_warnings\": %zu,\n",
                F.PassSeconds, F.PassIterations, F.EventsBefore,
                F.EventsAfter, F.DeadWrites, F.PrunedBranches, F.ConstProps,
                F.FreshPromotions, F.LintWarnings);
  Json += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "  \"serializable\": %s,\n  \"generalized\": %s,\n"
                "  \"fast_proved\": %s,\n  \"violations\": %zu,\n"
                "  \"violations_validated\": %u,\n"
                "  \"violations_unvalidated\": %u,\n"
                "  \"violations_inconclusive\": %u,\n"
                "  \"k_checked\": %u,\n  \"truncated\": %s,\n",
                R.serializable() ? "true" : "false",
                R.Generalized ? "true" : "false",
                R.FastProvedSerializable ? "true" : "false",
                R.Violations.size(), R.validatedViolations(),
                R.unvalidatedViolations(), R.inconclusiveViolations(),
                R.KChecked, R.Truncated ? "true" : "false");
  Json += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "  \"unfoldings_checked\": %u,\n"
                "  \"unfoldings_subsumed\": %u,\n"
                "  \"layouts_filtered\": %u,\n  \"ssg_flagged\": %u,\n"
                "  \"ssg_edges\": %u,\n  \"smt_queries\": %u,\n"
                "  \"smt_refuted\": %u,\n  \"smt_unknown\": %u,\n",
                R.UnfoldingsChecked, R.UnfoldingsSubsumed, R.LayoutsFiltered,
                R.SSGFlagged, R.SSGEdges, R.SmtQueries, R.SMTRefuted,
                R.SMTUnknown);
  Json += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "  \"smt_retries\": %u,\n"
                "  \"rlimit_spent\": %llu,\n"
                "  \"deadline_expired\": %s,\n"
                "  \"unfoldings_deferred\": %u,\n"
                "  \"dfs_budget_exhausted\": %u,\n",
                R.SMTRetries,
                static_cast<unsigned long long>(R.RlimitSpent),
                R.DeadlineExpired ? "true" : "false", R.UnfoldingsDeferred,
                R.DfsBudgetExhausted);
  Json += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "  \"cond_cache_hits\": %llu,\n"
                "  \"cond_cache_misses\": %llu,\n"
                "  \"sat_cache_hits\": %llu,\n"
                "  \"sat_cache_misses\": %llu,\n",
                static_cast<unsigned long long>(R.CondCacheHits),
                static_cast<unsigned long long>(R.CondCacheMisses),
                static_cast<unsigned long long>(R.SatCacheHits),
                static_cast<unsigned long long>(R.SatCacheMisses));
  Json += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "  \"smt_solves\": %u,\n"
                "  \"txn_fingerprint_hits\": %llu,\n"
                "  \"solver_ctx_reuses\": %llu,\n"
                "  \"incremental_seconds\": %.6f,\n"
                "  \"validate_seconds\": %.6f,\n",
                R.SmtSolves,
                static_cast<unsigned long long>(R.TxnFingerprintHits),
                static_cast<unsigned long long>(R.SolverCtxReuses),
                R.IncrementalSeconds, R.ValidateSeconds);
  Json += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "  \"ssg_seconds\": %.6f,\n  \"enum_seconds\": %.6f,\n"
                "  \"smt_seconds\": %.6f,\n  \"backend_seconds\": %.6f\n}\n",
                R.SSGSeconds, R.EnumSeconds, R.SmtSeconds, R.BackendSeconds);
  Json += Buf;
  return Json;
}
