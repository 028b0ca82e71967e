//===- tools/c4-serve.cpp - Persistent C4 analysis service ----------------===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A long-lived analysis service: accepts JSON-lines requests on stdin (the
/// default), a Unix-domain socket, or a TCP socket; analyzes them
/// concurrently on a worker pool; and replies with one JSON line per
/// request carrying the same verdict/stats object `c4-analyze --stats-json`
/// prints. Amortizes across requests everything a one-shot CLI run pays per
/// invocation: process start-up, Z3 context construction (each solving
/// thread keeps one env for the life of the process) and — with
/// --cache-dir — the entire back end for previously seen (program, options)
/// pairs.
///
///   c4-serve [options]
///     --workers <n>          request-level worker threads (0 = hardware
///                            concurrency; default 0)
///     --socket <path>        listen on a Unix-domain socket
///     --tcp <host:port>      listen on a TCP socket (port 0 picks a free
///                            port; the chosen address is printed to
///                            stderr as "listening on HOST:PORT")
///     --max-inflight <n>     admission control: maximum analysis requests
///                            admitted concurrently; excess requests get
///                            an immediate backpressure reply instead of
///                            queueing unboundedly (0 = unlimited;
///                            default 256)
///     --drain-timeout-ms <n> graceful-drain budget after SIGTERM/SIGINT
///                            or the shutdown op (0 = wait forever;
///                            default 30000)
///     --cache-dir <dir>      persistent cross-run cache shared by all
///                            workers (same layout and semantics as
///                            c4-analyze --cache-dir)
///     --incremental-cache <dir>
///                            like --cache-dir, plus the incremental
///                            layer: per-unfolding outcome records (same
///                            semantics as c4-analyze --incremental-cache)
///
/// The socket modes run a single poll(2) event-loop thread (one fd per
/// connection, no thread-per-connection) in front of the worker pool, so
/// thousands of mostly-idle connections cost one poll set, not thousands
/// of threads. Listeners, line framing, reply buffering and the drain
/// signals are the client-connection layer shared with c4-router
/// (support/LineServer.h); this file adds admission control, the worker
/// pool, stdin mode and the stats op. Identical concurrent requests are
/// collapsed by the cache's single-flight layer: one backend run per
/// analysis fingerprint.
///
/// Request object (one per line):
///   {"id": ..., "program": "<c4l source>"}        inline source, or
///   {"id": ..., "file": "<path.c4l>"}             a file the server reads
/// plus optional per-request analyzer options mirroring the c4-analyze
/// flags (docs/cli.md): "max_k", "threads", "rlimit", "rlimit_cap",
/// "retries", "smt_timeout_ms", "deadline_ms", "dfs_budget", and booleans
/// "no_passes", "no_filter", "no_cache", "no_commutativity",
/// "no_absorption", "no_constraints", "no_control_flow", "no_asymmetric",
/// "no_unique". Unlike the CLI, "threads" defaults to 1: request-level
/// parallelism comes from --workers, and multiplying the two
/// oversubscribes. A "threads" above the machine's hardware concurrency is
/// an error reply: the process's solving pool, whose threads each keep a
/// Z3 context for the life of the process, never grows past it, and the
/// value comes from the client.
///
/// Control requests: {"op": "ping"} (answered on the event-loop thread even
/// under full analysis load, so tools/c4-router uses it as its liveness
/// probe), {"op": "stats"} (cache + serving counters, including
/// per-transport accept/close counts so a supervisor can tell an idle
/// worker from a wedged one) and {"op": "shutdown"} (drain outstanding
/// work, reply, exit).
///
/// Reply (one line, completion order — match replies to requests by the
/// echoed "id", not by position):
///   {"id": ..., "ok": true, "cache_hit": <bool>, "stats": {...}}
///   {"id": ..., "ok": false, "error": "<message>"}
/// plus, under overload, the backpressure shape
///   {"id": ..., "ok": false, "error": "overloaded: ...", "overloaded": true}
///
/// Shutdown and drain: SIGTERM/SIGINT (socket modes) or the shutdown op
/// stop accepting new connections, finish and deliver all in-flight work,
/// flush the cache, and exit 0 — via _exit once everything durable is on
/// disk, without joining the request pool behind cancelled analyses still
/// winding down. Past --drain-timeout-ms the drain turns
/// firm: every live request's deadline is tripped (support/Deadline), the
/// analyses wind down to partial-but-sound verdicts, and undeliverable
/// replies are counted as dropped. SIGPIPE is ignored process-wide — a
/// client disconnecting mid-reply costs that client its reply (counted in
/// "replies_dropped"), never the process.
///
/// Exit code: 0 on clean shutdown (stdin EOF, the shutdown op, or a drain
/// signal), 2 on usage or setup errors. Per-request failures are replies,
/// not exits.
///
//===----------------------------------------------------------------------===//

#include "analysis/Pipeline.h"
#include "frontend/Frontend.h"
#include "passes/PassManager.h"
#include "support/Deadline.h"
#include "support/Format.h"
#include "support/LineServer.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>

#include <unistd.h>

using namespace c4;

namespace {

int usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s [--workers N] [--socket PATH] [--tcp HOST:PORT]\n"
               "          [--max-inflight N] [--drain-timeout-ms MS] "
               "[--cache-dir DIR] [--incremental-cache DIR]\n",
               Prog);
  return 2;
}

/// The admission-control backpressure reply: the request was not queued;
/// the client should back off and retry.
std::string overloadReply(const std::string &Id, uint64_t InFlight) {
  return "{\"id\": " + Id + ", \"ok\": false, \"error\": \"overloaded: " +
         std::to_string(InFlight) +
         " requests in flight, retry later\", \"overloaded\": true}";
}

/// Collapses the multi-line stats object into one line (values never
/// contain raw newlines — strings are escaped by the renderer).
std::string oneLine(std::string S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S)
    if (C != '\n')
      Out += C;
  return Out;
}

/// Reads one unsigned option field into \p Out; returns false (with an
/// error message) when present but malformed.
bool readCount(const JsonValue &Req, const char *Key, unsigned &Out,
               std::string &Err) {
  const JsonValue *V = Req.get(Key);
  if (!V)
    return true;
  std::optional<int64_t> I = V->asInt();
  if (!I || *I < 0 || *I > 0xFFFFFFFFll) {
    Err = std::string(Key) + " expects a non-negative integer";
    return false;
  }
  Out = static_cast<unsigned>(*I);
  return true;
}

/// Reads a boolean option field (same contract as readCount).
bool readFlag(const JsonValue &Req, const char *Key, bool &Out,
              std::string &Err) {
  const JsonValue *V = Req.get(Key);
  if (!V)
    return true;
  std::optional<bool> B = V->asBool();
  if (!B) {
    Err = std::string(Key) + " expects a boolean";
    return false;
  }
  Out = *B;
  return true;
}

/// The stats op's reply. \p CC and \p Overloads are the serving
/// counters; stdin mode has none to report.
std::string statsReply(const std::string &Id, AnalysisCache *Cache,
                       const ConnCounters &CC, uint64_t Overloads) {
  DiskCacheStats D = Cache ? Cache->diskStats() : DiskCacheStats{};
  bool Incr = Cache && Cache->incremental();
  char Buf[2048];
  std::snprintf(
      Buf, sizeof(Buf),
      "{\"id\": %s, \"ok\": true, \"cache_enabled\": %s, "
      "\"verdict_hits\": %llu, \"verdict_misses\": %llu, "
      "\"backend_runs\": %llu, \"single_flight_waits\": %llu, "
      "\"disk_hits\": %llu, \"disk_misses\": %llu, "
      "\"disk_corrupt\": %llu, \"disk_stores\": %llu, "
      "\"incremental_enabled\": %s, \"incremental_records\": %zu, "
      "\"incremental_txns\": %zu, "
      "\"connections\": %llu, \"replies_dropped\": %llu, "
      "\"overload_rejects\": %llu, "
      "\"unix_accepts\": %llu, \"unix_closes\": %llu, "
      "\"tcp_accepts\": %llu, \"tcp_closes\": %llu}",
      Id.c_str(), Cache && Cache->enabled() ? "true" : "false",
      static_cast<unsigned long long>(Cache ? Cache->verdictHits() : 0),
      static_cast<unsigned long long>(Cache ? Cache->verdictMisses() : 0),
      static_cast<unsigned long long>(Cache ? Cache->backendRuns() : 0),
      static_cast<unsigned long long>(Cache ? Cache->flightWaits() : 0),
      static_cast<unsigned long long>(D.Hits),
      static_cast<unsigned long long>(D.Misses),
      static_cast<unsigned long long>(D.Corrupt),
      static_cast<unsigned long long>(D.Stores), Incr ? "true" : "false",
      Incr ? Cache->incrRecords() : size_t(0),
      Incr ? Cache->incrTxns() : size_t(0),
      static_cast<unsigned long long>(CC.Connections),
      static_cast<unsigned long long>(CC.RepliesDropped),
      static_cast<unsigned long long>(Overloads),
      static_cast<unsigned long long>(CC.UnixAccepts),
      static_cast<unsigned long long>(CC.UnixCloses),
      static_cast<unsigned long long>(CC.TcpAccepts),
      static_cast<unsigned long long>(CC.TcpCloses));
  return Buf;
}

/// Replies for the cheap control operations (ping / stats / unknown op).
/// Callers intercept "shutdown" before getting here — it needs the serving
/// loop's drain machinery, not a worker.
std::string opReply(const std::string &Op, const std::string &Id,
                    AnalysisCache *Cache, const ConnCounters &CC,
                    uint64_t Overloads) {
  if (Op == "ping")
    return "{\"id\": " + Id + ", \"ok\": true, \"pong\": true}";
  if (Op == "stats")
    return statsReply(Id, Cache, CC, Overloads);
  return errorReply(Id, "unknown op '" + Op + "'");
}

/// Handles one request line end to end; returns the reply line.
/// \p RequestDeadline, when given, is armed from the request's deadline_ms
/// and governs the analysis — the serving loop keeps a handle so graceful
/// drain can trip it (the run then winds down to a partial-but-sound
/// verdict instead of holding up the exit).
std::string handleRequest(const std::string &Line, AnalysisCache *Cache,
                          Deadline *RequestDeadline = nullptr) {
  std::string Err;
  std::optional<JsonValue> Req = parseJson(Line, Err);
  if (!Req)
    return errorReply("null", Err);
  std::string Id = renderId(Req->get("id"));
  if (!Req->asObject())
    return errorReply(Id, "request must be a JSON object");

  // Control operations, stdin mode (the socket loop answers them itself).
  // "shutdown" is caught by serveStdin first; reaching opReply with it
  // reads as an unknown op.
  if (const JsonValue *Op = Req->get("op")) {
    const std::string *Name = Op->asString();
    return Name ? opReply(*Name, Id, Cache, ConnCounters(), 0)
                : errorReply(Id, "op expects a string");
  }

  // Source acquisition: inline program or server-side file.
  std::string Source, Label;
  if (const JsonValue *Prog = Req->get("program")) {
    const std::string *S = Prog->asString();
    if (!S)
      return errorReply(Id, "program expects a string");
    Source = *S;
    Label = "<inline>";
  } else if (const JsonValue *File = Req->get("file")) {
    const std::string *S = File->asString();
    if (!S)
      return errorReply(Id, "file expects a string");
    std::ifstream In(*S);
    if (!In)
      return errorReply(Id, "cannot open " + *S);
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    Source = Buffer.str();
    Label = *S;
  } else {
    return errorReply(Id, "request needs \"program\" or \"file\"");
  }

  // Per-request options (CLI-equivalent defaults, except threads = 1).
  AnalyzerOptions Options;
  Options.DisplayFilter = true;
  Options.UseAtomicSets = true;
  Options.NumThreads = 1;
  bool NoFilter = false, NoPasses = false, NoCache = false;
  bool NoCom = false, NoAbs = false, NoCons = false, NoCf = false,
       NoAsym = false, NoUnique = false;
  unsigned Rlimit = 0, RlimitCap = 0;
  bool HaveRlimit = Req->get("rlimit") != nullptr;
  bool HaveRlimitCap = Req->get("rlimit_cap") != nullptr;
  if (!readCount(*Req, "max_k", Options.MaxK, Err) ||
      !readCount(*Req, "threads", Options.NumThreads, Err) ||
      !readCount(*Req, "rlimit", Rlimit, Err) ||
      !readCount(*Req, "rlimit_cap", RlimitCap, Err) ||
      !readCount(*Req, "retries", Options.Budget.MaxRetries, Err) ||
      !readCount(*Req, "smt_timeout_ms", Options.Budget.WallMs, Err) ||
      !readCount(*Req, "deadline_ms", Options.DeadlineMs, Err) ||
      !readCount(*Req, "dfs_budget", Options.LayoutDfsBudget, Err) ||
      !readFlag(*Req, "no_filter", NoFilter, Err) ||
      !readFlag(*Req, "no_passes", NoPasses, Err) ||
      !readFlag(*Req, "no_cache", NoCache, Err) ||
      !readFlag(*Req, "no_commutativity", NoCom, Err) ||
      !readFlag(*Req, "no_absorption", NoAbs, Err) ||
      !readFlag(*Req, "no_constraints", NoCons, Err) ||
      !readFlag(*Req, "no_control_flow", NoCf, Err) ||
      !readFlag(*Req, "no_asymmetric", NoAsym, Err) ||
      !readFlag(*Req, "no_unique", NoUnique, Err))
    return errorReply(Id, Err);
  if (Options.MaxK < 1)
    return errorReply(Id, "max_k must be at least 1");
  static const unsigned MaxThreads =
      std::max(1u, std::thread::hardware_concurrency());
  if (Options.NumThreads > MaxThreads)
    return errorReply(Id, "threads must be at most " +
                              std::to_string(MaxThreads) +
                              " (the hardware concurrency)");
  if (HaveRlimit)
    Options.Budget.Rlimit = Rlimit;
  if (HaveRlimitCap)
    Options.Budget.RlimitCap = RlimitCap;
  if (NoFilter) {
    Options.DisplayFilter = false;
    Options.UseAtomicSets = false;
  }
  Options.UseOracle = !NoCache;
  Options.Features.Commutativity = !NoCom;
  Options.Features.Absorption = !NoAbs;
  Options.Features.Constraints = !NoCons;
  Options.Features.ControlFlow = !NoCf;
  Options.Features.AsymmetricAntiDeps = !NoAsym;
  Options.Features.UniqueValues = !NoUnique;

  // Per-request deadline: DeadlineMs still describes the budget (it is part
  // of the verdict fingerprint); the externally owned object lets the
  // serving loop cancel the run during a firm drain.
  if (RequestDeadline) {
    RequestDeadline->armIn(Options.DeadlineMs);
    Options.ExternalDeadline = RequestDeadline;
  }

  CompileResult Compiled = compileC4L(Source);
  if (!Compiled.ok())
    return errorReply(Id, Compiled.Error);
  CompiledProgram &P = *Compiled.Program;

  PassOptions PassOpts;
  PassOpts.Reduce = !NoPasses;
  PassOpts.UniqueValues = Options.Features.UniqueValues;
  PassOpts.Lint = false; // lint is a CLI concern; see c4-analyze --lint
  PassResult Passes;
  if (PassOpts.Reduce) {
    Passes = runPasses(P, PassOpts, &Source);
    if (!Passes.Ok)
      return errorReply(Id, Passes.Error);
  }
  Options.AtomicSets = P.AtomicSets;

  PipelineResult PR =
      analyzeCached(*P.History, Options, *P.Registry, Cache);

  StatsJsonFields F;
  F.File = Label;
  F.Transactions = P.History->numTxns();
  F.Events = P.History->numStoreEvents();
  F.FrontendSeconds = P.FrontendSeconds;
  F.LexSeconds = P.LexSeconds;
  F.ParseSeconds = P.ParseSeconds;
  F.BuildSeconds = P.BuildSeconds;
  F.PassSeconds = Passes.Stats.Seconds;
  F.PassIterations = Passes.Stats.Iterations;
  F.EventsBefore = Passes.Stats.EventsBefore;
  F.EventsAfter = Passes.Stats.EventsAfter;
  F.DeadWrites = Passes.Stats.DeadWrites;
  F.PrunedBranches = Passes.Stats.PrunedBranches;
  F.ConstProps = Passes.Stats.ConstProps;
  F.FreshPromotions = Passes.Stats.FreshPromotions;
  F.LintWarnings = Passes.Lints.size();

  return "{\"id\": " + Id + ", \"ok\": true, \"cache_hit\": " +
         (PR.CacheHit ? "true" : "false") +
         ", \"stats\": " + oneLine(renderStatsJson(F, PR.R)) + "}";
}

/// True when \p Line is a shutdown control request. Parsed cheaply and
/// answered by the serving loop itself (the pool drains first).
bool isShutdown(const std::string &Line, std::string &IdOut) {
  std::string Err;
  std::optional<JsonValue> Req = parseJson(Line, Err);
  if (!Req)
    return false;
  const JsonValue *Op = Req->get("op");
  const std::string *Name = Op ? Op->asString() : nullptr;
  if (!Name || *Name != "shutdown")
    return false;
  IdOut = renderId(Req->get("id"));
  return true;
}

/// Serves the stdin/stdout JSON-lines session. Returns the exit code.
int serveStdin(unsigned Workers, AnalysisCache *Cache) {
  std::mutex OutMu;
  bool SawShutdown = false;
  {
    ThreadPool Pool(Workers);
    std::string Line;
    while (std::getline(std::cin, Line)) {
      if (Line.empty())
        continue;
      std::string ShutdownId;
      if (isShutdown(Line, ShutdownId)) {
        SawShutdown = true;
        break;
      }
      Pool.submit([Line, Cache, &OutMu] {
        std::string Reply = handleRequest(Line, Cache);
        std::lock_guard<std::mutex> Lock(OutMu);
        std::fputs(Reply.c_str(), stdout);
        std::fputc('\n', stdout);
        std::fflush(stdout);
      });
    }
    // ~ThreadPool drains the queue: every accepted request is answered.
  }
  if (Cache)
    Cache->flush();
  if (SawShutdown)
    std::printf("{\"id\": null, \"ok\": true, \"shutdown\": true}\n");
  return 0;
}

//===----------------------------------------------------------------------===//
// The socket serving tier: poll event loop + worker pool.
//===----------------------------------------------------------------------===//

/// Grace after a firm drain cancels in-flight work: how long the loop keeps
/// delivering the wind-down replies before force-closing.
constexpr unsigned kDrainGraceMs = 2000;

class Server : public LineServer {
public:
  Server(unsigned Workers, unsigned MaxInflightArg, unsigned DrainMsArg,
         AnalysisCache *CacheArg)
      : LineServer("c4-serve"), MaxInflight(MaxInflightArg),
        DrainTimeoutMs(DrainMsArg), Cache(CacheArg), Pool(Workers) {}

  int run() {
    start();
    bool CancelIssued = false;
    Deadline FlushDeadline;
    for (;;) {
      int Timeout = -1;
      if (Draining) {
        // Drain completion: all admitted work delivered and every reply
        // byte flushed. Idle connections do not block the drain — they
        // are closed on exit.
        if (!InFlight && !unsentReplies())
          break;
        if (!DrainDeadline.expired()) {
          unsigned Left = DrainDeadline.remainingMs(3600u * 1000);
          Timeout = static_cast<int>(Left ? Left : 1);
        } else {
          if (!CancelIssued) {
            // Firm drain: trip every live request's deadline; analyses
            // wind down cooperatively to partial-but-sound verdicts and
            // their replies still get delivered below.
            for (auto &[Seq, DL] : LiveDeadlines)
              DL->cancel();
            CancelIssued = true;
            FlushDeadline.armIn(kDrainGraceMs);
            std::fprintf(stderr,
                         "c4-serve: drain timeout, cancelling %zu in-flight "
                         "request(s)\n",
                         LiveDeadlines.size());
          }
          if (FlushDeadline.expired())
            break; // whatever is still undelivered is dropped below
          Timeout = 100;
        }
      }
      if (!Loop.runOnce(Timeout))
        break;
    }

    // Close every remaining connection. On the clean path all buffers are
    // flushed and nothing is in flight, so nothing is counted as dropped.
    closeAll();
    Counters.RepliesDropped += InFlight; // deliveries that will never run
    if (Cache)
      Cache->flush();
    // Everything durable is on disk and every deliverable byte is out —
    // skip process teardown. Joining the pool would serialize behind any
    // cancelled task still winding down (up to one solver check each),
    // which can blow through supervisor kill grace periods. Disk-cache
    // writes are atomic (tmp + rename), so exiting over a mid-write
    // cancelled task cannot corrupt the store.
    ::_exit(0);
  }

private:
  /// Admission control, then the pool; the reply comes back on the loop
  /// thread through reply().
  void onRequest(Conn &C, const JsonValue &, const std::string &Id,
                 const std::string &Line) override {
    if (MaxInflight && InFlight >= MaxInflight) {
      ++Overloads;
      enqueue(C, overloadReply(Id, InFlight));
      return;
    }
    uint64_t Seq = ++NextSeq;
    auto DL = std::make_shared<Deadline>();
    LiveDeadlines.emplace(Seq, DL);
    ++InFlight;
    ++C.Pending;
    uint64_t ConnId = C.Id;
    Pool.submit([this, Line, ConnId, Seq, DL] {
      std::string Reply = handleRequest(Line, Cache, DL.get());
      Loop.post([this, ConnId, Seq, Reply = std::move(Reply)] {
        LiveDeadlines.erase(Seq);
        --InFlight;
        // A vanished peer loses this reply, not the result: it sits in
        // the cache for the retry.
        reply(ConnId, Reply);
      });
    });
  }

  std::string controlReply(const std::string &Op,
                           const std::string &Id) override {
    return opReply(Op, Id, Cache, Counters, Overloads);
  }

  uint64_t inFlight() const override { return InFlight; }

  void onDrain() override { DrainDeadline.armIn(DrainTimeoutMs); }

  unsigned MaxInflight;
  unsigned DrainTimeoutMs;
  AnalysisCache *Cache;

  std::unordered_map<uint64_t, std::shared_ptr<Deadline>> LiveDeadlines;
  uint64_t NextSeq = 0;
  uint64_t InFlight = 0;  ///< admitted analyses not yet delivered
  uint64_t Overloads = 0; ///< backpressure rejections
  Deadline DrainDeadline;

  // Declared last: destroyed first, so in-flight tasks may still post to
  // the (stopped but alive) loop while the pool drains.
  ThreadPool Pool;
};

} // namespace

int main(int Argc, char **Argv) {
  // A client disconnecting mid-reply must cost that client its reply, not
  // the process (and every other client's in-flight work).
  std::signal(SIGPIPE, SIG_IGN);

  unsigned Workers = 0;
  unsigned MaxInflight = 256;
  unsigned DrainTimeoutMs = 30000;
  const char *SocketPath = nullptr;
  const char *TcpSpec = nullptr;
  const char *CacheDir = nullptr;
  bool IncrementalCache = false;
  for (int I = 1; I != Argc; ++I) {
    const char *Arg = Argv[I];
    if (!std::strcmp(Arg, "--workers")) {
      if (I + 1 == Argc || !parseCount(Arg, Argv[++I], Workers))
        return usage(Argv[0]);
    } else if (!std::strcmp(Arg, "--max-inflight")) {
      if (I + 1 == Argc || !parseCount(Arg, Argv[++I], MaxInflight))
        return usage(Argv[0]);
    } else if (!std::strcmp(Arg, "--drain-timeout-ms")) {
      if (I + 1 == Argc || !parseCount(Arg, Argv[++I], DrainTimeoutMs))
        return usage(Argv[0]);
    } else if (!std::strcmp(Arg, "--socket")) {
      if (I + 1 == Argc)
        return usage(Argv[0]);
      SocketPath = Argv[++I];
    } else if (!std::strcmp(Arg, "--tcp")) {
      if (I + 1 == Argc)
        return usage(Argv[0]);
      TcpSpec = Argv[++I];
    } else if (!std::strcmp(Arg, "--cache-dir")) {
      if (I + 1 == Argc)
        return usage(Argv[0]);
      CacheDir = Argv[++I];
    } else if (!std::strcmp(Arg, "--incremental-cache")) {
      if (I + 1 == Argc)
        return usage(Argv[0]);
      CacheDir = Argv[++I];
      IncrementalCache = true;
    } else {
      return usage(Argv[0]);
    }
  }
  if (Workers == 0) {
    Workers = std::thread::hardware_concurrency();
    if (Workers == 0)
      Workers = 1;
  }

  std::unique_ptr<AnalysisCache> Cache;
  if (CacheDir) {
    Cache = std::make_unique<AnalysisCache>(CacheDir, IncrementalCache);
    if (!Cache->enabled())
      std::fprintf(stderr,
                   "warning: cannot open cache directory %s; serving cold\n",
                   CacheDir);
  }

  if (SocketPath || TcpSpec) {
    Server S(Workers, MaxInflight, DrainTimeoutMs, Cache.get());
    if (!S.ok()) {
      std::fprintf(stderr, "error: cannot set up the event loop\n");
      return 2;
    }
    if (SocketPath && !S.listenUnix(SocketPath))
      return 2;
    if (TcpSpec && !S.listenTcp(TcpSpec))
      return 2;
    return S.run();
  }
  return serveStdin(Workers, Cache.get());
}
