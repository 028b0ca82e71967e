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
/// invocation: process start-up, Z3 context construction (one env per
/// worker thread, reused) and — with --cache-dir — the entire back end for
/// previously seen (program, options) pairs.
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
/// of threads. Identical concurrent requests are collapsed by the cache's
/// single-flight layer: one backend run per analysis fingerprint.
///
/// Request object (one per line):
///   {"id": ..., "program": "<c4l source>"}        inline source, or
///   {"id": ..., "file": "<path.c4l>"}             a file the server reads
/// plus optional per-request analyzer options mirroring the c4-analyze
/// flags (docs/cli.md): "max_k", "threads", "rlimit", "rlimit_cap",
/// "retries", "smt_timeout_ms", "deadline_ms", "dfs_budget", and booleans
/// "no_passes", "no_filter", "no_cache", "no_commutativity",
/// "no_absorption", "no_constraints", "no_control_flow", "no_asymmetric",
/// "no_unique", "no_incremental". Unlike the CLI, "threads" defaults to 1:
/// request-level parallelism comes from --workers, and multiplying the two
/// oversubscribes.
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
/// disk, because tearing down the reused per-thread Z3 environments can
/// cost a minute of CPU after a long soak. Past --drain-timeout-ms the drain turns
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
#include "support/EventLoop.h"
#include "support/Json.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <cerrno>
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
#include <vector>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
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

bool parseCount(const char *Flag, const char *Text, unsigned &Out) {
  if (!Text || !*Text || *Text == '-' || *Text == '+') {
    std::fprintf(stderr, "error: %s expects a non-negative integer, got '%s'\n",
                 Flag, Text ? Text : "");
    return false;
  }
  errno = 0;
  char *End = nullptr;
  unsigned long V = std::strtoul(Text, &End, 10);
  if (errno == ERANGE || *End != '\0' || V > 0xFFFFFFFFul) {
    std::fprintf(stderr, "error: %s expects a non-negative integer, got '%s'\n",
                 Flag, Text);
    return false;
  }
  Out = static_cast<unsigned>(V);
  return true;
}

/// Serving-layer counters surfaced by the stats op next to the cache
/// counters. Atomics: the loop thread writes, stdin-mode pool workers read.
struct ServerCounters {
  std::atomic<uint64_t> Connections{0};    ///< connections accepted
  std::atomic<uint64_t> DroppedReplies{0}; ///< replies a dead peer never got
  std::atomic<uint64_t> Overloads{0};      ///< backpressure rejections
  /// Per-transport accept/close counts. A supervisor polling stats can
  /// distinguish an idle worker (accepts keep advancing) from a wedged one
  /// (accepts frozen while its peers' move) without guessing from totals.
  std::atomic<uint64_t> UnixAccepts{0}, UnixCloses{0};
  std::atomic<uint64_t> TcpAccepts{0}, TcpCloses{0};
};

/// Renders a request id for echoing. Only strings and integers are
/// preserved; anything else (or a missing id) echoes as null.
std::string renderId(const JsonValue *Id) {
  if (Id) {
    if (const std::string *S = Id->asString())
      return "\"" + jsonEscape(*S) + "\"";
    if (std::optional<int64_t> I = Id->asInt())
      return std::to_string(*I);
  }
  return "null";
}

std::string errorReply(const std::string &Id, const std::string &Msg) {
  return "{\"id\": " + Id + ", \"ok\": false, \"error\": \"" +
         jsonEscape(Msg) + "\"}";
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

std::string statsReply(const std::string &Id, AnalysisCache *Cache,
                       const ServerCounters &SC) {
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
      static_cast<unsigned long long>(SC.Connections.load()),
      static_cast<unsigned long long>(SC.DroppedReplies.load()),
      static_cast<unsigned long long>(SC.Overloads.load()),
      static_cast<unsigned long long>(SC.UnixAccepts.load()),
      static_cast<unsigned long long>(SC.UnixCloses.load()),
      static_cast<unsigned long long>(SC.TcpAccepts.load()),
      static_cast<unsigned long long>(SC.TcpCloses.load()));
  return Buf;
}

/// Replies for the cheap control operations (ping / stats / unknown op).
/// Callers intercept "shutdown" before getting here — it needs the serving
/// loop's drain machinery, not a worker.
std::string controlReply(const JsonValue &Req, const std::string &Id,
                         AnalysisCache *Cache, const ServerCounters &SC) {
  const JsonValue *Op = Req.get("op");
  const std::string *Name = Op ? Op->asString() : nullptr;
  if (!Name)
    return errorReply(Id, "op expects a string");
  if (*Name == "ping")
    return "{\"id\": " + Id + ", \"ok\": true, \"pong\": true}";
  if (*Name == "stats")
    return statsReply(Id, Cache, SC);
  return errorReply(Id, "unknown op '" + *Name + "'");
}

/// One Z3 environment per pool thread, reused across the requests the
/// thread serves (context construction costs more than a typical small
/// solve). Sound because AnalyzerOptions::ReuseEnv is only handed to the
/// run executing on this thread, and per-query name generations isolate
/// queries from each other.
thread_local std::unique_ptr<Z3Env> WorkerEnv;

/// Handles one request line end to end; returns the reply line.
/// \p RequestDeadline, when given, is armed from the request's deadline_ms
/// and governs the analysis — the serving loop keeps a handle so graceful
/// drain can trip it (the run then winds down to a partial-but-sound
/// verdict instead of holding up the exit).
std::string handleRequest(const std::string &Line, AnalysisCache *Cache,
                          ServerCounters &SC,
                          Deadline *RequestDeadline = nullptr) {
  std::string Err;
  std::optional<JsonValue> Req = parseJson(Line, Err);
  if (!Req)
    return errorReply("null", Err);
  std::string Id = renderId(Req->get("id"));
  if (!Req->asObject())
    return errorReply(Id, "request must be a JSON object");

  // Control operations ("shutdown" is interpreted by the serving loops;
  // reaching controlReply with it means it arrived somewhere unexpected
  // and reads as an unknown op — the loops catch it first).
  if (Req->get("op"))
    return controlReply(*Req, Id, Cache, SC);

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
       NoAsym = false, NoUnique = false, NoIncremental = false;
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
      !readFlag(*Req, "no_unique", NoUnique, Err) ||
      !readFlag(*Req, "no_incremental", NoIncremental, Err))
    return errorReply(Id, Err);
  if (Options.MaxK < 1)
    return errorReply(Id, "max_k must be at least 1");
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
  Options.UseIncremental = !NoIncremental;

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

  if (!WorkerEnv)
    WorkerEnv = std::make_unique<Z3Env>();
  Options.ReuseEnv = WorkerEnv.get();

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
int serveStdin(unsigned Workers, AnalysisCache *Cache,
               ServerCounters &Counters) {
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
      Pool.submit([Line, Cache, &OutMu, &Counters] {
        std::string Reply = handleRequest(Line, Cache, Counters);
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

/// Hostile-client guard: a request line may not exceed this many bytes.
constexpr size_t kMaxLineBytes = 32u << 20;
/// Grace after a firm drain cancels in-flight work: how long the loop keeps
/// delivering the wind-down replies before force-closing.
constexpr unsigned kDrainGraceMs = 2000;

/// Write end of the stop-signal self-pipe. A one-byte write is the only
/// async-signal-safe way to hand SIGTERM to the event loop.
std::atomic<int> StopSignalFd{-1};

extern "C" void onStopSignal(int) {
  int Fd = StopSignalFd.load(std::memory_order_relaxed);
  if (Fd >= 0) {
    char B = 1;
    ssize_t N = ::write(Fd, &B, 1);
    (void)N;
  }
}

/// One client connection's loop-thread state. Replies buffer in WriteBuf
/// (WriteOff marks the sent prefix) and drain as the peer accepts them;
/// a connection with outstanding requests survives read-EOF so completed
/// analyses still reach a half-closed but reading peer.
struct Conn {
  int Fd = -1;
  uint64_t Id = 0;
  bool Tcp = false; ///< which transport accepted this connection
  std::string ReadBuf;
  std::string WriteBuf;
  size_t WriteOff = 0;
  unsigned Pending = 0; ///< submitted analyses not yet delivered
  bool Eof = false;     ///< peer closed its write side (or poisoned input)
  bool CloseWhenFlushed = false;
  bool ShutdownWanted = false, ShutdownAcked = false;
  std::string ShutdownId;

  size_t unsent() const { return WriteBuf.size() - WriteOff; }
};

class Server {
public:
  Server(unsigned Workers, unsigned MaxInflightArg, unsigned DrainMsArg,
         AnalysisCache *CacheArg, ServerCounters &CountersArg)
      : MaxInflight(MaxInflightArg), DrainTimeoutMs(DrainMsArg),
        Cache(CacheArg), Counters(CountersArg), Pool(Workers) {}

  ~Server() {
    StopSignalFd.store(-1);
    if (SigPipe[0] >= 0)
      ::close(SigPipe[0]);
    if (SigPipe[1] >= 0)
      ::close(SigPipe[1]);
  }

  bool ok() const { return Loop.ok(); }

  bool listenUnix(const std::string &Path) {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (Fd < 0) {
      std::fprintf(stderr, "error: socket: %s\n", std::strerror(errno));
      return false;
    }
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    if (Path.size() >= sizeof(Addr.sun_path)) {
      std::fprintf(stderr, "error: socket path too long\n");
      ::close(Fd);
      return false;
    }
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
    ::unlink(Path.c_str()); // stale socket from a previous run
    if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
        ::listen(Fd, 1024) < 0) {
      std::fprintf(stderr, "error: cannot listen on %s: %s\n", Path.c_str(),
                   std::strerror(errno));
      ::close(Fd);
      return false;
    }
    UnixPath = Path;
    Listeners.push_back({Fd, /*Tcp=*/false});
    std::fprintf(stderr, "c4-serve: listening on %s\n", Path.c_str());
    return true;
  }

  /// \p Spec is HOST:PORT; port 0 lets the kernel pick (the bound address
  /// is printed, which is how harnesses discover the port).
  bool listenTcp(const std::string &Spec) {
    size_t Colon = Spec.rfind(':');
    if (Colon == std::string::npos) {
      std::fprintf(stderr, "error: --tcp expects HOST:PORT, got '%s'\n",
                   Spec.c_str());
      return false;
    }
    std::string Host = Spec.substr(0, Colon);
    std::string Port = Spec.substr(Colon + 1);
    if (Host.empty())
      Host = "127.0.0.1";

    addrinfo Hints;
    std::memset(&Hints, 0, sizeof(Hints));
    Hints.ai_family = AF_UNSPEC;
    Hints.ai_socktype = SOCK_STREAM;
    Hints.ai_flags = AI_PASSIVE | AI_NUMERICSERV;
    addrinfo *Res = nullptr;
    int Rc = ::getaddrinfo(Host.c_str(), Port.c_str(), &Hints, &Res);
    if (Rc != 0) {
      std::fprintf(stderr, "error: cannot resolve %s: %s\n", Spec.c_str(),
                   ::gai_strerror(Rc));
      return false;
    }
    int Fd = -1;
    for (addrinfo *AI = Res; AI; AI = AI->ai_next) {
      Fd = ::socket(AI->ai_family, AI->ai_socktype | SOCK_NONBLOCK | SOCK_CLOEXEC,
                    AI->ai_protocol);
      if (Fd < 0)
        continue;
      int One = 1;
      ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
      if (::bind(Fd, AI->ai_addr, AI->ai_addrlen) == 0 &&
          ::listen(Fd, 1024) == 0)
        break;
      ::close(Fd);
      Fd = -1;
    }
    ::freeaddrinfo(Res);
    if (Fd < 0) {
      std::fprintf(stderr, "error: cannot listen on %s: %s\n", Spec.c_str(),
                   std::strerror(errno));
      return false;
    }

    sockaddr_storage Bound;
    socklen_t Len = sizeof(Bound);
    char HostBuf[NI_MAXHOST] = "?", PortBuf[NI_MAXSERV] = "?";
    if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Bound), &Len) == 0)
      ::getnameinfo(reinterpret_cast<sockaddr *>(&Bound), Len, HostBuf,
                    sizeof(HostBuf), PortBuf, sizeof(PortBuf),
                    NI_NUMERICHOST | NI_NUMERICSERV);
    Listeners.push_back({Fd, /*Tcp=*/true});
    std::fprintf(stderr, "c4-serve: listening on %s:%s\n", HostBuf, PortBuf);
    return true;
  }

  int run() {
    // Stop-signal plumbing: SIGTERM/SIGINT write one byte; the loop reads
    // it and starts the drain. No SA_RESTART — poll() must wake.
    if (::pipe(SigPipe) == 0) {
      for (int Fd : SigPipe)
        ::fcntl(Fd, F_SETFL, ::fcntl(Fd, F_GETFL) | O_NONBLOCK);
      StopSignalFd.store(SigPipe[1]);
      struct sigaction SA;
      std::memset(&SA, 0, sizeof(SA));
      SA.sa_handler = onStopSignal;
      ::sigemptyset(&SA.sa_mask);
      ::sigaction(SIGTERM, &SA, nullptr);
      ::sigaction(SIGINT, &SA, nullptr);
      Loop.add(SigPipe[0], EventLoop::Read, [this](unsigned) {
        char Buf[64];
        while (::read(SigPipe[0], Buf, sizeof(Buf)) > 0) {
        }
        startDrain("signal");
      });
    }
    for (const Listener &L : Listeners)
      Loop.add(L.Fd, EventLoop::Read,
               [this, L](unsigned) { acceptReady(L.Fd, L.Tcp); });

    bool CancelIssued = false;
    Deadline FlushDeadline;
    for (;;) {
      int Timeout = -1;
      if (Draining) {
        if (drained())
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
    while (!Conns.empty())
      closeConn(*Conns.begin()->second, /*CountDrops=*/true);
    Counters.DroppedReplies += InFlight; // deliveries that will never run
    for (const Listener &L : Listeners)
      ::close(L.Fd);
    if (!UnixPath.empty())
      ::unlink(UnixPath.c_str());
    if (Cache)
      Cache->flush();
    // Everything durable is on disk and every deliverable byte is out —
    // skip process teardown. Joining the pool would serialize behind any
    // cancelled task still winding down, and each worker thread's reused
    // Z3 environment frees its accumulated AST heap one node at a time on
    // destruction: after a long soak that is a minute of pure CPU between
    // "drained" and "exited", which blows straight through supervisor
    // kill grace periods. Disk-cache writes are atomic (tmp + rename), so
    // exiting over a mid-write cancelled task cannot corrupt the store.
    ::_exit(0);
  }

private:
  void startDrain(const char *Why) {
    if (Draining)
      return;
    Draining = true;
    DrainDeadline.armIn(DrainTimeoutMs);
    for (const Listener &L : Listeners) {
      Loop.remove(L.Fd);
      ::close(L.Fd);
    }
    Listeners.clear();
    if (!UnixPath.empty()) {
      ::unlink(UnixPath.c_str());
      UnixPath.clear();
    }
    std::fprintf(stderr,
                 "c4-serve: draining (%s): %llu in flight, %zu connection(s)\n",
                 Why, static_cast<unsigned long long>(InFlight), Conns.size());
  }

  /// Drain completion: all admitted work delivered and every reply byte
  /// flushed. Idle connections do not block the drain — they are closed on
  /// exit.
  bool drained() const {
    if (InFlight)
      return false;
    for (const auto &[Id, C] : Conns)
      if (C->unsent())
        return false;
    return true;
  }

  void acceptReady(int ListenFd, bool Tcp) {
    for (;;) {
      int Fd = ::accept4(ListenFd, nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (Fd < 0) {
        if (errno == EINTR)
          continue;
        return; // EAGAIN or a transient error; poll re-arms
      }
      int One = 1; // harmless ENOPROTOOPT on AF_UNIX
      ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
      ++Counters.Connections;
      ++(Tcp ? Counters.TcpAccepts : Counters.UnixAccepts);
      uint64_t Id = ++NextConnId;
      auto C = std::make_unique<Conn>();
      C->Fd = Fd;
      C->Id = Id;
      C->Tcp = Tcp;
      Conns.emplace(Id, std::move(C));
      Loop.add(Fd, EventLoop::Read,
               [this, Id](unsigned Ev) { connEvent(Id, Ev); });
    }
  }

  void connEvent(uint64_t Id, unsigned Ev) {
    auto It = Conns.find(Id);
    if (It == Conns.end())
      return;
    Conn &C = *It->second;
    if (Ev & EventLoop::Error) {
      closeConn(C, /*CountDrops=*/true);
      return;
    }
    if (Ev & EventLoop::Write)
      if (!flushConn(C))
        return;
    if (Ev & EventLoop::Read)
      readable(C);
  }

  void readable(Conn &C) {
    char Buf[65536];
    for (;;) {
      ssize_t N = ::read(C.Fd, Buf, sizeof(Buf));
      if (N > 0) {
        C.ReadBuf.append(Buf, static_cast<size_t>(N));
        continue;
      }
      if (N == 0) {
        C.Eof = true;
        break;
      }
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        break;
      closeConn(C, /*CountDrops=*/true);
      return;
    }

    if (C.ReadBuf.size() > kMaxLineBytes &&
        C.ReadBuf.find('\n') == std::string::npos) {
      // Hostile or broken client: an unbounded un-terminated line. Answer
      // once and stop reading; the connection closes after the flush.
      enqueue(C, errorReply("null", "request line exceeds " +
                                        std::to_string(kMaxLineBytes) +
                                        " bytes"));
      C.Eof = true;
      C.CloseWhenFlushed = true;
      flushConn(C);
      return;
    }

    size_t Start = 0;
    for (;;) {
      size_t Nl = C.ReadBuf.find('\n', Start);
      if (Nl == std::string::npos)
        break;
      std::string Line = C.ReadBuf.substr(Start, Nl - Start);
      Start = Nl + 1;
      while (!Line.empty() && Line.back() == '\r')
        Line.pop_back();
      if (!Line.empty())
        processLine(C, Line);
    }
    C.ReadBuf.erase(0, Start);
    // A half-written trailing line at EOF is discarded: there is no peer
    // left to answer and no newline to delimit a request.
    if (C.Eof)
      C.ReadBuf.clear();

    if (!flushConn(C))
      return;
    maybeFinishConn(C);
  }

  /// Routes one request line: control ops inline (they stay responsive
  /// under full load), analyses through admission control to the pool.
  void processLine(Conn &C, const std::string &Line) {
    std::string Err;
    std::optional<JsonValue> Req = parseJson(Line, Err);
    if (!Req) {
      enqueue(C, errorReply("null", Err));
      return;
    }
    std::string Id = renderId(Req->get("id"));
    if (!Req->asObject()) {
      enqueue(C, errorReply(Id, "request must be a JSON object"));
      return;
    }
    if (const JsonValue *Op = Req->get("op")) {
      const std::string *Name = Op->asString();
      if (Name && *Name == "shutdown") {
        C.ShutdownWanted = true;
        C.ShutdownId = Id;
        maybeAckShutdown(C);
        return;
      }
      enqueue(C, controlReply(*Req, Id, Cache, Counters));
      return;
    }
    if (MaxInflight && InFlight >= MaxInflight) {
      ++Counters.Overloads;
      enqueue(C, overloadReply(Id, InFlight));
      return;
    }
    submitAnalysis(C, Line);
  }

  void submitAnalysis(Conn &C, const std::string &Line) {
    uint64_t Seq = ++NextSeq;
    auto DL = std::make_shared<Deadline>();
    LiveDeadlines.emplace(Seq, DL);
    ++InFlight;
    ++C.Pending;
    uint64_t ConnId = C.Id;
    AnalysisCache *Ca = Cache;
    ServerCounters *Co = &Counters;
    Pool.submit([this, Line, ConnId, Seq, DL, Ca, Co] {
      std::string Reply = handleRequest(Line, Ca, *Co, DL.get());
      Loop.post([this, ConnId, Seq, Reply = std::move(Reply)] {
        deliver(Seq, ConnId, Reply);
      });
    });
  }

  /// Loop-thread continuation of a completed analysis.
  void deliver(uint64_t Seq, uint64_t ConnId, const std::string &Reply) {
    LiveDeadlines.erase(Seq);
    --InFlight;
    auto It = Conns.find(ConnId);
    if (It == Conns.end()) {
      // The peer vanished while we worked; the result is not lost (it sits
      // in the cache for the retry) but this reply is.
      ++Counters.DroppedReplies;
      return;
    }
    Conn &C = *It->second;
    --C.Pending;
    enqueue(C, Reply);
    maybeAckShutdown(C);
    if (!flushConn(C))
      return;
    maybeFinishConn(C);
  }

  /// The shutdown op acks only after this connection's outstanding work is
  /// delivered, then the whole server drains.
  void maybeAckShutdown(Conn &C) {
    if (!C.ShutdownWanted || C.ShutdownAcked || C.Pending != 0)
      return;
    C.ShutdownAcked = true;
    C.CloseWhenFlushed = true;
    enqueue(C, "{\"id\": " + C.ShutdownId + ", \"ok\": true, "
                                            "\"shutdown\": true}");
    startDrain("shutdown op");
  }

  void enqueue(Conn &C, const std::string &Reply) {
    C.WriteBuf += Reply;
    C.WriteBuf += '\n';
  }

  /// Flushes buffered replies. Retries EINTR, parks on EAGAIN (POLLOUT
  /// re-arms), and treats only real peer errors as fatal — in which case
  /// every undelivered reply is counted dropped. Returns false when the
  /// connection was closed.
  bool flushConn(Conn &C) {
    while (C.WriteOff < C.WriteBuf.size()) {
      ssize_t N = ::send(C.Fd, C.WriteBuf.data() + C.WriteOff,
                         C.WriteBuf.size() - C.WriteOff, MSG_NOSIGNAL);
      if (N > 0) {
        C.WriteOff += static_cast<size_t>(N);
        continue;
      }
      if (N < 0 && errno == EINTR)
        continue;
      if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        Loop.setInterest(C.Fd, (C.Eof ? 0u : EventLoop::Read) |
                                   EventLoop::Write);
        return true;
      }
      closeConn(C, /*CountDrops=*/true);
      return false;
    }
    if (C.WriteOff) {
      C.WriteBuf.clear();
      C.WriteOff = 0;
    }
    Loop.setInterest(C.Fd, C.Eof ? 0u : EventLoop::Read);
    if (C.CloseWhenFlushed) {
      closeConn(C, /*CountDrops=*/false);
      return false;
    }
    return true;
  }

  void maybeFinishConn(Conn &C) {
    if (C.Eof && C.Pending == 0 && C.unsent() == 0)
      closeConn(C, /*CountDrops=*/false);
  }

  void closeConn(Conn &C, bool CountDrops) {
    if (CountDrops) {
      uint64_t Drops = 0;
      for (size_t I = C.WriteOff; I < C.WriteBuf.size(); ++I)
        Drops += C.WriteBuf[I] == '\n';
      Counters.DroppedReplies += Drops;
    }
    ++(C.Tcp ? Counters.TcpCloses : Counters.UnixCloses);
    Loop.remove(C.Fd);
    ::close(C.Fd);
    Conns.erase(C.Id); // invalidates C
  }

  unsigned MaxInflight;
  unsigned DrainTimeoutMs;
  AnalysisCache *Cache;
  ServerCounters &Counters;

  struct Listener {
    int Fd;
    bool Tcp;
  };

  EventLoop Loop;
  std::vector<Listener> Listeners;
  std::string UnixPath;
  int SigPipe[2] = {-1, -1};

  std::unordered_map<uint64_t, std::unique_ptr<Conn>> Conns;
  std::unordered_map<uint64_t, std::shared_ptr<Deadline>> LiveDeadlines;
  uint64_t NextConnId = 0, NextSeq = 0;
  uint64_t InFlight = 0; ///< admitted analyses not yet delivered
  bool Draining = false;
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

  static ServerCounters Counters;
  if (SocketPath || TcpSpec) {
    Server S(Workers, MaxInflight, DrainTimeoutMs, Cache.get(), Counters);
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
  return serveStdin(Workers, Cache.get(), Counters);
}
