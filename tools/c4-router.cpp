//===- tools/c4-router.cpp - Sharded C4 analysis front-end ----------------===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scale-out front of the serving tier: one router process accepts the
/// same JSON-lines protocol as `c4-serve` (Unix socket and/or TCP) through
/// the same client-connection layer (support/LineServer.h), spawns
/// and supervises N `c4-serve` worker processes, and routes every analysis
/// request to a worker chosen by rendezvous hashing on the request's
/// content (support/Rendezvous.h). Stickiness keeps each worker's verdict /
/// incremental caches hot for its shard of the request space
/// and makes single-flight effective fleet-wide: identical concurrent
/// requests land on one worker and collapse to one backend run.
///
///   c4-router [options]
///     --workers <n>          worker *processes* to spawn (default 4)
///     --worker-threads <n>   analysis threads per worker, forwarded as
///                            c4-serve --workers (0 = hardware concurrency
///                            divided by the worker count; default 0)
///     --serve-bin <path>     the c4-serve binary (default: next to this
///                            executable)
///     --socket <path>        listen on a Unix-domain socket
///     --tcp <host:port>      listen on TCP (port 0 picks a free port;
///                            printed to stderr as "listening on HOST:PORT")
///     --max-inflight <n>     per-worker admission control, forwarded to
///                            c4-serve (0 = unlimited; default 256)
///     --drain-timeout-ms <n> graceful-drain budget (0 = wait forever;
///                            default 30000)
///     --cache-dir <dir>      root cache directory; worker i caches under
///                            <dir>/worker-<i> (default: a private temp
///                            directory removed on exit)
///     --incremental-cache <dir>
///                            like --cache-dir but workers also run their
///                            incremental layers
///
/// Workers always run with a cache directory (a private temp one if the
/// caller gave none), so each keeps a verdict cache for its shard; their
/// Unix sockets live in the root directory next to the per-worker cache
/// directories. Workers share nothing with each other.
///
/// Supervision: a worker that exits (crash or kill) is restarted with
/// bounded exponential backoff; its in-flight requests are re-routed to
/// surviving workers, so clients see slower replies, never dropped ones.
/// Every second the router sends each worker a `ping`, which c4-serve
/// answers on its event-loop thread even under full analysis load. A
/// worker sitting on three unanswered pings, the oldest sent at least 15 s
/// ago, is declared wedged and killed (then restarted). A restarted worker
/// reconnects and rejoins the rendezvous ring — only its own shard moves
/// back.
///
/// Control ops are answered by the router itself: ping and stats (fleet
/// shape, per-worker detail including pids — harnesses use this for fault
/// injection) never touch a worker. shutdown, SIGTERM or SIGINT start the
/// graceful drain: stop accepting, deliver all in-flight replies, then
/// SIGTERM the workers and reap them. Past --drain-timeout-ms everything
/// still alive is SIGKILLed. Exit 0 on a clean drain, 2 on usage/setup
/// errors.
///
//===----------------------------------------------------------------------===//

#include "support/Format.h"
#include "support/LineServer.h"
#include "support/Rendezvous.h"
#include "support/Subprocess.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

using namespace c4;

namespace {

int usage(const char *Prog) {
  std::fprintf(
      stderr,
      "usage: %s [--workers N] [--worker-threads N] [--serve-bin PATH]\n"
      "          [--socket PATH] [--tcp HOST:PORT] [--max-inflight N]\n"
      "          [--drain-timeout-ms MS] [--cache-dir DIR]\n"
      "          [--incremental-cache DIR]\n",
      Prog);
  return 2;
}

using Clock = std::chrono::steady_clock;

/// How long a freshly spawned worker gets to come up before it is killed
/// and respawned.
constexpr unsigned kConnectGraceMs = 10000;
/// Restart backoff bounds: first retry after kBackoffMinMs, doubling per
/// consecutive failure up to kBackoffMaxMs.
constexpr unsigned kBackoffMinMs = 100, kBackoffMaxMs = 5000;
/// Period of the liveness probe: one `ping` per live worker.
constexpr unsigned kPingIntervalMs = 1000;
/// Unanswered pings before a worker counts as wedged — and the minimum
/// time the oldest of them must have been outstanding. Both must hold: an
/// oversubscribed (CPU-starved but healthy) worker can sit on a few
/// unanswered control ops while its analysis threads chew through real
/// work.
constexpr unsigned kWedgedPings = 3;
constexpr unsigned kWedgedGraceMs = 15000;
/// A request is failed back to the client after riding through this many
/// worker deaths (a request that *causes* crashes must not cycle forever).
constexpr unsigned kMaxRouteAttempts = 6;

/// The routing key: the request object with its "id" member dropped and the
/// remaining members sorted by name, rendered canonically. Two requests
/// that differ only in id (or member order) hash identically, so retries
/// and stampedes from different clients all land on the same worker.
std::string routingKey(const JsonValue &Req) {
  std::vector<std::pair<std::string, JsonValue>> Members = *Req.asObject();
  std::erase_if(Members, [](const auto &M) { return M.first == "id"; });
  std::stable_sort(Members.begin(), Members.end(),
                   [](const auto &A, const auto &B) {
                     return A.first < B.first;
                   });
  return renderJson(JsonValue::object(std::move(Members)));
}

/// Rewrites the request's id to the router's internal sequence number (the
/// original id may collide across clients; the internal one is unique and
/// is swapped back on the way out).
std::string rewriteId(const JsonValue &Req, uint64_t Seq) {
  std::vector<std::pair<std::string, JsonValue>> Members;
  Members.emplace_back("id", JsonValue::integer(static_cast<int64_t>(Seq)));
  for (const auto &[Key, Val] : *Req.asObject())
    if (Key != "id")
      Members.emplace_back(Key, Val);
  return renderJson(JsonValue::object(std::move(Members)));
}

/// Extracts the internal sequence number from a worker reply. Every
/// c4-serve reply starts `{"id": <id>` with the id rendered first, so this
/// is a prefix scan, not a full parse. \p RestPos is left at the first
/// character after the number (the ", " of the remaining members).
bool parseReplySeq(const std::string &Line, uint64_t &Seq, size_t &RestPos) {
  constexpr const char *Prefix = "{\"id\": ";
  constexpr size_t PrefixLen = 7;
  if (Line.compare(0, PrefixLen, Prefix) != 0)
    return false;
  size_t P = PrefixLen;
  if (P == Line.size() || !std::isdigit(static_cast<unsigned char>(Line[P])))
    return false;
  uint64_t V = 0;
  while (P != Line.size() &&
         std::isdigit(static_cast<unsigned char>(Line[P]))) {
    V = V * 10 + static_cast<uint64_t>(Line[P] - '0');
    ++P;
  }
  Seq = V;
  RestPos = P;
  return true;
}

/// One supervised c4-serve worker process and its backhaul connection.
struct Worker {
  unsigned Index = 0;
  pid_t Pid = -1;
  bool Spawned = false; ///< process believed alive
  int Fd = -1;          ///< Unix-socket backhaul; -1 while down
  bool Up = false;      ///< backhaul connected and usable
  std::string SockPath, ErrPath, CacheDir;
  std::string ReadBuf, WriteBuf;
  size_t WriteOff = 0;
  unsigned Restarts = 0;
  unsigned BackoffMs = kBackoffMinMs;
  bool WaitingRestart = false;
  Clock::time_point RestartDue{};
  Clock::time_point ConnectBy{}; ///< spawn → backhaul-up grace
  std::set<uint64_t> InFlight;   ///< internal seqs routed here
  uint64_t Routed = 0;
  /// Send times of the unanswered pings, oldest first. The worker answers
  /// pings in order, so each reply retires the front.
  std::deque<Clock::time_point> UnansweredPings;
};

/// One routed request (or liveness ping) awaiting a worker reply.
struct Pending {
  enum KindTy { ClientReq, Ping } Kind = ClientReq;
  uint64_t ConnId = 0;   ///< ClientReq: owning client connection
  std::string OrigId;    ///< ClientReq: the client's rendered id
  std::string Line;      ///< ClientReq: rewritten line, kept for re-routing
  std::string Key;       ///< ClientReq: routing key
  int WorkerIdx = -1;    ///< worker currently carrying it
  unsigned Attempts = 0; ///< routing attempts (worker deaths survived)
};

struct RouterConfig {
  unsigned Workers = 4;
  unsigned WorkerThreads = 0;
  unsigned MaxInflight = 256;
  unsigned DrainTimeoutMs = 30000;
  std::string ServeBin;
  std::string RunDir;        ///< sockets + stderr logs + default caches
  bool TempRunDir = false;   ///< RunDir is ours to delete on exit
  bool Incremental = false;  ///< forward --incremental-cache to workers
};

class Router : public LineServer {
public:
  Router(const RouterConfig &CfgArg) : LineServer("c4-router"), Cfg(CfgArg) {}

  int run() {
    start();
    onSignal(SIGCHLD, SA_NOCLDSTOP, [this] { reapWorkers(); });

    Fleet.resize(Cfg.Workers);
    for (unsigned I = 0; I != Cfg.Workers; ++I) {
      Worker &W = Fleet[I];
      W.Index = I;
      W.SockPath = Cfg.RunDir + "/worker-" + std::to_string(I) + ".sock";
      W.ErrPath = Cfg.RunDir + "/worker-" + std::to_string(I) + ".err";
      W.CacheDir = Cfg.RunDir + "/worker-" + std::to_string(I);
      spawnWorker(W);
    }
    NextPingAt = Clock::now() + std::chrono::milliseconds(kPingIntervalMs);

    for (;;) {
      tick();
      if (Draining && drainFinished())
        break;
      if (!Loop.runOnce(nextTimeoutMs()))
        break;
    }

    // Clean-path invariant: nothing in flight, all buffers flushed. Any
    // leftovers here are a firm drain's casualties and count as dropped.
    closeAll();
    for (const auto &[Seq, P] : Pendings)
      Counters.RepliesDropped += P.Kind == Pending::ClientReq;
    for (Worker &W : Fleet) {
      if (W.Spawned && W.Pid > 0)
        ::kill(W.Pid, SIGKILL);
      if (W.Fd >= 0) {
        Loop.remove(W.Fd);
        ::close(W.Fd);
      }
    }
    // Reap whatever is left so no zombie outlives the router.
    for (unsigned I = 0; I != 50; ++I) {
      bool AnyAlive = false;
      for (Worker &W : Fleet)
        if (W.Spawned && W.Pid > 0 && childAlive(W.Pid))
          AnyAlive = true;
      for (const ChildExit &CE : reapExited())
        markExited(CE.Pid);
      if (!AnyAlive)
        break;
      ::usleep(20000);
    }
    cleanupRunDir();
    return 0;
  }

private:
  //===--------------------------------------------------------------------===
  // Worker lifecycle
  //===--------------------------------------------------------------------===

  void spawnWorker(Worker &W) {
    W.WaitingRestart = false;
    ::mkdir(W.CacheDir.c_str(), 0755);
    ::unlink(W.SockPath.c_str());
    std::vector<std::string> Argv = {
        Cfg.ServeBin,
        "--socket",
        W.SockPath,
        "--workers",
        std::to_string(Cfg.WorkerThreads),
        "--max-inflight",
        std::to_string(Cfg.MaxInflight),
        "--drain-timeout-ms",
        std::to_string(Cfg.DrainTimeoutMs),
        Cfg.Incremental ? "--incremental-cache" : "--cache-dir",
        W.CacheDir,
    };
    pid_t Pid = spawnChild(Argv, W.ErrPath);
    if (Pid < 0) {
      std::fprintf(stderr, "c4-router: fork failed for worker %u: %s\n",
                   W.Index, std::strerror(errno));
      scheduleRestart(W);
      return;
    }
    W.Pid = Pid;
    W.Spawned = true;
    W.ConnectBy = Clock::now() + std::chrono::milliseconds(kConnectGraceMs);
  }

  void scheduleRestart(Worker &W) {
    if (Draining)
      return;
    W.WaitingRestart = true;
    W.RestartDue = Clock::now() + std::chrono::milliseconds(W.BackoffMs);
    W.BackoffMs = std::min(W.BackoffMs * 2, kBackoffMaxMs);
  }

  void tryConnect(Worker &W) {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (Fd < 0)
      return;
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    if (W.SockPath.size() >= sizeof(Addr.sun_path)) {
      ::close(Fd);
      return;
    }
    std::memcpy(Addr.sun_path, W.SockPath.c_str(), W.SockPath.size() + 1);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
        0) {
      ::close(Fd);
      if (Clock::now() >= W.ConnectBy) {
        std::fprintf(stderr,
                     "c4-router: worker %u did not come up in time, "
                     "restarting\n",
                     W.Index);
        killWorker(W);
      }
      return;
    }
    ::fcntl(Fd, F_SETFL, ::fcntl(Fd, F_GETFL) | O_NONBLOCK);
    W.Fd = Fd;
    W.Up = true;
    W.BackoffMs = kBackoffMinMs;
    W.ReadBuf.clear();
    W.WriteBuf.clear();
    W.WriteOff = 0;
    W.UnansweredPings.clear();
    unsigned Idx = W.Index;
    Loop.add(Fd, EventLoop::Read,
             [this, Idx](unsigned Ev) { workerEvent(Idx, Ev); });
    routeQueued();
  }

  void killWorker(Worker &W) {
    if (W.Spawned && W.Pid > 0)
      ::kill(W.Pid, SIGKILL);
    // The SIGCHLD path reaps it and schedules the restart; tear the
    // backhaul down now so no further traffic is routed to it.
    workerDown(W);
  }

  /// Tears down the backhaul of a dead/dying worker and re-queues its
  /// in-flight requests onto the surviving fleet.
  void workerDown(Worker &W) {
    if (W.Fd >= 0) {
      Loop.remove(W.Fd);
      ::close(W.Fd);
      W.Fd = -1;
    }
    if (!W.Up)
      return;
    W.Up = false;
    W.ReadBuf.clear();
    W.WriteBuf.clear();
    W.WriteOff = 0;
    W.UnansweredPings.clear();
    std::vector<uint64_t> Orphans(W.InFlight.begin(), W.InFlight.end());
    W.InFlight.clear();
    unsigned Requeued = 0;
    for (uint64_t Seq : Orphans) {
      auto It = Pendings.find(Seq);
      if (It == Pendings.end())
        continue;
      Pending &P = It->second;
      if (P.Kind != Pending::ClientReq) {
        Pendings.erase(It); // pings die with the worker
        continue;
      }
      P.WorkerIdx = -1;
      RouteQueue.push_back(Seq);
      ++Requeued;
      ++ReroutedRequests;
    }
    if (Requeued)
      std::fprintf(stderr,
                   "c4-router: worker %u down, re-routing %u in-flight "
                   "request(s)\n",
                   W.Index, Requeued);
    routeQueued();
  }

  void reapWorkers() {
    for (const ChildExit &CE : reapExited())
      markExited(CE.Pid);
  }

  void markExited(pid_t Pid) {
    for (Worker &W : Fleet) {
      if (W.Pid != Pid)
        continue;
      W.Spawned = false;
      W.Pid = -1;
      workerDown(W);
      if (!Draining) {
        ++W.Restarts;
        ++WorkerRestarts;
        scheduleRestart(W);
      }
      return;
    }
  }

  void workerEvent(unsigned Idx, unsigned Ev) {
    Worker &W = Fleet[Idx];
    if (Ev & EventLoop::Error) {
      killWorker(W);
      return;
    }
    if (Ev & EventLoop::Write)
      flushWorker(W);
    if (!(Ev & EventLoop::Read) || !W.Up)
      return;
    bool Eof = false;
    if (!readAvailable(W.Fd, W.ReadBuf, Eof) || Eof) {
      // The worker half is gone (exit or crash mid-write). Whatever it
      // still owed is re-routed; the SIGCHLD path handles the restart.
      killWorker(W);
      return;
    }
    eachLine(W.ReadBuf, [&](const std::string &Line) {
      workerReply(W, Line);
      return W.Up; // the reply handler may have torn the worker down
    });
  }

  void sendToWorker(Worker &W, const std::string &Line) {
    W.WriteBuf += Line;
    W.WriteBuf += '\n';
    flushWorker(W);
  }

  void flushWorker(Worker &W) {
    if (!W.Up)
      return;
    switch (sendBuffered(W.Fd, W.WriteBuf, W.WriteOff)) {
    case SendResult::Done:
      Loop.setInterest(W.Fd, EventLoop::Read);
      break;
    case SendResult::Blocked:
      Loop.setInterest(W.Fd, EventLoop::Read | EventLoop::Write);
      break;
    case SendResult::Failed:
      killWorker(W);
      break;
    }
  }

  //===--------------------------------------------------------------------===
  // Routing
  //===--------------------------------------------------------------------===

  std::vector<bool> aliveMask() const {
    std::vector<bool> Alive(Fleet.size());
    for (size_t I = 0; I != Fleet.size(); ++I)
      Alive[I] = Fleet[I].Up;
    return Alive;
  }

  /// Routes (or re-routes) every queued request that has a live worker.
  void routeQueued() {
    std::vector<bool> Alive = aliveMask();
    bool AnyAlive =
        std::any_of(Alive.begin(), Alive.end(), [](bool B) { return B; });
    std::deque<uint64_t> Stuck;
    while (!RouteQueue.empty()) {
      uint64_t Seq = RouteQueue.front();
      RouteQueue.pop_front();
      auto It = Pendings.find(Seq);
      if (It == Pendings.end())
        continue;
      Pending &P = It->second;
      if (P.Attempts >= kMaxRouteAttempts) {
        failPending(Seq, "request failed: " + std::to_string(P.Attempts) +
                             " worker crashes while handling it");
        continue;
      }
      if (!AnyAlive) {
        Stuck.push_back(Seq);
        continue;
      }
      int Idx = rendezvousPick(P.Key, Alive);
      if (Idx < 0) {
        Stuck.push_back(Seq);
        continue;
      }
      ++P.Attempts;
      P.WorkerIdx = Idx;
      Worker &W = Fleet[static_cast<size_t>(Idx)];
      W.InFlight.insert(Seq);
      ++W.Routed;
      sendToWorker(W, P.Line);
    }
    RouteQueue = std::move(Stuck);
  }

  /// Fails one pending client request back to its client.
  void failPending(uint64_t Seq, const std::string &Msg) {
    auto It = Pendings.find(Seq);
    if (It == Pendings.end())
      return;
    Pending P = std::move(It->second);
    Pendings.erase(It);
    reply(P.ConnId, errorReply(P.OrigId, Msg));
  }

  /// A full line from a worker: either a reply to a routed client request
  /// (relayed with the original id restored) or to a liveness ping.
  void workerReply(Worker &W, const std::string &Line) {
    uint64_t Seq = 0;
    size_t RestPos = 0;
    if (!parseReplySeq(Line, Seq, RestPos)) {
      ++RelayErrors;
      return;
    }
    auto It = Pendings.find(Seq);
    if (It == Pendings.end()) {
      ++RelayErrors; // stale reply from before a re-route
      return;
    }
    if (It->second.Kind == Pending::Ping) {
      Pendings.erase(It);
      W.InFlight.erase(Seq);
      if (!W.UnansweredPings.empty())
        W.UnansweredPings.pop_front();
      return;
    }
    Pending P = std::move(It->second);
    Pendings.erase(It);
    W.InFlight.erase(Seq);
    ++RepliesRelayed;
    reply(P.ConnId, "{\"id\": " + P.OrigId + Line.substr(RestPos));
  }

  //===--------------------------------------------------------------------===
  // Liveness probe
  //===--------------------------------------------------------------------===

  uint64_t nextSeq() { return ++NextSeqNum; }

  /// One probe round: kill every wedged worker, ping the rest. A worker is
  /// wedged when it sits on kWedgedPings unanswered pings, the oldest sent
  /// at least kWedgedGraceMs ago (not merely busy or CPU-starved — pings
  /// are answered inline even under full analysis load).
  void pingWorkers(Clock::time_point Now) {
    for (Worker &W : Fleet) {
      if (!W.Up)
        continue;
      if (W.UnansweredPings.size() >= kWedgedPings &&
          Now - W.UnansweredPings.front() >=
              std::chrono::milliseconds(kWedgedGraceMs)) {
        std::fprintf(stderr,
                     "c4-router: worker %u unresponsive to %zu pings, "
                     "killing it\n",
                     W.Index, W.UnansweredPings.size());
        killWorker(W);
        continue;
      }
      uint64_t Seq = nextSeq();
      Pending P;
      P.Kind = Pending::Ping;
      P.WorkerIdx = static_cast<int>(W.Index);
      Pendings.emplace(Seq, std::move(P));
      W.InFlight.insert(Seq);
      W.UnansweredPings.push_back(Now);
      sendToWorker(W, "{\"id\": " + std::to_string(Seq) +
                          ", \"op\": \"ping\"}");
    }
  }

  //===--------------------------------------------------------------------===
  // Client side
  //===--------------------------------------------------------------------===

  /// An analysis request: assign an internal id, remember the original,
  /// and hand it to the rendezvous ring. Admission control runs in the
  /// workers; their overload replies relay like any other.
  void onRequest(Conn &C, const JsonValue &Req, const std::string &Id,
                 const std::string &) override {
    uint64_t Seq = nextSeq();
    Pending P;
    P.Kind = Pending::ClientReq;
    P.ConnId = C.Id;
    P.OrigId = Id;
    P.Key = routingKey(Req);
    P.Line = rewriteId(Req, Seq);
    Pendings.emplace(Seq, std::move(P));
    ++C.Pending;
    ++RequestsRouted;
    RouteQueue.push_back(Seq);
    routeQueued();
  }

  /// ping and stats never touch a worker.
  std::string controlReply(const std::string &Op,
                           const std::string &Id) override {
    if (Op == "ping")
      return "{\"id\": " + Id +
             ", \"ok\": true, \"pong\": true, \"router\": true}";
    if (Op == "stats")
      return statsReply(Id);
    return errorReply(Id, "unknown op '" + Op + "'");
  }

  std::string statsReply(const std::string &Id) {
    unsigned UpCount = 0;
    for (const Worker &W : Fleet)
      UpCount += W.Up;
    std::string Detail = "[";
    for (const Worker &W : Fleet) {
      if (Detail.size() > 1)
        Detail += ", ";
      Detail += "{\"index\": " + std::to_string(W.Index) +
                ", \"pid\": " + std::to_string(W.Spawned ? W.Pid : -1) +
                ", \"up\": " + (W.Up ? "true" : "false") +
                ", \"restarts\": " + std::to_string(W.Restarts) +
                ", \"inflight\": " + std::to_string(W.InFlight.size()) +
                ", \"routed\": " + std::to_string(W.Routed) + "}";
    }
    Detail += "]";
    return "{\"id\": " + Id + ", \"ok\": true, \"router\": true" +
           ", \"workers\": " + std::to_string(Fleet.size()) +
           ", \"workers_up\": " + std::to_string(UpCount) +
           ", \"worker_restarts\": " + std::to_string(WorkerRestarts) +
           ", \"connections\": " + std::to_string(Counters.Connections) +
           ", \"requests_routed\": " + std::to_string(RequestsRouted) +
           ", \"replies_relayed\": " + std::to_string(RepliesRelayed) +
           ", \"replies_dropped\": " +
           std::to_string(Counters.RepliesDropped) +
           ", \"rerouted_requests\": " + std::to_string(ReroutedRequests) +
           ", \"relay_errors\": " + std::to_string(RelayErrors) +
           ", \"workers_detail\": " + Detail + "}";
  }

  //===--------------------------------------------------------------------===
  // Timers, drain, teardown
  //===--------------------------------------------------------------------===

  /// Time-driven duties, run before every poll: reconnect/restart workers,
  /// probe their liveness, advance the drain state machine.
  void tick() {
    Clock::time_point Now = Clock::now();
    for (Worker &W : Fleet) {
      if (W.WaitingRestart && Now >= W.RestartDue)
        spawnWorker(W);
      if (W.Spawned && !W.Up)
        tryConnect(W);
    }
    if (!Draining && Now >= NextPingAt) {
      pingWorkers(Now);
      NextPingAt = Now + std::chrono::milliseconds(kPingIntervalMs);
    }
    if (Draining)
      drainStep(Now);
  }

  void onDrain() override {
    DrainHard = DrainStopWorkers = false;
    if (Cfg.DrainTimeoutMs)
      DrainBy = Clock::now() + std::chrono::milliseconds(Cfg.DrainTimeoutMs);
    else
      DrainBy = Clock::time_point::max();
  }

  uint64_t inFlight() const override {
    uint64_t ClientInFlight = 0;
    for (const auto &[Seq, P] : Pendings)
      ClientInFlight += P.Kind == Pending::ClientReq;
    return ClientInFlight;
  }

  void drainStep(Clock::time_point Now) {
    if (Now >= DrainBy && !DrainHard) {
      // Firm drain: give up on whatever is left. Workers are killed, their
      // unanswered requests counted dropped by the exit path.
      DrainHard = true;
      std::fprintf(stderr, "c4-router: drain timeout, killing workers\n");
      for (Worker &W : Fleet)
        if (W.Spawned && W.Pid > 0)
          ::kill(W.Pid, SIGKILL);
      return;
    }
    if (!DrainStopWorkers && !inFlight() && !unsentReplies()) {
      // All clients answered: stop the workers.
      for (Worker &W : Fleet) {
        flushWorker(W);
        if (W.Spawned && W.Pid > 0)
          ::kill(W.Pid, SIGTERM);
      }
      DrainStopWorkers = true;
    }
  }

  bool drainFinished() const {
    if (!DrainStopWorkers && !DrainHard)
      return false;
    for (const Worker &W : Fleet)
      if (W.Spawned)
        return false;
    return true;
  }

  void cleanupRunDir() {
    for (Worker &W : Fleet)
      ::unlink(W.SockPath.c_str());
    if (Cfg.TempRunDir) {
      std::error_code Ec; // best effort: nothing to report it to
      std::filesystem::remove_all(Cfg.RunDir, Ec);
    }
  }

  int nextTimeoutMs() const {
    Clock::time_point Now = Clock::now();
    Clock::time_point Next = Clock::time_point::max();
    for (const Worker &W : Fleet) {
      if (W.WaitingRestart)
        Next = std::min(Next, W.RestartDue);
      if (W.Spawned && !W.Up)
        Next = std::min(Next, Now + std::chrono::milliseconds(50));
    }
    if (!Draining)
      Next = std::min(Next, NextPingAt);
    if (Draining) {
      if (DrainBy != Clock::time_point::max())
        Next = std::min(Next, DrainBy);
      // Reaping and drain progress piggyback on wakeups; never sleep long.
      Next = std::min(Next, Now + std::chrono::milliseconds(100));
    }
    if (Next == Clock::time_point::max())
      return -1;
    auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
        Next - Now);
    if (Ms.count() <= 0)
      return 0;
    return static_cast<int>(std::min<long long>(Ms.count(), 60000));
  }

  RouterConfig Cfg;

  std::vector<Worker> Fleet;
  std::unordered_map<uint64_t, Pending> Pendings;
  std::deque<uint64_t> RouteQueue; ///< seqs waiting for a live worker

  uint64_t NextSeqNum = 0;
  uint64_t RequestsRouted = 0, RepliesRelayed = 0;
  uint64_t ReroutedRequests = 0, RelayErrors = 0;
  uint64_t WorkerRestarts = 0;

  Clock::time_point NextPingAt = Clock::time_point::max();
  bool DrainHard = false, DrainStopWorkers = false;
  Clock::time_point DrainBy{};
};

/// The directory holding this executable, for the --serve-bin default.
std::string selfDir() {
  char Buf[4096];
  ssize_t N = ::readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
  if (N <= 0)
    return ".";
  Buf[N] = '\0';
  std::string Path(Buf);
  size_t Slash = Path.rfind('/');
  return Slash == std::string::npos ? "." : Path.substr(0, Slash);
}

} // namespace

int main(int Argc, char **Argv) {
  std::signal(SIGPIPE, SIG_IGN);

  RouterConfig Cfg;
  const char *SocketPath = nullptr;
  const char *TcpSpec = nullptr;
  const char *CacheDir = nullptr;
  for (int I = 1; I != Argc; ++I) {
    const char *Arg = Argv[I];
    if (!std::strcmp(Arg, "--workers")) {
      if (I + 1 == Argc || !parseCount(Arg, Argv[++I], Cfg.Workers))
        return usage(Argv[0]);
    } else if (!std::strcmp(Arg, "--worker-threads")) {
      if (I + 1 == Argc || !parseCount(Arg, Argv[++I], Cfg.WorkerThreads))
        return usage(Argv[0]);
    } else if (!std::strcmp(Arg, "--max-inflight")) {
      if (I + 1 == Argc || !parseCount(Arg, Argv[++I], Cfg.MaxInflight))
        return usage(Argv[0]);
    } else if (!std::strcmp(Arg, "--drain-timeout-ms")) {
      if (I + 1 == Argc || !parseCount(Arg, Argv[++I], Cfg.DrainTimeoutMs))
        return usage(Argv[0]);
    } else if (!std::strcmp(Arg, "--serve-bin")) {
      if (I + 1 == Argc)
        return usage(Argv[0]);
      Cfg.ServeBin = Argv[++I];
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
      Cfg.Incremental = true;
    } else {
      return usage(Argv[0]);
    }
  }
  if (!SocketPath && !TcpSpec) {
    std::fprintf(stderr,
                 "error: c4-router needs --socket and/or --tcp (it has no "
                 "stdin mode; use c4-serve for that)\n");
    return usage(Argv[0]);
  }
  if (Cfg.Workers == 0) {
    std::fprintf(stderr, "error: --workers must be at least 1\n");
    return 2;
  }
  if (Cfg.WorkerThreads == 0) {
    unsigned Hw = std::thread::hardware_concurrency();
    Cfg.WorkerThreads = std::max(1u, Hw / std::max(1u, Cfg.Workers));
  }
  if (Cfg.ServeBin.empty())
    Cfg.ServeBin = selfDir() + "/c4-serve";
  if (::access(Cfg.ServeBin.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "error: cannot execute %s: %s\n",
                 Cfg.ServeBin.c_str(), std::strerror(errno));
    return 2;
  }

  if (CacheDir) {
    Cfg.RunDir = CacheDir;
    ::mkdir(Cfg.RunDir.c_str(), 0755);
  } else {
    char Tmpl[] = "/tmp/c4-router.XXXXXX";
    char *Dir = ::mkdtemp(Tmpl);
    if (!Dir) {
      std::fprintf(stderr, "error: mkdtemp: %s\n", std::strerror(errno));
      return 2;
    }
    Cfg.RunDir = Dir;
    Cfg.TempRunDir = true;
  }

  Router R(Cfg);
  if (!R.ok()) {
    std::fprintf(stderr, "error: cannot set up the event loop\n");
    return 2;
  }
  if (SocketPath && !R.listenUnix(SocketPath))
    return 2;
  if (TcpSpec && !R.listenTcp(TcpSpec))
    return 2;
  return R.run();
}
