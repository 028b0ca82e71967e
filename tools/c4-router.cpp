//===- tools/c4-router.cpp - Sharded C4 analysis front-end ----------------===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scale-out front of the serving tier: one router process accepts the
/// same JSON-lines protocol as `c4-serve` (Unix socket and/or TCP), spawns
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
///     --snapshot-interval-ms <n>
///                            shared-snapshot exchange period (0 disables
///                            sharing; default 1000)
///
/// Workers always run with a cache directory (a private temp one if the
/// caller gave none): the oracle snapshot layer is what the shared cache
/// tier rides on. Every interval the router asks each worker for its
/// `snapshot_export` delta, merges the deltas into one global snapshot, and
/// broadcasts the per-worker missing facts back via `snapshot_import` — a
/// commutativity/absorption fact proven by one worker is never re-proven by
/// any other. Router stats expose the tier as `snapshot_broadcasts` /
/// `snapshot_facts_imported` / `snapshot_facts`.
///
/// Supervision: a worker that exits (crash or kill) is restarted with
/// bounded exponential backoff; its in-flight requests are re-routed to
/// surviving workers, so clients see slower replies, never dropped ones. A
/// worker that stops answering snapshot exports for three consecutive
/// intervals is declared wedged and killed (then restarted). A restarted
/// worker reconnects, receives the full global snapshot, and rejoins the
/// rendezvous ring — only its own shard moves back.
///
/// Control ops are answered by the router itself: ping and stats (fleet
/// shape, per-worker detail including pids — harnesses use this for fault
/// injection) never touch a worker. shutdown, SIGTERM or SIGINT start the
/// graceful drain: stop accepting, deliver all in-flight replies, run one
/// final snapshot exchange, then SIGTERM the workers and reap them. Past
/// --drain-timeout-ms everything still alive is SIGKILLed. Exit 0 on a
/// clean drain, 2 on usage/setup errors.
///
//===----------------------------------------------------------------------===//

#include "spec/CommutativityCache.h"
#include "support/EventLoop.h"
#include "support/Json.h"
#include "support/Rendezvous.h"
#include "support/Subprocess.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
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
      "          [--incremental-cache DIR] [--snapshot-interval-ms MS]\n",
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

using Clock = std::chrono::steady_clock;

/// Hostile-client guard, same bound as c4-serve.
constexpr size_t kMaxLineBytes = 32u << 20;
/// How long a freshly spawned worker gets to come up before it is killed
/// and respawned.
constexpr unsigned kConnectGraceMs = 10000;
/// Restart backoff bounds: first retry after kBackoffMinMs, doubling per
/// consecutive failure up to kBackoffMaxMs.
constexpr unsigned kBackoffMinMs = 100, kBackoffMaxMs = 5000;
/// Unanswered snapshot_export cycles before a worker counts as wedged —
/// and the minimum time those exports must have been outstanding. Both
/// must hold: the cycle count alone is no evidence at small
/// --snapshot-interval-ms values, where an oversubscribed (CPU-starved
/// but healthy) worker can sit on several cycles' worth of unanswered
/// control ops while its analysis threads chew through real work.
constexpr unsigned kWedgedExports = 3;
constexpr unsigned kWedgedGraceMs = 15000;
/// A request is failed back to the client after riding through this many
/// worker deaths (a request that *causes* crashes must not cycle forever).
constexpr unsigned kMaxRouteAttempts = 6;
/// Budget for the final pre-exit snapshot exchange during drain.
constexpr unsigned kFinalFlushMs = 2000;

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

/// Removes a directory tree created by this process (worker cache dirs and
/// sockets under the private run directory). Depth-bounded: the layout is
/// shallow (<root>/worker-<i>/{objects,tmp}/<entries>).
void removeTree(const std::string &Path, unsigned Depth = 0) {
  if (Depth > 4)
    return;
  DIR *D = ::opendir(Path.c_str());
  if (D) {
    while (struct dirent *E = ::readdir(D)) {
      std::string Name = E->d_name;
      if (Name == "." || Name == "..")
        continue;
      std::string Child = Path + "/" + Name;
      if (::unlink(Child.c_str()) != 0 && errno == EISDIR)
        removeTree(Child, Depth + 1);
      else if (errno == EPERM || errno == EISDIR)
        removeTree(Child, Depth + 1);
    }
    ::closedir(D);
  }
  ::rmdir(Path.c_str());
}

/// Write ends of the signal self-pipes. One byte per signal is the only
/// async-signal-safe hand-off into the event loop.
std::atomic<int> StopSignalFd{-1};
std::atomic<int> ChildSignalFd{-1};

extern "C" void onStopSignal(int) {
  int Fd = StopSignalFd.load(std::memory_order_relaxed);
  if (Fd >= 0) {
    char B = 1;
    ssize_t N = ::write(Fd, &B, 1);
    (void)N;
  }
}

extern "C" void onChildSignal(int) {
  int Fd = ChildSignalFd.load(std::memory_order_relaxed);
  if (Fd >= 0) {
    char B = 1;
    ssize_t N = ::write(Fd, &B, 1);
    (void)N;
  }
}

/// One client connection (same buffering discipline as c4-serve's Conn).
struct Conn {
  int Fd = -1;
  uint64_t Id = 0;
  std::string ReadBuf;
  std::string WriteBuf;
  size_t WriteOff = 0;
  unsigned Pending = 0; ///< routed requests not yet answered
  bool Eof = false;
  bool CloseWhenFlushed = false;
  bool ShutdownWanted = false, ShutdownAcked = false;
  std::string ShutdownId;

  size_t unsent() const { return WriteBuf.size() - WriteOff; }
};

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
  unsigned PendingExports = 0; ///< unanswered snapshot_export ops
  /// When the oldest still-unanswered export was sent (meaningful only
  /// while PendingExports > 0); the wedged check needs elapsed time, not
  /// just a cycle count.
  std::chrono::steady_clock::time_point ExportStalledSince;
  /// Facts the router believes this worker holds (its own exports plus
  /// everything broadcast to it). Broadcast = Global − Known. Reset on
  /// restart, so a fresh worker receives the full global snapshot.
  OracleSnapshot Known;

  size_t unsent() const { return WriteBuf.size() - WriteOff; }
};

/// One routed request (or internal snapshot op) awaiting a worker reply.
struct Pending {
  enum KindTy { ClientReq, SnapExport, SnapImport } Kind = ClientReq;
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
  unsigned SnapshotIntervalMs = 1000;
  std::string ServeBin;
  std::string RunDir;        ///< sockets + stderr logs + default caches
  bool TempRunDir = false;   ///< RunDir is ours to delete on exit
  bool Incremental = false;  ///< forward --incremental-cache to workers
};

class Router {
public:
  Router(const RouterConfig &CfgArg) : Cfg(CfgArg) {}

  ~Router() {
    StopSignalFd.store(-1);
    ChildSignalFd.store(-1);
    for (int Fd : {SigPipe[0], SigPipe[1], ChldPipe[0], ChldPipe[1]})
      if (Fd >= 0)
        ::close(Fd);
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
    ::unlink(Path.c_str());
    if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
        ::listen(Fd, 1024) < 0) {
      std::fprintf(stderr, "error: cannot listen on %s: %s\n", Path.c_str(),
                   std::strerror(errno));
      ::close(Fd);
      return false;
    }
    UnixPath = Path;
    ListenFds.push_back(Fd);
    std::fprintf(stderr, "c4-router: listening on %s\n", Path.c_str());
    return true;
  }

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
      Fd = ::socket(AI->ai_family,
                    AI->ai_socktype | SOCK_NONBLOCK | SOCK_CLOEXEC,
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
    ListenFds.push_back(Fd);
    std::fprintf(stderr, "c4-router: listening on %s:%s\n", HostBuf, PortBuf);
    return true;
  }

  int run() {
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
    if (::pipe(ChldPipe) == 0) {
      for (int Fd : ChldPipe)
        ::fcntl(Fd, F_SETFL, ::fcntl(Fd, F_GETFL) | O_NONBLOCK);
      ChildSignalFd.store(ChldPipe[1]);
      struct sigaction SA;
      std::memset(&SA, 0, sizeof(SA));
      SA.sa_handler = onChildSignal;
      ::sigemptyset(&SA.sa_mask);
      SA.sa_flags = SA_NOCLDSTOP;
      ::sigaction(SIGCHLD, &SA, nullptr);
      Loop.add(ChldPipe[0], EventLoop::Read, [this](unsigned) {
        char Buf[64];
        while (::read(ChldPipe[0], Buf, sizeof(Buf)) > 0) {
        }
        reapWorkers();
      });
    }
    for (int Fd : ListenFds)
      Loop.add(Fd, EventLoop::Read,
               [this, Fd](unsigned) { acceptReady(Fd); });

    Fleet.resize(Cfg.Workers);
    for (unsigned I = 0; I != Cfg.Workers; ++I) {
      Worker &W = Fleet[I];
      W.Index = I;
      W.SockPath = Cfg.RunDir + "/worker-" + std::to_string(I) + ".sock";
      W.ErrPath = Cfg.RunDir + "/worker-" + std::to_string(I) + ".err";
      W.CacheDir = Cfg.RunDir + "/worker-" + std::to_string(I);
      spawnWorker(W);
    }
    if (Cfg.SnapshotIntervalMs)
      NextSnapshotAt = Clock::now() +
                       std::chrono::milliseconds(Cfg.SnapshotIntervalMs);

    for (;;) {
      tick();
      if (Draining && drainFinished())
        break;
      if (!Loop.runOnce(nextTimeoutMs()))
        break;
    }

    // Clean-path invariant: nothing in flight, all buffers flushed. Any
    // leftovers here are a firm drain's casualties and count as dropped.
    while (!Conns.empty())
      closeConn(*Conns.begin()->second, /*CountDrops=*/true);
    for (const auto &[Seq, P] : Pendings)
      DroppedReplies += P.Kind == Pending::ClientReq;
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
    for (int Fd : ListenFds)
      ::close(Fd);
    if (!UnixPath.empty())
      ::unlink(UnixPath.c_str());
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
    W.PendingExports = 0;
    unsigned Idx = W.Index;
    Loop.add(Fd, EventLoop::Read,
             [this, Idx](unsigned Ev) { workerEvent(Idx, Ev); });
    // A (re)started worker knows nothing: ship the full global snapshot.
    broadcastTo(W);
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
    W.PendingExports = 0;
    W.Known = OracleSnapshot();
    std::vector<uint64_t> Orphans(W.InFlight.begin(), W.InFlight.end());
    W.InFlight.clear();
    unsigned Requeued = 0;
    for (uint64_t Seq : Orphans) {
      auto It = Pendings.find(Seq);
      if (It == Pendings.end())
        continue;
      Pending &P = It->second;
      if (P.Kind != Pending::ClientReq) {
        Pendings.erase(It); // snapshot ops die with the worker
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
    char Buf[65536];
    for (;;) {
      ssize_t N = ::read(W.Fd, Buf, sizeof(Buf));
      if (N > 0) {
        W.ReadBuf.append(Buf, static_cast<size_t>(N));
        continue;
      }
      if (N == 0) {
        // The worker half is gone (exit or crash mid-write). Whatever it
        // still owed is re-routed; the SIGCHLD path handles the restart.
        killWorker(W);
        return;
      }
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        break;
      killWorker(W);
      return;
    }
    size_t Start = 0;
    for (;;) {
      size_t Nl = W.ReadBuf.find('\n', Start);
      if (Nl == std::string::npos)
        break;
      std::string Line = W.ReadBuf.substr(Start, Nl - Start);
      Start = Nl + 1;
      if (!Line.empty())
        workerReply(W, Line);
      if (!W.Up)
        return; // the reply handler may have torn the worker down
    }
    W.ReadBuf.erase(0, Start);
  }

  void sendToWorker(Worker &W, const std::string &Line) {
    W.WriteBuf += Line;
    W.WriteBuf += '\n';
    flushWorker(W);
  }

  void flushWorker(Worker &W) {
    if (!W.Up)
      return;
    while (W.WriteOff < W.WriteBuf.size()) {
      ssize_t N = ::send(W.Fd, W.WriteBuf.data() + W.WriteOff,
                         W.WriteBuf.size() - W.WriteOff, MSG_NOSIGNAL);
      if (N > 0) {
        W.WriteOff += static_cast<size_t>(N);
        continue;
      }
      if (N < 0 && errno == EINTR)
        continue;
      if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        Loop.setInterest(W.Fd, EventLoop::Read | EventLoop::Write);
        return;
      }
      killWorker(W);
      return;
    }
    if (W.WriteOff) {
      W.WriteBuf.clear();
      W.WriteOff = 0;
    }
    Loop.setInterest(W.Fd, EventLoop::Read);
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
    auto CIt = Conns.find(P.ConnId);
    if (CIt == Conns.end()) {
      ++DroppedReplies;
      return;
    }
    Conn &C = *CIt->second;
    --C.Pending;
    enqueue(C, errorReply(P.OrigId, Msg));
    maybeAckShutdown(C);
    if (flushConn(C))
      maybeFinishConn(C);
  }

  /// A full line from a worker: either a reply to a routed client request
  /// (relayed with the original id restored) or to an internal snapshot op.
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
    if (It->second.Kind == Pending::SnapExport) {
      Pendings.erase(It);
      W.InFlight.erase(Seq);
      if (W.PendingExports)
        --W.PendingExports;
      mergeExport(W, Line);
      return;
    }
    if (It->second.Kind == Pending::SnapImport) {
      Pendings.erase(It);
      W.InFlight.erase(Seq);
      return;
    }
    Pending P = std::move(It->second);
    Pendings.erase(It);
    W.InFlight.erase(Seq);
    ++RepliesRelayed;
    auto CIt = Conns.find(P.ConnId);
    if (CIt == Conns.end()) {
      ++DroppedReplies; // client vanished while the fleet worked
      return;
    }
    Conn &C = *CIt->second;
    --C.Pending;
    enqueue(C, "{\"id\": " + P.OrigId + Line.substr(RestPos));
    maybeAckShutdown(C);
    if (flushConn(C))
      maybeFinishConn(C);
  }

  //===--------------------------------------------------------------------===
  // Shared snapshot tier
  //===--------------------------------------------------------------------===

  uint64_t nextSeq() { return ++NextSeqNum; }

  void requestExport(Worker &W) {
    uint64_t Seq = nextSeq();
    Pending P;
    P.Kind = Pending::SnapExport;
    P.WorkerIdx = static_cast<int>(W.Index);
    Pendings.emplace(Seq, std::move(P));
    W.InFlight.insert(Seq);
    if (++W.PendingExports == 1)
      W.ExportStalledSince = std::chrono::steady_clock::now();
    sendToWorker(W, "{\"id\": " + std::to_string(Seq) +
                        ", \"op\": \"snapshot_export\"}");
  }

  /// Folds one worker's export reply into the global snapshot.
  void mergeExport(Worker &W, const std::string &Line) {
    std::string Err;
    std::optional<JsonValue> Reply = parseJson(Line, Err);
    if (!Reply)
      return;
    const JsonValue *Snap = Reply->get("snapshot");
    const std::string *Blob = Snap ? Snap->asString() : nullptr;
    if (!Blob)
      return; // e.g. an error reply from a cacheless worker
    std::optional<OracleSnapshot> S = OracleSnapshot::deserialize(*Blob);
    if (!S)
      return; // version skew degrades to no sharing for this worker
    size_t Before = Global.size();
    Global.merge(*S);
    SnapshotFactsImported += Global.size() - Before;
    W.Known.merge(*S); // the exporter obviously holds its own facts
  }

  /// Ships a worker the global facts it is missing.
  void broadcastTo(Worker &W) {
    if (!W.Up)
      return;
    OracleSnapshot Delta = Global.deltaSince(W.Known);
    if (Delta.empty())
      return;
    uint64_t Seq = nextSeq();
    Pending P;
    P.Kind = Pending::SnapImport;
    P.WorkerIdx = static_cast<int>(W.Index);
    Pendings.emplace(Seq, std::move(P));
    W.InFlight.insert(Seq);
    sendToWorker(W, "{\"id\": " + std::to_string(Seq) +
                        ", \"op\": \"snapshot_import\", \"snapshot\": \"" +
                        jsonEscape(Delta.serialize()) + "\"}");
    W.Known.merge(Delta);
    ++SnapshotBroadcasts;
  }

  /// One periodic exchange: broadcast what each worker is missing, then ask
  /// everyone for their latest delta. A worker sitting on unanswered
  /// exports for kWedgedExports cycles AND kWedgedGraceMs of wall clock is
  /// wedged (not merely idle or CPU-starved — the control channel is
  /// answered inline even under full analysis load) and is killed.
  void snapshotCycle() {
    auto Now = std::chrono::steady_clock::now();
    for (Worker &W : Fleet) {
      if (!W.Up)
        continue;
      if (W.PendingExports >= kWedgedExports &&
          Now - W.ExportStalledSince >=
              std::chrono::milliseconds(kWedgedGraceMs)) {
        std::fprintf(stderr,
                     "c4-router: worker %u unresponsive for %u snapshot "
                     "cycles, killing it\n",
                     W.Index, W.PendingExports);
        killWorker(W);
        continue;
      }
      broadcastTo(W);
      requestExport(W);
    }
  }

  //===--------------------------------------------------------------------===
  // Client side
  //===--------------------------------------------------------------------===

  void acceptReady(int ListenFd) {
    for (;;) {
      int Fd = ::accept4(ListenFd, nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (Fd < 0) {
        if (errno == EINTR)
          continue;
        return;
      }
      int One = 1; // harmless ENOPROTOOPT on AF_UNIX
      ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
      ++Connections;
      uint64_t Id = ++NextConnId;
      auto C = std::make_unique<Conn>();
      C->Fd = Fd;
      C->Id = Id;
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
    if (C.Eof)
      C.ReadBuf.clear();

    if (!flushConn(C))
      return;
    maybeFinishConn(C);
  }

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
      if (!Name) {
        enqueue(C, errorReply(Id, "op expects a string"));
        return;
      }
      if (*Name == "shutdown") {
        C.ShutdownWanted = true;
        C.ShutdownId = Id;
        maybeAckShutdown(C);
        return;
      }
      if (*Name == "ping") {
        enqueue(C, "{\"id\": " + Id +
                       ", \"ok\": true, \"pong\": true, \"router\": true}");
        return;
      }
      if (*Name == "stats") {
        enqueue(C, statsReply(Id));
        return;
      }
      enqueue(C, errorReply(Id, "unknown op '" + *Name + "'"));
      return;
    }
    // An analysis request: assign an internal id, remember the original,
    // and hand it to the rendezvous ring. Admission control runs in the
    // workers; their overload replies relay like any other.
    uint64_t Seq = nextSeq();
    Pending P;
    P.Kind = Pending::ClientReq;
    P.ConnId = C.Id;
    P.OrigId = Id;
    P.Key = routingKey(*Req);
    P.Line = rewriteId(*Req, Seq);
    Pendings.emplace(Seq, std::move(P));
    ++C.Pending;
    ++RequestsRouted;
    RouteQueue.push_back(Seq);
    routeQueued();
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
           ", \"connections\": " + std::to_string(Connections) +
           ", \"requests_routed\": " + std::to_string(RequestsRouted) +
           ", \"replies_relayed\": " + std::to_string(RepliesRelayed) +
           ", \"replies_dropped\": " + std::to_string(DroppedReplies) +
           ", \"rerouted_requests\": " + std::to_string(ReroutedRequests) +
           ", \"relay_errors\": " + std::to_string(RelayErrors) +
           ", \"snapshot_broadcasts\": " + std::to_string(SnapshotBroadcasts) +
           ", \"snapshot_facts_imported\": " +
           std::to_string(SnapshotFactsImported) +
           ", \"snapshot_facts\": " + std::to_string(Global.size()) +
           ", \"workers_detail\": " + Detail + "}";
  }

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
      DroppedReplies += Drops;
    }
    Loop.remove(C.Fd);
    ::close(C.Fd);
    Conns.erase(C.Id); // invalidates C
  }

  //===--------------------------------------------------------------------===
  // Timers, drain, teardown
  //===--------------------------------------------------------------------===

  /// Time-driven duties, run before every poll: reconnect/restart workers,
  /// run snapshot cycles, advance the drain state machine.
  void tick() {
    Clock::time_point Now = Clock::now();
    for (Worker &W : Fleet) {
      if (W.WaitingRestart && Now >= W.RestartDue)
        spawnWorker(W);
      if (W.Spawned && !W.Up)
        tryConnect(W);
    }
    if (!Draining && Cfg.SnapshotIntervalMs && Now >= NextSnapshotAt) {
      snapshotCycle();
      NextSnapshotAt =
          Now + std::chrono::milliseconds(Cfg.SnapshotIntervalMs);
    }
    if (Draining)
      drainStep(Now);
  }

  void startDrain(const char *Why) {
    if (Draining)
      return;
    Draining = true;
    DrainHard = DrainStopWorkers = FinalFlushStarted = false;
    if (Cfg.DrainTimeoutMs)
      DrainBy = Clock::now() + std::chrono::milliseconds(Cfg.DrainTimeoutMs);
    else
      DrainBy = Clock::time_point::max();
    for (int Fd : ListenFds) {
      Loop.remove(Fd);
      ::close(Fd);
    }
    ListenFds.clear();
    if (!UnixPath.empty()) {
      ::unlink(UnixPath.c_str());
      UnixPath.clear();
    }
    uint64_t ClientInFlight = 0;
    for (const auto &[Seq, P] : Pendings)
      ClientInFlight += P.Kind == Pending::ClientReq;
    std::fprintf(
        stderr,
        "c4-router: draining (%s): %llu in flight, %zu connection(s)\n", Why,
        static_cast<unsigned long long>(ClientInFlight), Conns.size());
  }

  bool clientWorkDone() const {
    for (const auto &[Seq, P] : Pendings)
      if (P.Kind == Pending::ClientReq)
        return false;
    for (const auto &[Id, C] : Conns)
      if (C->unsent())
        return false;
    return true;
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
    if (!FinalFlushStarted && clientWorkDone()) {
      // All clients answered: one last exchange so every fact proven this
      // session reaches every worker's disk cache before they exit.
      FinalFlushStarted = true;
      FinalFlushBy = Now + std::chrono::milliseconds(kFinalFlushMs);
      for (Worker &W : Fleet)
        if (W.Up)
          requestExport(W);
      return;
    }
    if (FinalFlushStarted && !DrainStopWorkers) {
      bool ExportsDone = true;
      for (const Worker &W : Fleet)
        if (W.Up && W.PendingExports)
          ExportsDone = false;
      if (ExportsDone || Now >= FinalFlushBy) {
        for (Worker &W : Fleet)
          if (W.Up)
            broadcastTo(W); // final deltas ride out with the SIGTERM
        for (Worker &W : Fleet) {
          flushWorker(W);
          if (W.Spawned && W.Pid > 0)
            ::kill(W.Pid, SIGTERM);
        }
        DrainStopWorkers = true;
      }
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
    if (!Cfg.TempRunDir)
      return;
    for (Worker &W : Fleet) {
      ::unlink(W.ErrPath.c_str());
      removeTree(W.CacheDir);
    }
    ::rmdir(Cfg.RunDir.c_str());
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
    if (!Draining && Cfg.SnapshotIntervalMs)
      Next = std::min(Next, NextSnapshotAt);
    if (Draining) {
      if (DrainBy != Clock::time_point::max())
        Next = std::min(Next, DrainBy);
      if (FinalFlushStarted && !DrainStopWorkers)
        Next = std::min(Next, FinalFlushBy);
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

  EventLoop Loop;
  std::vector<int> ListenFds;
  std::string UnixPath;
  int SigPipe[2] = {-1, -1}, ChldPipe[2] = {-1, -1};

  std::vector<Worker> Fleet;
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> Conns;
  std::unordered_map<uint64_t, Pending> Pendings;
  std::deque<uint64_t> RouteQueue; ///< seqs waiting for a live worker
  OracleSnapshot Global;           ///< union of every worker's exports

  uint64_t NextConnId = 0, NextSeqNum = 0;
  uint64_t Connections = 0, RequestsRouted = 0, RepliesRelayed = 0;
  uint64_t DroppedReplies = 0, ReroutedRequests = 0, RelayErrors = 0;
  uint64_t WorkerRestarts = 0;
  uint64_t SnapshotBroadcasts = 0, SnapshotFactsImported = 0;

  Clock::time_point NextSnapshotAt = Clock::time_point::max();
  bool Draining = false, DrainHard = false;
  bool FinalFlushStarted = false, DrainStopWorkers = false;
  Clock::time_point DrainBy{}, FinalFlushBy{};
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
    } else if (!std::strcmp(Arg, "--snapshot-interval-ms")) {
      if (I + 1 == Argc ||
          !parseCount(Arg, Argv[++I], Cfg.SnapshotIntervalMs))
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
