//===- perfbench/loadgen.cpp - Load generator for perfbench/run.py -------===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one benchmark workload from a plan that perfbench/run.py generates
/// from the seed, and writes every raw observation as one JSON document.
/// Checking verdicts against the known answers and turning samples into
/// metrics is run.py's job; this program only drives the analyzer and
/// times it.
///
///   perfbench-loadgen <plan.json> <out.json>
///
/// Plan modes:
///   "inproc"  (workloads cold and edit) calls the public entry points
///             compileC4L, runPasses, the AnalysisCache constructor and
///             analyzeCached in this process, pass after pass, while passes
///             fit in the plan's seconds;
///   "serve"   (workloads serve and serve-sharded) starts c4-serve or
///             c4-router on loopback TCP, warms it, then keeps a fixed
///             number of requests in flight over a few connections for the
///             plan's seconds, reads the stats op and drains the server;
///   "txns"    compiles each program and reports its transaction count.
///
/// With "trace" set, every call into a layer is recorded as a span (name,
/// start, end, parent, request) kept in memory and written to the plan's
/// trace file at exit; the analyzer's QueryTrace records become children of
/// their analyzeCached span.
///
//===----------------------------------------------------------------------===//

#include "abstract/Concretize.h"
#include "analysis/Pipeline.h"
#include "frontend/Frontend.h"
#include "history/DSG.h"
#include "history/Relations.h"
#include "passes/PassManager.h"
#include "support/Json.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <csignal>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace c4;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

[[noreturn]] void fail(const std::string &Msg) {
  std::fprintf(stderr, "perfbench-loadgen: %s\n", Msg.c_str());
  std::exit(2);
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    fail("cannot read " + Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

const JsonValue &field(const JsonValue &Obj, const char *Key) {
  const JsonValue *V = Obj.get(Key);
  if (!V)
    fail(std::string("plan lacks \"") + Key + "\"");
  return *V;
}

const std::string &str(const JsonValue &Obj, const char *Key) {
  const std::string *S = field(Obj, Key).asString();
  if (!S)
    fail(std::string("plan field \"") + Key + "\" is not a string");
  return *S;
}

int64_t num(const JsonValue &Obj, const char *Key) {
  std::optional<int64_t> I = field(Obj, Key).asInt();
  if (!I)
    fail(std::string("plan field \"") + Key + "\" is not an integer");
  return *I;
}

const std::vector<JsonValue> &arr(const JsonValue &Obj, const char *Key) {
  const std::vector<JsonValue> *A = field(Obj, Key).asArray();
  if (!A)
    fail(std::string("plan field \"") + Key + "\" is not an array");
  return *A;
}

std::vector<std::string> strings(const JsonValue &Obj, const char *Key) {
  std::vector<std::string> Out;
  for (const JsonValue &V : arr(Obj, Key)) {
    const std::string *S = V.asString();
    if (!S)
      fail(std::string("plan field \"") + Key + "\" holds a non-string");
    Out.push_back(*S);
  }
  return Out;
}

std::string fmt(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  return Buf;
}

std::string quote(const std::string &S) { return "\"" + jsonEscape(S) + "\""; }

template <typename T, typename F>
std::string jsonList(const std::vector<T> &Items, F Render) {
  std::string Out = "[";
  for (size_t I = 0; I != Items.size(); ++I)
    Out += (I ? ", " : "") + Render(Items[I]);
  return Out + "]";
}

std::string numbers(const std::vector<double> &V) {
  return jsonList(V, [](double D) { return fmt(D); });
}

/// Adds every numeric or boolean member of \p Stats into \p Sum.
void addStats(std::map<std::string, double> &Sum, const JsonValue &Stats) {
  const auto *Members = Stats.asObject();
  if (!Members)
    return;
  for (const auto &[Key, V] : *Members) {
    if (std::optional<double> D = V.asDouble())
      Sum[Key] += *D;
    else if (std::optional<bool> B = V.asBool())
      Sum[Key] += *B;
  }
}

std::string sums(const std::map<std::string, double> &Sum) {
  std::string Out = "{";
  for (const auto &[Key, V] : Sum)
    Out += (Out.size() > 1 ? ", " : "") + quote(Key) + ": " + fmt(V);
  return Out + "}";
}

/// In-memory span recorder; a no-op unless tracing is on.
class Tracer {
public:
  explicit Tracer(bool Enabled) : On(Enabled), Origin(Clock::now()) {}

  bool enabled() const { return On; }

  /// Opens a span and returns its id (-1 when tracing is off).
  long open(const char *Name, long Parent, long Request) {
    if (!On)
      return -1;
    std::lock_guard<std::mutex> Lock(Mu);
    Spans.push_back({Name, now(), -1, Parent, Request});
    return static_cast<long>(Spans.size()) - 1;
  }

  void close(long Id) {
    if (Id < 0)
      return;
    double End = now();
    std::lock_guard<std::mutex> Lock(Mu);
    Spans[Id].End = End;
  }

  /// Records a finished span whose duration is known but whose start is
  /// not (the analyzer's query records, the server's reported stages).
  void addDuration(const char *Name, double Seconds, long Parent,
                   long Request) {
    if (!On)
      return;
    std::lock_guard<std::mutex> Lock(Mu);
    Spans.push_back({Name, -1, Seconds, Parent, Request});
  }

  /// Writes one JSON object per span: times in seconds since the tracer
  /// started; "start" is null for duration-only spans.
  void write(const std::string &Path) const {
    if (!On)
      return;
    std::ofstream Out(Path);
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      Out << "{\"id\": " << I << ", \"name\": " << quote(S.Name)
          << ", \"parent\": " << S.Parent << ", \"request\": " << S.Request;
      if (S.Start < 0)
        Out << ", \"start\": null, \"dur\": " << fmt(S.End) << "}\n";
      else
        Out << ", \"start\": " << fmt(S.Start) << ", \"end\": " << fmt(S.End)
            << "}\n";
    }
    if (!Out)
      fail("cannot write trace " + Path);
  }

private:
  struct Span {
    std::string Name;
    double Start, End; ///< End holds the duration when Start < 0
    long Parent, Request;
  };
  double now() const { return secondsSince(Origin); }

  bool On;
  Clock::time_point Origin;
  std::mutex Mu;
  std::vector<Span> Spans;
};

/// RAII span.
class Scope {
public:
  Scope(Tracer &Tr, const char *Name, long Parent, long Request)
      : T(Tr), Id(Tr.open(Name, Parent, Request)) {}
  ~Scope() { T.close(Id); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  long id() const { return Id; }

private:
  Tracer &T;
  long Id;
};

//===----------------------------------------------------------------------===//
// In-process workloads (cold, edit)
//===----------------------------------------------------------------------===//

/// One program brought to a verdict through the public entry points.
struct ProgramRun {
  double Seconds = 0; ///< cache open + compile + passes + analysis
  std::string Record; ///< JSON object for the output
};

/// Re-checks a witness without the SMT stage: the concrete history must
/// concretize the program's abstract history and its DSG must be cyclic.
bool witnessHolds(const CounterExample &CE, const AbstractHistory &A) {
  if (!findConcretization(CE.H, A))
    return false;
  EventRelations Rel(CE.H);
  return buildDSG(CE.H, computeDependencies(CE.H, CE.S, Rel)).hasCycle();
}

/// True when a traced query reached Z3 (rather than being answered by the
/// domain prefilter or replayed from the incremental layers).
bool reachedZ3(const QueryRecord &Q) {
  return Q.Attempts && !Q.Reused && !Q.Prefiltered;
}

const char *mark(const Violation &V) {
  if (V.Inconclusive)
    return "inconclusive";
  return V.Validated ? "validated" : "unvalidated";
}

ProgramRun runProgram(const std::string &Source, const std::string &CacheDir,
                      unsigned Threads, Tracer &T, long Request) {
  ProgramRun Out;
  Clock::time_point Start = Clock::now();
  long Root = T.open("program", -1, Request);

  double OpenSeconds = 0;
  std::unique_ptr<AnalysisCache> Cache;
  if (!CacheDir.empty()) {
    Scope S(T, "analysis.cache_open", Root, Request);
    Clock::time_point T0 = Clock::now();
    Cache = std::make_unique<AnalysisCache>(CacheDir, /*Incremental=*/true);
    OpenSeconds = secondsSince(T0);
    if (!Cache->enabled())
      fail("cannot open cache directory " + CacheDir);
  }

  std::optional<CompileResult> Compiled;
  {
    Scope S(T, "frontend", Root, Request);
    Compiled = compileC4L(Source);
  }
  if (!Compiled->ok())
    fail("compile error: " + Compiled->Error);
  CompiledProgram &P = *Compiled->Program;

  PassResult Passes;
  {
    Scope S(T, "passes", Root, Request);
    PassOptions PassOpts;
    PassOpts.Lint = false;
    Passes = runPasses(P, PassOpts, &Source);
  }
  if (!Passes.Ok)
    fail("pass error: " + Passes.Error);

  AnalyzerOptions Options;
  Options.DisplayFilter = true;
  Options.UseAtomicSets = true;
  Options.NumThreads = Threads;
  Options.AtomicSets = P.AtomicSets;
  QueryTrace Queries;
  if (T.enabled())
    Options.Trace = &Queries;
  PipelineResult Result;
  double AnalyzeSeconds = 0;
  {
    Scope S(T, "analysis", Root, Request);
    Clock::time_point T0 = Clock::now();
    Result = analyzeCached(*P.History, Options, *P.Registry, Cache.get());
    AnalyzeSeconds = secondsSince(T0);
    for (const QueryRecord &Q : Queries.records())
      T.addDuration(reachedZ3(Q) ? "smt.query" : "smt.query_answered",
                    Q.WallMs / 1e3, S.id(), Request);
  }
  uint64_t VerdictHits = Cache ? Cache->verdictHits() : 0;
  uint64_t VerdictMisses = Cache ? Cache->verdictMisses() : 0;
  DiskCacheStats Disk = Cache ? Cache->diskStats() : DiskCacheStats{};
  Cache.reset(); // a restarted CLI run ends here
  Out.Seconds = secondsSince(Start);
  T.close(Root);

  // Everything below is the benchmark's own checking, outside the timing.
  const AnalysisResult &R = Result.R;
  std::vector<double> WitnessMs;
  unsigned WitnessFailures = 0;
  std::string Violations = "[";
  for (const Violation &V : R.Violations) {
    std::vector<std::string> Names = V.TxnNames;
    std::sort(Names.begin(), Names.end());
    if (V.Validated && !V.Inconclusive) {
      Clock::time_point T0 = Clock::now();
      bool Holds = V.CE && witnessHolds(*V.CE, *P.History);
      WitnessMs.push_back(secondsSince(T0) * 1e3);
      WitnessFailures += !Holds;
    }
    Violations += (Violations.size() > 1 ? ", " : "") +
                  std::string("{\"txns\": ") + jsonList(Names, quote) +
                  ", \"mark\": \"" + mark(V) + "\"}";
  }
  Violations += "]";

  std::vector<double> QueryMs;
  for (const QueryRecord &Q : Queries.records())
    if (reachedZ3(Q))
      QueryMs.push_back(Q.WallMs);

  StatsJsonFields F;
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

  Out.Record =
      "{\"seconds\": " + fmt(Out.Seconds) + ", \"serializable\": " +
      (R.serializable() ? "true" : "false") + ", \"violations\": " +
      Violations + ", \"witness_failures\": " +
      std::to_string(WitnessFailures) + ", \"witness_ms\": " +
      numbers(WitnessMs) + ", \"query_ms\": " + numbers(QueryMs) +
      ", \"cache_open_seconds\": " + fmt(OpenSeconds) +
      ", \"analyze_seconds\": " + fmt(AnalyzeSeconds) +
      ", \"oracle_imported\": " + std::to_string(Result.OracleImported) +
      ", \"verdict_hits\": " + std::to_string(VerdictHits) +
      ", \"verdict_misses\": " + std::to_string(VerdictMisses) +
      ", \"disk_hits\": " + std::to_string(Disk.Hits) +
      ", \"disk_misses\": " + std::to_string(Disk.Misses) +
      ", \"disk_stores\": " + std::to_string(Disk.Stores) +
      ", \"stats\": " + renderStatsJson(F, R) + "}";
  return Out;
}

double peakRssMb() {
  rusage U{};
  ::getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

/// Plan: "programs" (sources) analyzed once per set-up repetition — without
/// a cache for cold, into one incremental cache directory each for edit — then
/// "passes", each a list of {"program", "source"} analyzed in order: at
/// least "min_passes", and more while they fit in "seconds".
std::string runInProcess(const JsonValue &Plan, Tracer &T) {
  const std::string &Workload = str(Plan, "workload");
  bool Edit = Workload == "edit";
  double Budget = static_cast<double>(num(Plan, "seconds"));
  unsigned Threads = static_cast<unsigned>(num(Plan, "threads"));
  unsigned SetupReps = static_cast<unsigned>(num(Plan, "setup_reps"));
  std::string WorkDir = str(Plan, "work_dir");
  std::vector<std::string> Programs = strings(Plan, "programs");
  long Request = 0;

  // Set-up: one untimed pass over the programs. cold: analyzed without a
  // cache, so the process's lazy initialization is done before timing.
  // edit: analyzed into one fresh incremental cache directory each, as a
  // first `c4-analyze --incremental-cache` run does; the last repetition's
  // directories serve the timed edits.
  std::vector<double> SetupSeconds;
  std::vector<std::string> Dirs(Programs.size());
  Tracer Off(false);
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    Clock::time_point T0 = Clock::now();
    for (size_t I = 0; I != Programs.size(); ++I) {
      if (Edit) {
        Dirs[I] = WorkDir + "/setup" + std::to_string(Rep) + "/p" +
                  std::to_string(I);
        std::filesystem::remove_all(Dirs[I]);
        std::filesystem::create_directories(Dirs[I]);
      }
      runProgram(Programs[I], Dirs[I], Threads, Off, -1);
    }
    SetupSeconds.push_back(secondsSince(T0));
  }

  // A traced run alternates traced and untraced passes, so the tracing
  // overhead is measured within the run; it needs one of each.
  unsigned MinPasses = static_cast<unsigned>(num(Plan, "min_passes"));
  if (T.enabled())
    MinPasses = std::max(MinPasses, 2u);
  // Another pass starts only if one more like the last still ends within
  // the budget, so a run measures about its seconds and no more.
  std::string Passes = "[";
  unsigned Done = 0;
  double LastPass = 0;
  Clock::time_point Start = Clock::now();
  for (const JsonValue &Pass : arr(Plan, "passes")) {
    if (Done >= MinPasses && secondsSince(Start) + LastPass > Budget)
      break;
    Clock::time_point PassStart = Clock::now();
    bool Traced = T.enabled() && Done % 2 == 0;
    const std::vector<JsonValue> *Items = Pass.asArray();
    if (!Items)
      fail("a pass is not an array");
    std::string Records = "[";
    double PassSeconds = 0;
    for (const JsonValue &Item : *Items) {
      size_t Prog = static_cast<size_t>(num(Item, "program"));
      if (Prog >= Programs.size())
        fail("pass names an unknown program");
      ProgramRun Run = runProgram(str(Item, "source"), Dirs[Prog], Threads,
                                  Traced ? T : Off, Request++);
      PassSeconds += Run.Seconds;
      Records += (Records.size() > 1 ? ", " : "") + Run.Record;
    }
    Passes += (Passes.size() > 1 ? ", " : "") +
              std::string("{\"seconds\": ") + fmt(PassSeconds) +
              ", \"traced\": " + (Traced ? "true" : "false") +
              ", \"programs\": " + Records + "]}";
    ++Done;
    LastPass = secondsSince(PassStart);
  }
  Passes += "]";
  return "{\"setup_seconds\": " + numbers(SetupSeconds) +
         ", \"peak_rss_mb\": " + fmt(peakRssMb()) + ", \"passes\": " + Passes +
         "}";
}

//===----------------------------------------------------------------------===//
// Serving workloads (serve, serve-sharded)
//===----------------------------------------------------------------------===//

/// A spawned server process (c4-serve or c4-router).
struct Server {
  pid_t Pid = -1;
  int Port = 0;
};

Server startServer(const std::vector<std::string> &Argv,
                   const std::string &Cwd, const std::string &ErrPath) {
  Server S;
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  S.Pid = ::fork();
  if (S.Pid < 0)
    fail("fork failed");
  if (S.Pid == 0) {
    int Err = ::open(ErrPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    int Null = ::open("/dev/null", O_RDWR);
    if (Err < 0 || Null < 0 || ::chdir(Cwd.c_str()) != 0)
      ::_exit(127);
    ::dup2(Null, 0);
    ::dup2(Null, 1);
    ::dup2(Err, 2);
    ::execv(Args[0], Args.data());
    ::_exit(127);
  }
  // The server reports its port on stderr once it listens.
  Clock::time_point T0 = Clock::now();
  while (secondsSince(T0) < 30) {
    std::ifstream In(ErrPath);
    std::string Line;
    while (std::getline(In, Line)) {
      size_t At = Line.find("listening on 127.0.0.1:");
      if (At != std::string::npos) {
        S.Port = std::atoi(Line.c_str() + At + 23);
        return S;
      }
    }
    int Status = 0;
    if (::waitpid(S.Pid, &Status, WNOHANG) == S.Pid)
      fail(Argv[0] + " exited during start-up; see " + ErrPath);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  fail(Argv[0] + " did not start listening; see " + ErrPath);
}

/// Sends SIGTERM and waits for the drain; true on exit code 0 in time.
bool drainServer(Server &S) {
  ::kill(S.Pid, SIGTERM);
  Clock::time_point T0 = Clock::now();
  while (secondsSince(T0) < 60) {
    int Status = 0;
    pid_t R = ::waitpid(S.Pid, &Status, WNOHANG);
    if (R == S.Pid) {
      S.Pid = -1;
      return WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(S.Pid, SIGKILL);
  ::waitpid(S.Pid, nullptr, 0);
  S.Pid = -1;
  return false;
}

/// Peak resident set of a live process, from /proc (0 if unreadable).
double vmHwmMb(pid_t Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0;
  return 0;
}

/// A blocking JSON-lines client connection.
class Conn {
public:
  Conn() = default;
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;
  ~Conn() {
    if (Fd >= 0)
      ::close(Fd);
  }

  bool connectTcp(int Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(static_cast<uint16_t>(Port));
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (Fd < 0 ||
        ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)))
      return false;
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    return setTimeout();
  }

  bool connectUnix(const std::string &Path) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (Fd < 0 || Path.size() >= sizeof(Addr.sun_path))
      return false;
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)))
      return false;
    return setTimeout();
  }

  bool send(const std::string &Line) {
    size_t Done = 0;
    while (Done < Line.size()) {
      ssize_t N = ::send(Fd, Line.data() + Done, Line.size() - Done,
                         MSG_NOSIGNAL);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Done += static_cast<size_t>(N);
    }
    return true;
  }

  /// Reads one reply line; false on timeout, error or EOF.
  bool readLine(std::string &Line) {
    for (;;) {
      size_t Nl = Buf.find('\n');
      if (Nl != std::string::npos) {
        Line = Buf.substr(0, Nl);
        Buf.erase(0, Nl + 1);
        return true;
      }
      char Chunk[65536];
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Buf.append(Chunk, static_cast<size_t>(N));
    }
  }

private:
  bool setTimeout() {
    timeval TV{};
    TV.tv_sec = 120; // a reply this late counts as missing
    return ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &TV, sizeof(TV)) == 0;
  }

  int Fd = -1;
  std::string Buf;
};

std::optional<JsonValue> ask(Conn &C, const std::string &Line) {
  std::string Reply, Err;
  if (!C.send(Line) || !C.readLine(Reply))
    return std::nullopt;
  return parseJson(Reply, Err);
}

/// One request's outcome, as the client saw it.
struct Sample {
  int Program = 0;   ///< stream entry: >= 0 warm program, < 0 miss -1-i
  double RttMs = 0;
  const char *Status = "missing"; ///< ok | error | overloaded | missing
  bool CacheHit = false;
  std::string Verdict; ///< JSON summary of the reply's verdict fields
  double FrontendMs = 0, PassesMs = 0, BackendMs = 0;
  double DoneAt = 0; ///< reply time, seconds since the loop started
  bool Traced = false;
  std::string Error;
};

std::string statNum(const JsonValue &Stats, const char *Key) {
  const JsonValue *V = Stats.get(Key);
  if (!V)
    return "null";
  if (std::optional<bool> B = V->asBool())
    return *B ? "true" : "false";
  std::optional<double> D = V->asDouble();
  return D ? fmt(*D) : "null";
}

double statSeconds(const JsonValue &Stats, const char *Key) {
  const JsonValue *V = Stats.get(Key);
  std::optional<double> D = V ? V->asDouble() : std::nullopt;
  return D ? *D : 0;
}

/// Stats-JSON sums over a loop's replies: all of them, and the freshly
/// analyzed ones (a cache hit's back-end fields are the cold run's).
struct ReplySums {
  std::map<std::string, double> All, Fresh;
};

/// Parses a reply into \p S and adds its stats to \p Sums.
void readReply(const JsonValue &Reply, Sample &S, ReplySums &Sums) {
  const JsonValue *Ok = Reply.get("ok");
  if (!Ok || !Ok->asBool() || !*Ok->asBool()) {
    const JsonValue *Over = Reply.get("overloaded");
    S.Status = Over && Over->asBool() && *Over->asBool() ? "overloaded"
                                                         : "error";
    const JsonValue *Err = Reply.get("error");
    S.Error = Err && Err->asString() ? *Err->asString() : "no error text";
    return;
  }
  const JsonValue *Stats = Reply.get("stats");
  const JsonValue *Hit = Reply.get("cache_hit");
  if (!Stats || !Stats->asObject()) {
    S.Status = "error";
    S.Error = "reply without stats";
    return;
  }
  S.Status = "ok";
  S.CacheHit = Hit && Hit->asBool() && *Hit->asBool();
  S.Verdict = std::string("{\"transactions\": ") +
              statNum(*Stats, "transactions") +
              ", \"serializable\": " + statNum(*Stats, "serializable") +
              ", \"violations\": " + statNum(*Stats, "violations") +
              ", \"validated\": " + statNum(*Stats, "violations_validated") +
              ", \"unvalidated\": " +
              statNum(*Stats, "violations_unvalidated") +
              ", \"inconclusive\": " +
              statNum(*Stats, "violations_inconclusive") + "}";
  S.FrontendMs = statSeconds(*Stats, "frontend_seconds") * 1e3;
  S.PassesMs = statSeconds(*Stats, "pass_seconds") * 1e3;
  S.BackendMs = statSeconds(*Stats, "backend_seconds") * 1e3;
  addStats(Sums.All, *Stats);
  if (!S.CacheHit)
    addStats(Sums.Fresh, *Stats);
}

std::string requestLine(size_t Id, const std::string &EscapedSource) {
  return "{\"id\": " + std::to_string(Id) + ", \"program\": \"" +
         EscapedSource + "\"}\n";
}

/// Drives \p Clients connections until \p Budget seconds pass, going round
/// \p Hits as often as needed (0: once through \p Hits). Each connection
/// keeps \p Window requests in flight and sends the next one whenever a
/// reply arrives (a closed loop of Clients x Window requests): the next
/// first-seen program once one is due (\p MissRate per second, from the
/// start of the loop), else the next resubmission from \p Hits (indices
/// into \p Warm). Every other request is traced when \p T is on, so the
/// run also measures the tracing overhead.
std::vector<Sample> closedLoop(int Port, unsigned Clients, unsigned Window,
                               const std::vector<std::string> &Warm,
                               const std::vector<std::string> &Misses,
                               const std::vector<int> &Hits, double MissRate,
                               double Budget, Tracer &T, ReplySums &Sums,
                               size_t IdBase) {
  std::atomic<size_t> NextHit{0}, NextMiss{0}, NextId{IdBase};
  std::mutex Mu; // guards Out and Sums
  std::vector<Sample> Out;
  Tracer Off(false);
  Clock::time_point Start = Clock::now();
  // Picks the next request, or returns false when there is none to send.
  auto Next = [&](Sample &S) {
    double Now = secondsSince(Start);
    if (Budget > 0 && Now >= Budget)
      return false;
    size_t Miss = NextMiss.load();
    if (Miss < Misses.size() && Miss < Now * MissRate &&
        NextMiss.compare_exchange_strong(Miss, Miss + 1)) {
      S.Program = -1 - static_cast<int>(Miss);
      return true;
    }
    size_t Hit = NextHit.fetch_add(1);
    if (Budget == 0 && Hit >= Hits.size())
      return false;
    S.Program = Hits[Hit % Hits.size()];
    return true;
  };
  auto Client = [&] {
    struct InFlight {
      Sample S;
      Clock::time_point Sent;
      long Span;
    };
    Conn C;
    bool Open = C.connectTcp(Port), Sending = true;
    std::map<size_t, InFlight> Pending; // by request id
    std::vector<Sample> Mine;
    ReplySums Local;
    for (;;) {
      while (Open && Sending && Pending.size() < Window) {
        Sample S;
        if (!Next(S)) {
          Sending = false;
          break;
        }
        size_t Id = NextId.fetch_add(1);
        S.Traced = T.enabled() && Id % 2 == 0;
        const std::string &Src =
            S.Program >= 0 ? Warm[S.Program] : Misses[-1 - S.Program];
        long Span = (S.Traced ? T : Off).open("request", -1, long(Id));
        Clock::time_point Sent = Clock::now();
        Open = C.send(requestLine(Id, Src));
        Pending.emplace(Id, InFlight{std::move(S), Sent, Span});
      }
      if (Pending.empty())
        break;
      std::string Reply, Err;
      std::optional<JsonValue> J;
      if (Open && C.readLine(Reply))
        J = parseJson(Reply, Err);
      const JsonValue *IdField = J ? J->get("id") : nullptr;
      std::optional<int64_t> Id = IdField ? IdField->asInt() : std::nullopt;
      auto It = Id ? Pending.find(static_cast<size_t>(*Id)) : Pending.end();
      if (It == Pending.end()) {
        // No reply, or one this connection cannot match: the connection's
        // state is unknown, so every request still in flight is missing.
        for (auto &[Key, F] : Pending) {
          F.S.Error = Open ? "no reply or unmatched reply" : "connection lost";
          Mine.push_back(std::move(F.S));
        }
        break;
      }
      InFlight &F = It->second;
      Sample &S = F.S;
      S.RttMs = secondsSince(F.Sent) * 1e3;
      S.DoneAt = secondsSince(Start);
      Tracer &Tr = S.Traced ? T : Off;
      Tr.close(F.Span);
      readReply(*J, S, Local);
      Tr.addDuration("serve.frontend", S.FrontendMs / 1e3, F.Span, long(*Id));
      Tr.addDuration("serve.passes", S.PassesMs / 1e3, F.Span, long(*Id));
      if (!S.CacheHit)
        Tr.addDuration("serve.backend", S.BackendMs / 1e3, F.Span, long(*Id));
      Mine.push_back(std::move(S));
      Pending.erase(It);
    }
    std::lock_guard<std::mutex> Lock(Mu);
    for (const auto &[K, V] : Local.All)
      Sums.All[K] += V;
    for (const auto &[K, V] : Local.Fresh)
      Sums.Fresh[K] += V;
    for (Sample &S : Mine)
      Out.push_back(std::move(S));
  };
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I != Clients; ++I)
    Threads.emplace_back(Client);
  for (std::thread &Th : Threads)
    Th.join();
  std::sort(Out.begin(), Out.end(), [](const Sample &A, const Sample &B) {
    return A.DoneAt < B.DoneAt;
  });
  return Out;
}

std::string samplesJson(const std::vector<Sample> &Samples) {
  return jsonList(Samples, [](const Sample &S) {
    return "[" + std::to_string(S.Program) + ", " + fmt(S.RttMs) + ", \"" +
           S.Status + "\", " + (S.CacheHit ? "true" : "false") + ", " +
           (S.Verdict.empty() ? "null" : S.Verdict) + ", " +
           fmt(S.FrontendMs) + ", " + fmt(S.PassesMs) + ", " +
           fmt(S.BackendMs) + ", " + (S.Traced ? "true" : "false") + ", " +
           quote(S.Error) + ", " + fmt(S.DoneAt) + "]";
  });
}

/// Waits until the server is ready: it answers the stats op and, behind a
/// router, every worker is up (requests routed while a worker is still
/// starting would land on, and warm, the wrong shard).
bool awaitReady(int Port) {
  Clock::time_point T0 = Clock::now();
  while (secondsSince(T0) < 30) {
    Conn C;
    std::optional<JsonValue> Stats;
    if (C.connectTcp(Port))
      Stats = ask(C, "{\"id\": 0, \"op\": \"stats\"}\n");
    const JsonValue *Ok = Stats ? Stats->get("ok") : nullptr;
    const JsonValue *Workers = Stats ? Stats->get("workers") : nullptr;
    const JsonValue *Up = Stats ? Stats->get("workers_up") : nullptr;
    if (Ok && Ok->asBool().value_or(false) &&
        (!Workers || (Up && Up->asInt() == Workers->asInt())))
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// Plan: "server" ("serve" or "router") with its "binary", "warm" sources,
/// "misses" sources sent at "miss_rate" per second and "hits", a list of
/// warm indices to resubmit. Each set-up
/// repetition starts a fresh server on a fresh cache directory and warms it
/// with every warm program; the last server stays up for the timed stream.
std::string runServe(const JsonValue &Plan, Tracer &T) {
  bool Router = str(Plan, "server") == "router";
  std::string Bin = str(Plan, "binary");
  double Budget = static_cast<double>(num(Plan, "seconds"));
  unsigned Clients = static_cast<unsigned>(num(Plan, "clients"));
  unsigned Window = static_cast<unsigned>(num(Plan, "window"));
  unsigned SetupReps = static_cast<unsigned>(num(Plan, "setup_reps"));
  std::string WorkDir = str(Plan, "work_dir");
  std::vector<std::string> Warm, Misses;
  for (const std::string &Src : strings(Plan, "warm"))
    Warm.push_back(jsonEscape(Src));
  for (const std::string &Src : strings(Plan, "misses"))
    Misses.push_back(jsonEscape(Src));
  std::vector<int> Hits;
  for (const JsonValue &V : arr(Plan, "hits"))
    Hits.push_back(static_cast<int>(V.asInt().value_or(0)));
  const JsonValue &Rate = field(Plan, "miss_rate");
  double MissRate = Rate.asDouble().value_or(0);
  std::vector<int> WarmOrder;
  for (size_t I = 0; I != Warm.size(); ++I)
    WarmOrder.push_back(static_cast<int>(I));

  std::vector<double> SetupSeconds;
  std::string Warmups = "[";
  unsigned UncleanDrains = 0;
  Server S;
  std::string CacheDir;
  ReplySums Ignored;
  Tracer Off(false);
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    // Relative to the server's working directory: the router puts its
    // workers' Unix sockets there, and sun_path is short.
    CacheDir = "cache" + std::to_string(Rep);
    std::filesystem::remove_all(WorkDir + "/" + CacheDir);
    std::vector<std::string> Argv = {Bin, "--tcp", "127.0.0.1:0", "--workers",
                                     "2", "--cache-dir", CacheDir};
    if (Router) {
      Argv.push_back("--worker-threads");
      Argv.push_back("1");
    }
    Clock::time_point T0 = Clock::now();
    S = startServer(Argv, WorkDir,
                    WorkDir + "/server" + std::to_string(Rep) + ".err");
    if (!awaitReady(S.Port))
      fail(Bin + " did not become ready");
    std::vector<Sample> Got =
        closedLoop(S.Port, Clients, Window, Warm, Misses, WarmOrder, 0, 0, Off,
                   Ignored, Rep * Warm.size());
    SetupSeconds.push_back(secondsSince(T0));
    Warmups += (Warmups.size() > 1 ? ", " : "") + samplesJson(Got);
    if (Rep + 1 != SetupReps)
      UncleanDrains += !drainServer(S);
  }
  Warmups += "]";

  ReplySums Sums;
  Clock::time_point Start = Clock::now();
  std::vector<Sample> Timed =
      closedLoop(S.Port, Clients, Window, Warm, Misses, Hits, MissRate, Budget,
                 T, Sums, SetupReps * Warm.size());
  double Elapsed = secondsSince(Start);

  // Counters from the stats op; behind a router, each worker's own stats
  // too (their backend runs are not in the router's fleet view).
  std::string StatsJson = "null", WorkerStats = "[";
  double RssMb = vmHwmMb(S.Pid);
  Conn C;
  std::optional<JsonValue> Stats;
  if (C.connectTcp(S.Port))
    Stats = ask(C, "{\"id\": \"stats\", \"op\": \"stats\"}\n");
  if (Stats) {
    StatsJson = renderJson(*Stats);
    const JsonValue *Detail = Stats->get("workers_detail");
    const std::vector<JsonValue> *Workers = Detail ? Detail->asArray() : nullptr;
    for (size_t I = 0; Workers && I != Workers->size(); ++I) {
      const JsonValue *Pid = (*Workers)[I].get("pid");
      if (Pid && Pid->asInt())
        RssMb += vmHwmMb(static_cast<pid_t>(*Pid->asInt()));
      Conn W;
      std::optional<JsonValue> WS;
      if (W.connectUnix(WorkDir + "/" + CacheDir + "/worker-" +
                        std::to_string(I) + ".sock"))
        WS = ask(W, "{\"id\": \"stats\", \"op\": \"stats\"}\n");
      WorkerStats += (WorkerStats.size() > 1 ? ", " : "") +
                     (WS ? renderJson(*WS) : std::string("null"));
    }
  }
  WorkerStats += "]";
  UncleanDrains += !drainServer(S);

  return "{\"setup_seconds\": " + numbers(SetupSeconds) +
         ", \"elapsed_seconds\": " + fmt(Elapsed) +
         ", \"peak_rss_mb\": " + fmt(RssMb) +
         ", \"unclean_drains\": " + std::to_string(UncleanDrains) +
         ", \"drains\": " + std::to_string(SetupReps) +
         ", \"warmups\": " + Warmups + ", \"timed\": " + samplesJson(Timed) +
         ", \"all\": " + sums(Sums.All) + ", \"fresh\": " + sums(Sums.Fresh) +
         ", \"stats\": " + StatsJson +
         ", \"worker_stats\": " + WorkerStats + "}";
}

std::string runTxnCounts(const JsonValue &Plan) {
  std::vector<std::string> Programs = strings(Plan, "programs");
  return "{\"transactions\": " +
         jsonList(Programs,
                  [](const std::string &Src) {
                    CompileResult C = compileC4L(Src);
                    return C.ok() ? std::to_string(C.Program->History->numTxns())
                                  : std::string("null");
                  }) +
         "}";
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 3) {
    std::fprintf(stderr, "usage: %s <plan.json> <out.json>\n", Argv[0]);
    return 2;
  }
  std::string Err;
  std::optional<JsonValue> Plan = parseJson(readFile(Argv[1]), Err);
  if (!Plan)
    fail(std::string("bad plan: ") + Err);
  const std::string &Mode = str(*Plan, "mode");
  const JsonValue *TraceFlag = Plan->get("trace");
  Tracer T(TraceFlag && TraceFlag->asInt().value_or(0) != 0);

  std::string Out;
  if (Mode == "inproc")
    Out = runInProcess(*Plan, T);
  else if (Mode == "serve")
    Out = runServe(*Plan, T);
  else if (Mode == "txns")
    Out = runTxnCounts(*Plan);
  else
    fail("unknown mode " + Mode);

  if (T.enabled())
    T.write(str(*Plan, "trace_file"));
  std::ofstream File(Argv[2]);
  File << Out << "\n";
  if (!File)
    fail(std::string("cannot write ") + Argv[2]);
  return 0;
}
