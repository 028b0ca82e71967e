//===- tests/ServeTests.cpp - c4-serve protocol and cache contract --------===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the real c4-serve binary (path injected as C4_SERVE_PATH) over
/// its stdin JSON-lines protocol: control ops, analysis replies, error
/// replies, shutdown, and the --cache-dir warm-path contract — a repeated
/// request must report a cache hit with an unchanged verdict, including
/// across a server restart. Also pins the c4-analyze --cache-dir contract:
/// warm stats output is byte-identical to cold modulo the per-run frontend
/// timing lines, and exit codes are preserved.
///
/// The ServeTcp/ServeUnix tests exercise the socket serving tier against
/// hostile and concurrent clients: abrupt RST disconnects mid-request
/// (the reply is counted dropped, the server lives), half-written
/// requests, an unterminated line past the 32 MiB guard (one error reply,
/// then the connection closes), a stampede of connections on one analysis
/// fingerprint
/// (single-flight: exactly one backend run), admission-control
/// backpressure, and graceful drain on SIGTERM (every in-flight request
/// still answered, exit 0). A soak over the six quick Table 1 apps puts
/// them together: per-app stampedes and 64 concurrent clients, every
/// reply equal to a one-thread `c4-analyze --stats-json` run.
///
//===----------------------------------------------------------------------===//

#include "ServingTestUtil.h"

#include "gtest/gtest.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

namespace {

using namespace c4test;

std::string examplePath(const char *Name) {
  return std::string(C4_SOURCE_DIR) + "/examples/c4l/" + Name;
}

/// A cache directory name unique to this test process, so re-runs start
/// cold rather than finding a pre-warmed directory from a previous run.
std::string freshCacheDir(const char *Name) {
  return testing::TempDir() + Name + "." + std::to_string(::getpid());
}

void writeFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::trunc);
  Out << Bytes;
  ASSERT_TRUE(Out.good()) << Path;
}

/// Runs c4-serve with \p Requests on stdin (plus \p Flags), captures the
/// reply lines, and checks the exit code.
std::vector<std::string> runServe(const std::string &Requests,
                                  const std::string &Flags = "",
                                  int ExpectExit = 0) {
  // Unique per test process: ctest runs each gtest case as its own process,
  // and a parallel run must not share request/reply spool files.
  std::string Tag = std::to_string(::getpid());
  TempFiles Temp;
  std::string ReqPath =
      Temp.add(testing::TempDir() + "serve_req." + Tag + ".jsonl");
  std::string OutPath =
      Temp.add(testing::TempDir() + "serve_out." + Tag + ".jsonl");
  writeFile(ReqPath, Requests);
  std::string Cmd = std::string(C4_SERVE_PATH) + " " + Flags + " < " +
                    ReqPath + " > " + OutPath + " 2> /dev/null";
  int Status = std::system(Cmd.c_str());
  EXPECT_NE(Status, -1);
  EXPECT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), ExpectExit);
  std::vector<std::string> Lines;
  std::ifstream In(OutPath);
  std::string Line;
  while (std::getline(In, Line))
    Lines.push_back(Line);
  return Lines;
}

/// The reply line echoing \p Id (completion order is not request order).
std::string replyFor(const std::vector<std::string> &Lines,
                     const std::string &Id) {
  std::string Needle = "{\"id\": " + Id + ",";
  for (const std::string &L : Lines)
    if (L.compare(0, Needle.size(), Needle) == 0)
      return L;
  ADD_FAILURE() << "no reply for id " << Id;
  return "";
}

TEST(Serve, PingStatsAndShutdown) {
  auto Lines = runServe("{\"id\": 1, \"op\": \"ping\"}\n"
                        "{\"id\": \"s\", \"op\": \"stats\"}\n"
                        "{\"id\": 2, \"op\": \"shutdown\"}\n");
  EXPECT_TRUE(contains(replyFor(Lines, "1"), "\"pong\": true"));
  std::string Stats = replyFor(Lines, "\"s\"");
  EXPECT_TRUE(contains(Stats, "\"cache_enabled\": false"));
  EXPECT_TRUE(contains(Stats, "\"verdict_hits\": 0"));
  // The shutdown ack is the last line.
  ASSERT_FALSE(Lines.empty());
  EXPECT_TRUE(contains(Lines.back(), "\"shutdown\": true"));
}

TEST(Serve, EofIsCleanShutdownToo) {
  auto Lines = runServe("{\"id\": 1, \"op\": \"ping\"}\n");
  ASSERT_EQ(Lines.size(), 1u);
  EXPECT_TRUE(contains(Lines[0], "\"pong\": true"));
}

TEST(Serve, AnalyzesInlineProgramAndFile) {
  auto Lines = runServe(
      "{\"id\": 1, \"program\": \"container map M;\\ntxn t(k) { "
      "M.put(k, 1); }\\n\"}\n"
      "{\"id\": 2, \"file\": \"" +
      examplePath("uniqueness_bug.c4l") + "\"}\n");
  std::string Clean = replyFor(Lines, "1");
  EXPECT_TRUE(contains(Clean, "\"ok\": true"));
  EXPECT_TRUE(contains(Clean, "\"cache_hit\": false"));
  EXPECT_TRUE(contains(Clean, "\"serializable\": true"));
  EXPECT_TRUE(contains(Clean, "\"file\": \"<inline>\""));
  std::string Buggy = replyFor(Lines, "2");
  EXPECT_TRUE(contains(Buggy, "\"ok\": true"));
  EXPECT_TRUE(contains(Buggy, "\"serializable\": false"));
}

TEST(Serve, PerRequestFailuresAreRepliesNotExits) {
  auto Lines = runServe(
      "this is not json\n"
      "{\"id\": 1}\n"
      "{\"id\": 2, \"program\": \"txn { not c4l\"}\n"
      "{\"id\": 3, \"file\": \"/does/not/exist.c4l\"}\n"
      "{\"id\": 4, \"op\": \"frobnicate\"}\n"
      "{\"id\": 5, \"program\": \"container map M;\\n\", \"max_k\": 0}\n"
      "{\"id\": 6, \"program\": \"container map M;\\n\", "
      "\"threads\": -1}\n"
      // Above the hardware concurrency. The transaction-free program is
      // proved by the fast SSG stage and never builds a thread pool, so
      // even a server that accepted the value would start no thread.
      "{\"id\": 7, \"program\": \"container map M;\\n\", "
      "\"threads\": 4294967295}\n");
  EXPECT_EQ(Lines.size(), 8u);
  for (const std::string &L : Lines)
    EXPECT_TRUE(contains(L, "\"ok\": false")) << L;
  EXPECT_TRUE(
      contains(replyFor(Lines, "1"), "needs \\\"program\\\" or \\\"file\\\""));
  EXPECT_TRUE(contains(replyFor(Lines, "3"), "cannot open"));
  EXPECT_TRUE(contains(replyFor(Lines, "4"), "unknown op"));
  EXPECT_TRUE(contains(replyFor(Lines, "5"), "max_k"));
  EXPECT_TRUE(contains(replyFor(Lines, "6"), "threads"));
  EXPECT_TRUE(contains(replyFor(Lines, "7"), "threads must be at most"));
}

TEST(Serve, CacheHitOnRepeatAndAcrossRestart) {
  TempFiles Temp;
  std::string CacheDir = Temp.add(freshCacheDir("serve_cache_restart"));
  std::string Req = "{\"id\": 1, \"file\": \"" +
                    examplePath("fig11_add_follower.c4l") + "\"}\n";
  // One worker: FIFO processing, so the repeat is deterministically warm.
  std::string Flags = "--workers 1 --cache-dir " + CacheDir;

  auto First = runServe(Req + Req, Flags);
  ASSERT_EQ(First.size(), 2u);
  EXPECT_TRUE(contains(First[0], "\"cache_hit\": false"));
  EXPECT_TRUE(contains(First[1], "\"cache_hit\": true"));
  // A warm reply differs from the cold one only in its cache_hit marker
  // and its timings (frontend and passes always rerun).
  EXPECT_EQ(stripKeys(First[0], {"_seconds"}),
            stripKeys(First[1], {"_seconds"}));

  // A brand-new server process over the same directory hits immediately.
  auto Second = runServe(Req, Flags);
  ASSERT_EQ(Second.size(), 1u);
  EXPECT_TRUE(contains(Second[0], "\"cache_hit\": true"));
  EXPECT_EQ(stripKeys(Second[0], {"_seconds"}),
            stripKeys(First[0], {"_seconds"}));
}

TEST(Serve, DistinctOptionsMissDistinctly) {
  TempFiles Temp;
  std::string CacheDir = Temp.add(freshCacheDir("serve_cache_opts"));
  std::string File = examplePath("fig1_put_get.c4l");
  auto Lines = runServe(
      "{\"id\": 1, \"file\": \"" + File + "\"}\n" +
      "{\"id\": 2, \"file\": \"" + File + "\", \"max_k\": 2}\n" +
      "{\"id\": 3, \"file\": \"" + File + "\"}\n",
      "--workers 1 --cache-dir " + CacheDir);
  ASSERT_EQ(Lines.size(), 3u);
  EXPECT_TRUE(contains(Lines[0], "\"cache_hit\": false"));
  EXPECT_TRUE(contains(Lines[1], "\"cache_hit\": false")); // different key
  EXPECT_TRUE(contains(Lines[2], "\"cache_hit\": true"));
}

/// c4-analyze --cache-dir: warm output is byte-identical to cold modulo
/// the recomputed frontend timing lines, and the exit code is preserved.
TEST(CliCache, WarmStatsByteIdenticalAndExitPreserved) {
  TempFiles Temp;
  std::string CacheDir = Temp.add(freshCacheDir("cli_cache"));
  std::string ColdOut = Temp.add(testing::TempDir() + "cli_cold.json");
  std::string WarmOut = Temp.add(testing::TempDir() + "cli_warm.json");
  std::string Base = std::string(C4_ANALYZE_PATH) + " --stats-json --cache-dir " +
                     CacheDir + " " + examplePath("uniqueness_bug.c4l");

  int Cold = std::system((Base + " > " + ColdOut + " 2>/dev/null").c_str());
  int Warm = std::system((Base + " > " + WarmOut + " 2>/dev/null").c_str());
  ASSERT_TRUE(WIFEXITED(Cold) && WIFEXITED(Warm));
  EXPECT_EQ(WEXITSTATUS(Cold), 1); // violation exit, cold
  EXPECT_EQ(WEXITSTATUS(Warm), 1); // ...and warm

  // Filter out the five per-run frontend/pass timing lines; everything
  // else — every verdict, counter and backend timing — must match.
  auto Filter = [](const std::string &Path) {
    std::ifstream In(Path);
    std::string Line, Out;
    while (std::getline(In, Line))
      if (!(Line.find("_seconds\":") != std::string::npos &&
            (Line.find("frontend_") != std::string::npos ||
             Line.find("lex_") != std::string::npos ||
             Line.find("parse_") != std::string::npos ||
             Line.find("build_") != std::string::npos ||
             Line.find("pass_") != std::string::npos)))
        Out += Line + "\n";
    return Out;
  };
  std::string ColdFiltered = Filter(ColdOut);
  EXPECT_FALSE(ColdFiltered.empty());
  EXPECT_EQ(ColdFiltered, Filter(WarmOut));
}

//===----------------------------------------------------------------------===//
// The socket serving tier.
//===----------------------------------------------------------------------===//

/// A c4-serve child process listening on a socket. Kills the child if a
/// test bails before shutting it down cleanly, and removes its stderr log.
struct ServeProc {
  pid_t Pid = -1;
  int Port = 0; ///< TCP port, when --tcp was used
  std::string ErrPath;

  ~ServeProc() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      int St;
      ::waitpid(Pid, &St, 0);
    }
    std::remove(ErrPath.c_str());
  }

  std::string errLog() const {
    std::ifstream In(ErrPath);
    std::stringstream SS;
    SS << In.rdbuf();
    return SS.str();
  }

  /// Reaps the child (it must exit within ~10s) and returns its exit code,
  /// or -1 on timeout/abnormal death.
  int waitExit() {
    for (int I = 0; I < 1000; ++I) {
      int St;
      pid_t R = ::waitpid(Pid, &St, WNOHANG);
      if (R == Pid) {
        Pid = -1;
        return WIFEXITED(St) ? WEXITSTATUS(St) : -1;
      }
      ::usleep(10 * 1000);
    }
    return -1;
  }
};

/// Spawns `c4-serve <Flags>` and waits until its "listening on" stderr
/// line appears; for --tcp ...:0 servers, parses the kernel-chosen port.
ServeProc spawnServe(const char *Name, const std::string &Flags) {
  ServeProc S;
  S.ErrPath = testing::TempDir() + Name + ".err." + std::to_string(::getpid());
  // A log an earlier process with this pid left behind would announce a
  // dead server's port before the new server truncates it.
  std::remove(S.ErrPath.c_str());
  // `exec` so the pid is c4-serve itself, not the shell — the drain test
  // sends it SIGTERM.
  std::string Cmd =
      std::string("exec ") + C4_SERVE_PATH + " " + Flags + " 2> " + S.ErrPath;
  pid_t Pid = ::fork();
  if (Pid == 0) {
    ::execl("/bin/sh", "sh", "-c", Cmd.c_str(), static_cast<char *>(nullptr));
    _exit(127);
  }
  S.Pid = Pid;
  bool Tcp = Flags.find("--tcp") != std::string::npos;
  for (int I = 0; I < 400; ++I) {
    std::string Log = S.errLog();
    size_t Pos = Log.find("listening on ");
    if (Pos != std::string::npos) {
      if (!Tcp)
        return S;
      size_t Colon = Log.find(':', Pos);
      if (Colon != std::string::npos) {
        S.Port = std::atoi(Log.c_str() + Colon + 1);
        return S;
      }
    }
    ::usleep(25 * 1000);
  }
  ADD_FAILURE() << "server did not come up; stderr: " << S.errLog();
  return S;
}

TEST(ServeTcp, SurvivesAbruptDisconnectAndCountsDroppedReply) {
  ServeProc S = spawnServe("tcp_rst", "--tcp 127.0.0.1:0 --workers 2");
  ASSERT_GT(S.Port, 0);

  // Pipeline a ping with the analysis request: the pong proves the server
  // has read (and admitted) the batch. Then vanish with an RST before the
  // analysis can possibly have been delivered.
  int Victim = connectTcp(S.Port);
  ASSERT_GE(Victim, 0);
  sendAll(Victim, "{\"id\": \"p\", \"op\": \"ping\"}\n{\"id\": \"a\", "
                  "\"file\": \"" +
                      examplePath("fig11_add_follower.c4l") + "\"}\n");
  EXPECT_TRUE(contains(recvLine(Victim), "\"pong\": true"));
  rstClose(Victim);

  // The server must still be fully alive (no SIGPIPE death) and must
  // eventually account the undeliverable reply.
  int Probe = connectTcp(S.Port);
  ASSERT_GE(Probe, 0);
  long Dropped = 0;
  for (int I = 0; I < 600 && Dropped < 1; ++I) {
    std::string Stats = statsOn(Probe);
    ASSERT_TRUE(contains(Stats, "\"ok\": true")) << Stats;
    Dropped = statField(Stats, "replies_dropped");
    if (Dropped < 1)
      ::usleep(50 * 1000);
  }
  EXPECT_EQ(Dropped, 1);

  sendAll(Probe, "{\"id\": 9, \"op\": \"shutdown\"}\n");
  EXPECT_TRUE(contains(recvLine(Probe), "\"shutdown\": true"));
  ::close(Probe);
  EXPECT_EQ(S.waitExit(), 0);
}

TEST(ServeTcp, HalfWrittenRequestThenCloseIsHarmless) {
  ServeProc S = spawnServe("tcp_half", "--tcp 127.0.0.1:0 --workers 1");
  ASSERT_GT(S.Port, 0);

  // A request cut off mid-line with no newline, then a clean close: no
  // reply owed, nothing dropped, nothing leaked.
  int Half = connectTcp(S.Port);
  ASSERT_GE(Half, 0);
  sendAll(Half, "{\"id\": 1, \"program\": \"container ma");
  ::close(Half);

  int Probe = connectTcp(S.Port);
  ASSERT_GE(Probe, 0);
  sendAll(Probe, "{\"id\": 2, \"op\": \"ping\"}\n");
  EXPECT_TRUE(contains(recvLine(Probe), "\"pong\": true"));
  std::string Stats = statsOn(Probe);
  EXPECT_EQ(statField(Stats, "replies_dropped"), 0) << Stats;
  EXPECT_EQ(statField(Stats, "connections"), 2) << Stats;

  sendAll(Probe, "{\"id\": 3, \"op\": \"shutdown\"}\n");
  EXPECT_TRUE(contains(recvLine(Probe), "\"shutdown\": true"));
  ::close(Probe);
  EXPECT_EQ(S.waitExit(), 0);
}

TEST(ServeTcp, OverlongUnterminatedLineGetsOneErrorThenClose) {
  ServeProc S = spawnServe("tcp_overlong", "--tcp 127.0.0.1:0 --workers 1");
  ASSERT_GT(S.Port, 0);

  // One byte past the 32 MiB guard and no newline: one error reply, then
  // the server closes the connection.
  int Fd = connectTcp(S.Port);
  ASSERT_GE(Fd, 0);
  sendAll(Fd, std::string((32u << 20) + 1, 'x'));
  std::string Reply = recvLine(Fd);
  EXPECT_TRUE(contains(Reply, "\"ok\": false")) << Reply;
  EXPECT_TRUE(contains(Reply, "request line exceeds 33554432 bytes"))
      << Reply;
  EXPECT_TRUE(peerClosed(Fd));
  ::close(Fd);

  // Other clients are unaffected.
  int Probe = connectTcp(S.Port);
  ASSERT_GE(Probe, 0);
  sendAll(Probe, "{\"id\": 2, \"op\": \"ping\"}\n");
  EXPECT_TRUE(contains(recvLine(Probe), "\"pong\": true"));
  sendAll(Probe, "{\"id\": 3, \"op\": \"shutdown\"}\n");
  EXPECT_TRUE(contains(recvLine(Probe), "\"shutdown\": true"));
  ::close(Probe);
  EXPECT_EQ(S.waitExit(), 0);
}

TEST(ServeTcp, StampedeOnOneFingerprintRunsBackendOnce) {
  TempFiles Temp;
  std::string CacheDir = Temp.add(freshCacheDir("tcp_stampede"));
  ServeProc S = spawnServe("tcp_stampede", "--tcp 127.0.0.1:0 --workers 8 "
                                           "--cache-dir " +
                                               CacheDir);
  ASSERT_GT(S.Port, 0);

  // Eight connections hammer the same (program, options) fingerprint at
  // once. Between the single-flight layer and the verdict cache, the
  // backend may run exactly once; every reply carries the same verdict.
  constexpr int N = 8;
  std::string Req = "{\"id\": 1, \"file\": \"" +
                    examplePath("fig11_add_follower.c4l") + "\"}\n";
  int Fds[N];
  for (int I = 0; I < N; ++I) {
    Fds[I] = connectTcp(S.Port);
    ASSERT_GE(Fds[I], 0);
  }
  for (int I = 0; I < N; ++I)
    sendAll(Fds[I], Req);
  std::vector<std::string> Replies;
  for (int I = 0; I < N; ++I) {
    Replies.push_back(recvLine(Fds[I]));
    EXPECT_TRUE(contains(Replies.back(), "\"ok\": true")) << Replies.back();
    ::close(Fds[I]);
  }
  for (int I = 1; I < N; ++I)
    EXPECT_EQ(stripKeys(Replies[0], {"_seconds"}),
              stripKeys(Replies[I], {"_seconds"}));

  int Probe = connectTcp(S.Port);
  ASSERT_GE(Probe, 0);
  std::string Stats = statsOn(Probe);
  EXPECT_EQ(statField(Stats, "backend_runs"), 1) << Stats;
  EXPECT_EQ(statField(Stats, "replies_dropped"), 0) << Stats;

  sendAll(Probe, "{\"id\": 2, \"op\": \"shutdown\"}\n");
  EXPECT_TRUE(contains(recvLine(Probe), "\"shutdown\": true"));
  ::close(Probe);
  EXPECT_EQ(S.waitExit(), 0);
}

TEST(ServeTcp, OverloadGetsBackpressureReplyNotQueue) {
  ServeProc S = spawnServe("tcp_overload",
                           "--tcp 127.0.0.1:0 --workers 1 --max-inflight 1");
  ASSERT_GT(S.Port, 0);

  // Three analyses in one packet against a one-slot server: the first is
  // admitted; the loop thread sees the other two while it is still in
  // flight and bounces them immediately with the backpressure shape.
  int Fd = connectTcp(S.Port);
  ASSERT_GE(Fd, 0);
  std::string File = examplePath("fig11_add_follower.c4l");
  sendAll(Fd, "{\"id\": 1, \"file\": \"" + File + "\"}\n{\"id\": 2, \"file\": \"" +
                  File + "\"}\n{\"id\": 3, \"file\": \"" + File + "\"}\n");
  std::vector<std::string> Lines;
  for (int I = 0; I < 3; ++I)
    Lines.push_back(recvLine(Fd));
  std::string Admitted = replyFor(Lines, "1");
  EXPECT_TRUE(contains(Admitted, "\"ok\": true")) << Admitted;
  for (const char *Id : {"2", "3"}) {
    std::string Bounced = replyFor(Lines, Id);
    EXPECT_TRUE(contains(Bounced, "\"ok\": false")) << Bounced;
    EXPECT_TRUE(contains(Bounced, "\"overloaded\": true")) << Bounced;
  }
  std::string Stats = statsOn(Fd);
  EXPECT_EQ(statField(Stats, "overload_rejects"), 2) << Stats;

  sendAll(Fd, "{\"id\": 4, \"op\": \"shutdown\"}\n");
  EXPECT_TRUE(contains(recvLine(Fd), "\"shutdown\": true"));
  ::close(Fd);
  EXPECT_EQ(S.waitExit(), 0);
}

TEST(ServeTcp, SigtermDrainsInflightThenExitsZero) {
  TempFiles Temp;
  std::string CacheDir = Temp.add(freshCacheDir("tcp_drain"));
  ServeProc S = spawnServe("tcp_drain", "--tcp 127.0.0.1:0 --workers 2 "
                                        "--cache-dir " +
                                            CacheDir);
  ASSERT_GT(S.Port, 0);

  // Three clients each get an analysis admitted (the pong proves it was
  // read), then SIGTERM lands mid-flight. Graceful drain: all three
  // replies are still delivered, then the server exits 0.
  constexpr int N = 3;
  const char *Files[N] = {"fig11_add_follower.c4l", "fig1_put_get.c4l",
                          "uniqueness_bug.c4l"};
  int Fds[N];
  for (int I = 0; I < N; ++I) {
    Fds[I] = connectTcp(S.Port);
    ASSERT_GE(Fds[I], 0);
    sendAll(Fds[I], "{\"id\": \"p\", \"op\": \"ping\"}\n{\"id\": \"a\", "
                    "\"file\": \"" +
                        examplePath(Files[I]) + "\"}\n");
    EXPECT_TRUE(contains(recvLine(Fds[I]), "\"pong\": true"));
  }
  ASSERT_EQ(::kill(S.Pid, SIGTERM), 0);

  for (int I = 0; I < N; ++I) {
    std::string Reply = recvLine(Fds[I]);
    EXPECT_TRUE(contains(Reply, "\"id\": \"a\"")) << Reply;
    EXPECT_TRUE(contains(Reply, "\"ok\": true")) << Reply;
    // Drain closes the connection once everything owed is delivered.
    EXPECT_EQ(recvLine(Fds[I]), "");
    ::close(Fds[I]);
  }
  EXPECT_EQ(S.waitExit(), 0);
  EXPECT_TRUE(contains(S.errLog(), "draining (signal)")) << S.errLog();
  // Drain refuses new connections (accept sockets are closed first).
  EXPECT_LT(connectTcp(S.Port), 0);
}

TEST(ServeUnix, BasicFlowOverUnixSocket) {
  std::string Path = testing::TempDir() + "c4serve." +
                     std::to_string(::getpid()) + ".sock";
  ServeProc S = spawnServe("unix_basic", "--socket " + Path + " --workers 2");
  ASSERT_GT(S.Pid, 0);

  int Fd = connectUnix(Path);
  ASSERT_GE(Fd, 0);
  sendAll(Fd, "{\"id\": 1, \"op\": \"ping\"}\n{\"id\": 2, \"program\": "
              "\"container map M;\\ntxn t(k) { M.put(k, 1); }\\n\"}\n");
  EXPECT_TRUE(contains(recvLine(Fd), "\"pong\": true"));
  std::string Reply = recvLine(Fd);
  EXPECT_TRUE(contains(Reply, "\"ok\": true")) << Reply;
  EXPECT_TRUE(contains(Reply, "\"serializable\": true")) << Reply;

  // The accept is attributed to the Unix transport, not TCP.
  std::string Stats = statsOn(Fd);
  EXPECT_GE(statField(Stats, "unix_accepts"), 1) << Stats;
  EXPECT_EQ(statField(Stats, "tcp_accepts"), 0) << Stats;

  sendAll(Fd, "{\"id\": 3, \"op\": \"shutdown\"}\n");
  EXPECT_TRUE(contains(recvLine(Fd), "\"shutdown\": true"));
  ::close(Fd);
  EXPECT_EQ(S.waitExit(), 0);
  // The socket file is removed on drain.
  EXPECT_LT(connectUnix(Path), 0);
}

TEST(ServeTcp, PerTransportAcceptCloseCounters) {
  ServeProc S = spawnServe("tcp_counters", "--tcp 127.0.0.1:0 --workers 1");
  ASSERT_GT(S.Port, 0);

  int A = connectTcp(S.Port), B = connectTcp(S.Port);
  ASSERT_GE(A, 0);
  ASSERT_GE(B, 0);
  // A round-trip on each so both accepts have definitely been processed.
  sendAll(A, "{\"id\": 1, \"op\": \"ping\"}\n");
  EXPECT_TRUE(contains(recvLine(A), "\"pong\": true"));
  sendAll(B, "{\"id\": 1, \"op\": \"ping\"}\n");
  EXPECT_TRUE(contains(recvLine(B), "\"pong\": true"));
  ::close(B);

  // Closes are counted as the reactor notices them, not synchronously.
  long TcpCloses = 0;
  std::string Stats;
  for (int I = 0; I < 400 && TcpCloses < 1; ++I) {
    Stats = statsOn(A);
    TcpCloses = statField(Stats, "tcp_closes");
    ::usleep(10 * 1000);
  }
  EXPECT_GE(statField(Stats, "tcp_accepts"), 2) << Stats;
  EXPECT_GE(TcpCloses, 1) << Stats;
  EXPECT_EQ(statField(Stats, "unix_accepts"), 0) << Stats;
  EXPECT_EQ(statField(Stats, "unix_closes"), 0) << Stats;

  sendAll(A, "{\"id\": 9, \"op\": \"shutdown\"}\n");
  EXPECT_TRUE(contains(recvLine(A), "\"shutdown\": true"));
  ::close(A);
  EXPECT_EQ(S.waitExit(), 0);
}

TEST(ServeTcp, QuickAppSoakMatchesOneThreadReference) {
  TempFiles Temp;
  std::vector<SoakApp> Apps = quickSoakApps("tcp_soak", Temp);
  std::string CacheDir = Temp.add(testing::TempDir() + "tcp_soak_cache");
  std::filesystem::remove_all(CacheDir); // every app's first request is cold
  ServeProc S = spawnServe("tcp_soak", "--tcp 127.0.0.1:0 --workers 0 "
                                       "--max-inflight 0 --cache-dir " +
                                           CacheDir);
  ASSERT_GT(S.Port, 0);
  int Control = connectTcp(S.Port);
  ASSERT_GE(Control, 0);
  auto MatchesReference = [&](size_t A, const std::string &Reply) {
    // Timings, and solver telemetry that depends on which reused Z3
    // context ran the analysis, may differ; nothing else may.
    std::initializer_list<std::string> Telemetry = {
        "_seconds", "rlimit_spent", "solver_ctx_reuses"};
    return stripKeys(Reply, Telemetry) ==
           stripKeys(Apps[A].Reference, Telemetry);
  };

  // Per app, eight identical requests at once cost exactly one backend
  // run (single flight), and every reply is the reference analysis.
  stampede(S.Port, Apps, 8, MatchesReference, [&](size_t A) {
    std::string Stats = statsOn(Control);
    EXPECT_EQ(statField(Stats, "backend_runs"), long(A + 1))
        << Apps[A].Name << ": " << Stats;
  });

  // 64 clients x 2 warm requests: all served from the verdict cache, all
  // still the reference, none dropped.
  EXPECT_EQ(soakClients(S.Port, Apps, 64, 2, MatchesReference), 0u);
  std::string Stats = statsOn(Control);
  EXPECT_EQ(statField(Stats, "backend_runs"), long(Apps.size())) << Stats;
  EXPECT_EQ(statField(Stats, "replies_dropped"), 0) << Stats;
  ::close(Control);

  ASSERT_EQ(::kill(S.Pid, SIGTERM), 0);
  EXPECT_EQ(S.waitExit(), 0) << S.errLog();
}

TEST(CliCache, UnusableCacheDirStillAnalyzes) {
  // Point --cache-dir at a file: the CLI must warn and run cold with the
  // normal exit code, not fail.
  TempFiles Temp;
  std::string NotADir = Temp.add(testing::TempDir() + "cli_cache_notadir");
  writeFile(NotADir, "occupied");
  std::string Cmd = std::string(C4_ANALYZE_PATH) + " --cache-dir " + NotADir +
                    " " + examplePath("highscore_fixed.c4l") +
                    " > /dev/null 2>/dev/null";
  int Status = std::system(Cmd.c_str());
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 0);
}

} // namespace
