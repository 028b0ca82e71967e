//===- tests/RouterTests.cpp - c4-router fleet supervision contract -------===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the real c4-router binary (path injected as C4_ROUTER_PATH) over
/// TCP with a live worker fleet behind it: control ops answered by the
/// router itself, rendezvous routing with sticky warm hits, crash recovery
/// (a SIGKILLed worker is restarted and its traffic re-routed with zero
/// failed replies), hung-worker recovery (a SIGSTOPped worker stops
/// answering pings and is killed, restarted and its requests re-routed),
/// hostile clients (an abrupt RST disconnect costs only that client's
/// relayed reply, counted dropped; a half-written request is harmless; an
/// unterminated line past the 32 MiB guard gets one error reply, then the
/// connection closes), and graceful drain on SIGTERM — exit 0 with no
/// worker process left behind. A soak over the six quick Table 1 apps
/// puts it together: fleet-wide single flight per app, 64 concurrent
/// clients with a worker SIGKILLed while it holds their requests, every
/// reply verdict-equal to a one-thread `c4-analyze` run.
///
//===----------------------------------------------------------------------===//

#include "ServingTestUtil.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

namespace {

using namespace c4test;

std::string examplePath(const char *Name) {
  return std::string(C4_SOURCE_DIR) + "/examples/c4l/" + Name;
}

/// Every worker pid from a router stats reply, in index order (-1 for a
/// worker currently down).
std::vector<long> workerPids(const std::string &Stats) {
  std::vector<long> Pids;
  size_t Pos = 0;
  while ((Pos = Stats.find("\"pid\": ", Pos)) != std::string::npos) {
    Pos += 7;
    Pids.push_back(std::atol(Stats.c_str() + Pos));
  }
  return Pids;
}

struct RouterProc {
  pid_t Pid = -1;
  int Port = 0;
  std::string ErrPath;

  RouterProc() = default;
  RouterProc(RouterProc &&O) noexcept
      : Pid(std::exchange(O.Pid, -1)), Port(O.Port),
        ErrPath(std::move(O.ErrPath)) {}
  /// A test that stops at a failed assertion must not leave the fleet
  /// running: it would hold the test's output pipe, and ctest with it.
  ~RouterProc() {
    kill();
    if (!ErrPath.empty())
      std::remove(ErrPath.c_str());
  }

  std::string errLog() const {
    std::ifstream In(ErrPath);
    std::stringstream SS;
    SS << In.rdbuf();
    return SS.str();
  }

  /// Graceful teardown: SIGTERM (so the router SIGTERMs and reaps its
  /// workers) with a SIGKILL fallback. SIGKILLing a supervisor first would
  /// orphan its children.
  void kill() {
    if (Pid <= 0)
      return;
    ::kill(Pid, SIGTERM);
    for (int I = 0; I < 500; ++I) {
      if (::waitpid(Pid, nullptr, WNOHANG) == Pid) {
        Pid = -1;
        return;
      }
      ::usleep(10 * 1000);
    }
    ::kill(Pid, SIGKILL);
    ::waitpid(Pid, nullptr, 0);
    Pid = -1;
  }
};

/// A numeric field of worker \p Index's entry in a router stats reply's
/// workers_detail, or -1.
long workerField(const std::string &Stats, unsigned Index,
                 const std::string &Key) {
  size_t Pos = Stats.find("{\"index\": " + std::to_string(Index) + ",");
  if (Pos == std::string::npos)
    return -1;
  return statField(Stats.substr(Pos, Stats.find('}', Pos) - Pos), Key);
}

/// Spawns c4-router on a kernel-chosen TCP port and waits for the
/// listening line. The worker fleet comes up asynchronously; tests that
/// need it ready poll stats for workers_up.
RouterProc spawnRouter(const char *Name, const std::string &Flags) {
  RouterProc R;
  R.ErrPath = testing::TempDir() + Name + ".err." + std::to_string(::getpid());
  // A log an earlier process with this pid left behind would announce a
  // dead router's port before the new router truncates it.
  std::remove(R.ErrPath.c_str());
  // `exec` so the pid is c4-router itself, not the shell — drain tests
  // send it SIGTERM.
  std::string Cmd = std::string("exec ") + C4_ROUTER_PATH +
                    " --tcp 127.0.0.1:0 --serve-bin " C4_SERVE_PATH " " +
                    Flags + " 2> " + R.ErrPath;
  pid_t Pid = ::fork();
  if (Pid == 0) {
    ::execl("/bin/sh", "sh", "-c", Cmd.c_str(), static_cast<char *>(nullptr));
    _exit(127);
  }
  R.Pid = Pid;
  for (int I = 0; I < 400; ++I) {
    std::string Log = R.errLog();
    size_t Pos = Log.find("listening on ");
    if (Pos != std::string::npos) {
      size_t Colon = Log.find(':', Pos);
      if (Colon != std::string::npos) {
        R.Port = std::atoi(Log.c_str() + Colon + 1);
        return R;
      }
    }
    ::usleep(25 * 1000);
  }
  ADD_FAILURE() << "router did not come up; stderr: " << R.errLog();
  return R;
}

/// Polls the router until \p Key reaches \p Want (or ~10s pass). Returns
/// the last stats reply either way.
std::string waitForStat(int Fd, const char *Key, long Want) {
  std::string Stats;
  for (int I = 0; I < 400; ++I) {
    Stats = statsOn(Fd);
    if (statField(Stats, Key) >= Want)
      return Stats;
    ::usleep(25 * 1000);
  }
  return Stats;
}

TEST(Router, PingStatsAndFleetBringup) {
  RouterProc R = spawnRouter("rt_basic", "--workers 2 --worker-threads 1");
  ASSERT_GT(R.Port, 0);
  int Fd = connectTcp(R.Port);
  ASSERT_GE(Fd, 0);

  // Control ops are answered by the router itself, marked as such.
  sendAll(Fd, "{\"id\": 1, \"op\": \"ping\"}\n");
  std::string Pong = recvLine(Fd);
  EXPECT_TRUE(contains(Pong, "\"pong\": true")) << Pong;
  EXPECT_TRUE(contains(Pong, "\"router\": true")) << Pong;

  // Both workers come up and report in the per-worker detail.
  std::string Stats = waitForStat(Fd, "workers_up", 2);
  EXPECT_EQ(statField(Stats, "workers"), 2) << Stats;
  EXPECT_EQ(statField(Stats, "workers_up"), 2) << Stats;
  EXPECT_TRUE(contains(Stats, "\"workers_detail\": [")) << Stats;
  std::vector<long> Pids = workerPids(Stats);
  ASSERT_EQ(Pids.size(), 2u) << Stats;
  for (long Pid : Pids)
    EXPECT_GT(Pid, 0) << Stats;

  // Unknown ops and malformed lines error without touching a worker.
  sendAll(Fd, "{\"id\": 2, \"op\": \"frobnicate\"}\n");
  EXPECT_TRUE(contains(recvLine(Fd), "unknown op"));
  sendAll(Fd, "not json\n");
  EXPECT_TRUE(contains(recvLine(Fd), "\"ok\": false"));

  ::close(Fd);
  R.kill();
}

TEST(Router, RoutesAnalysesWithStickyWarmHits) {
  RouterProc R = spawnRouter("rt_route", "--workers 2 --worker-threads 1");
  ASSERT_GT(R.Port, 0);
  int Control = connectTcp(R.Port);
  ASSERT_GE(Control, 0);
  waitForStat(Control, "workers_up", 2);

  std::string Req = "{\"id\": 7, \"file\": \"" +
                    examplePath("fig11_add_follower.c4l") + "\"}\n";

  // Cold request from one client...
  int A = connectTcp(R.Port);
  ASSERT_GE(A, 0);
  sendAll(A, Req);
  std::string Cold = recvLine(A);
  ASSERT_TRUE(contains(Cold, "\"ok\": true")) << Cold;
  EXPECT_TRUE(contains(Cold, "\"id\": 7,")) << Cold;
  EXPECT_TRUE(contains(Cold, "\"cache_hit\": false")) << Cold;
  ::close(A);

  // ...lands on the same worker when a different client repeats it:
  // rendezvous hashing ignores connection identity and the id, so the
  // second request is a verdict-cache hit on the warm worker.
  int B = connectTcp(R.Port);
  ASSERT_GE(B, 0);
  sendAll(B, "{\"id\": \"again\", \"file\": \"" +
                 examplePath("fig11_add_follower.c4l") + "\"}\n");
  std::string Warm = recvLine(B);
  ASSERT_TRUE(contains(Warm, "\"ok\": true")) << Warm;
  EXPECT_TRUE(contains(Warm, "\"id\": \"again\",")) << Warm;
  EXPECT_TRUE(contains(Warm, "\"cache_hit\": true")) << Warm;
  ::close(B);

  std::string Stats = statsOn(Control);
  EXPECT_GE(statField(Stats, "requests_routed"), 2) << Stats;
  EXPECT_GE(statField(Stats, "replies_relayed"), 2) << Stats;
  EXPECT_EQ(statField(Stats, "replies_dropped"), 0) << Stats;

  ::close(Control);
  R.kill();
}

TEST(Router, RestartsKilledWorkerAndDropsNoReplies) {
  RouterProc R = spawnRouter("rt_kill", "--workers 2 --worker-threads 1");
  ASSERT_GT(R.Port, 0);
  int Control = connectTcp(R.Port);
  ASSERT_GE(Control, 0);
  std::string Stats = waitForStat(Control, "workers_up", 2);
  std::vector<long> Pids = workerPids(Stats);
  ASSERT_EQ(Pids.size(), 2u);
  ASSERT_GT(Pids[0], 0);

  // Kill worker 0 outright, then immediately issue requests. The router
  // must route around the corpse (and restart it) without failing any.
  ::kill(static_cast<pid_t>(Pids[0]), SIGKILL);
  for (int I = 0; I < 4; ++I) {
    int Fd = connectTcp(R.Port);
    ASSERT_GE(Fd, 0);
    sendAll(Fd, "{\"id\": 1, \"file\": \"" +
                    examplePath("fig11_add_follower.c4l") + "\"}\n");
    std::string Reply = recvLine(Fd);
    EXPECT_TRUE(contains(Reply, "\"ok\": true")) << Reply;
    ::close(Fd);
  }

  // The fleet heals: the worker is restarted (new pid) and counted.
  Stats = waitForStat(Control, "worker_restarts", 1);
  EXPECT_GE(statField(Stats, "worker_restarts"), 1) << Stats;
  Stats = waitForStat(Control, "workers_up", 2);
  EXPECT_EQ(statField(Stats, "workers_up"), 2) << Stats;
  std::vector<long> After = workerPids(Stats);
  ASSERT_EQ(After.size(), 2u);
  EXPECT_NE(After[0], Pids[0]) << Stats;
  EXPECT_EQ(statField(Stats, "replies_dropped"), 0) << Stats;

  ::close(Control);
  R.kill();
}

TEST(Router, SurvivesAbruptDisconnectAndCountsDroppedReply) {
  RouterProc R = spawnRouter("rt_rst", "--workers 2 --worker-threads 1");
  ASSERT_GT(R.Port, 0);
  int Probe = connectTcp(R.Port);
  ASSERT_GE(Probe, 0);
  waitForStat(Probe, "workers_up", 2);

  // Pipeline a ping with the analysis request: the router's pong proves it
  // has read (and routed) the batch. Then vanish with an RST before the
  // worker can possibly have answered.
  int Victim = connectTcp(R.Port);
  ASSERT_GE(Victim, 0);
  sendAll(Victim, "{\"id\": \"p\", \"op\": \"ping\"}\n{\"id\": \"a\", "
                  "\"file\": \"" +
                      examplePath("fig11_add_follower.c4l") + "\"}\n");
  EXPECT_TRUE(contains(recvLine(Victim), "\"pong\": true"));
  rstClose(Victim);

  // The router stays up and accounts the undeliverable relayed reply.
  long Dropped = 0;
  for (int I = 0; I < 600 && Dropped < 1; ++I) {
    std::string Stats = statsOn(Probe);
    ASSERT_TRUE(contains(Stats, "\"ok\": true")) << Stats;
    Dropped = statField(Stats, "replies_dropped");
    if (Dropped < 1)
      ::usleep(50 * 1000);
  }
  EXPECT_EQ(Dropped, 1);

  ::close(Probe);
  R.kill();
}

TEST(Router, HalfWrittenRequestThenCloseIsHarmless) {
  RouterProc R = spawnRouter("rt_half", "--workers 1 --worker-threads 1");
  ASSERT_GT(R.Port, 0);

  // A request cut off mid-line with no newline, then a clean close: no
  // reply owed, nothing routed, nothing dropped.
  int Half = connectTcp(R.Port);
  ASSERT_GE(Half, 0);
  sendAll(Half, "{\"id\": 1, \"program\": \"container ma");
  ::close(Half);

  int Probe = connectTcp(R.Port);
  ASSERT_GE(Probe, 0);
  sendAll(Probe, "{\"id\": 2, \"op\": \"ping\"}\n");
  EXPECT_TRUE(contains(recvLine(Probe), "\"pong\": true"));
  std::string Stats = statsOn(Probe);
  EXPECT_EQ(statField(Stats, "replies_dropped"), 0) << Stats;
  EXPECT_EQ(statField(Stats, "requests_routed"), 0) << Stats;
  EXPECT_EQ(statField(Stats, "connections"), 2) << Stats;

  ::close(Probe);
  R.kill();
}

TEST(Router, OverlongUnterminatedLineGetsOneErrorThenClose) {
  RouterProc R = spawnRouter("rt_overlong", "--workers 1 --worker-threads 1");
  ASSERT_GT(R.Port, 0);

  // One byte past the 32 MiB guard and no newline: one error reply from
  // the router itself, then it closes the connection.
  int Fd = connectTcp(R.Port);
  ASSERT_GE(Fd, 0);
  sendAll(Fd, std::string((32u << 20) + 1, 'x'));
  std::string Reply = recvLine(Fd);
  EXPECT_TRUE(contains(Reply, "\"ok\": false")) << Reply;
  EXPECT_TRUE(contains(Reply, "request line exceeds 33554432 bytes"))
      << Reply;
  EXPECT_TRUE(peerClosed(Fd));
  ::close(Fd);

  int Probe = connectTcp(R.Port);
  ASSERT_GE(Probe, 0);
  std::string Stats = statsOn(Probe);
  EXPECT_EQ(statField(Stats, "requests_routed"), 0) << Stats;
  ::close(Probe);
  R.kill();
}

/// Waits for the router to exit; returns its wait status, or -1 after
/// ~10 s.
int waitRouterExit(RouterProc &R) {
  for (int I = 0; I < 1000; ++I) {
    int Status = -1;
    if (::waitpid(R.Pid, &Status, WNOHANG) == R.Pid) {
      R.Pid = -1;
      return Status;
    }
    ::usleep(10 * 1000);
  }
  return -1;
}

TEST(Router, KillsAndRestartsStoppedWorker) {
  RouterProc R = spawnRouter("rt_stop", "--workers 2 --worker-threads 1");
  ASSERT_GT(R.Port, 0);
  int Control = connectTcp(R.Port);
  ASSERT_GE(Control, 0);
  std::string Stats = waitForStat(Control, "workers_up", 2);
  std::vector<long> Pids = workerPids(Stats);
  ASSERT_EQ(Pids.size(), 2u);
  ASSERT_GT(Pids[0], 0);

  // Find a request the ring sends to worker 0: the routing key covers the
  // options, so requests differing in max_k spread over both workers.
  auto Request = [](int MaxK) {
    return "{\"id\": " + std::to_string(MaxK) + ", \"max_k\": " +
           std::to_string(MaxK) + ", \"file\": \"" +
           examplePath("fig7_session_keys.c4l") + "\"}\n";
  };
  int OnWorker0 = 0;
  for (int MaxK = 1; MaxK <= 32 && !OnWorker0; ++MaxK) {
    long Before = workerField(Stats, 0, "routed");
    int Fd = connectTcp(R.Port);
    ASSERT_GE(Fd, 0);
    sendAll(Fd, Request(MaxK));
    ASSERT_TRUE(contains(recvLine(Fd), "\"ok\": true"));
    ::close(Fd);
    Stats = statsOn(Control);
    if (workerField(Stats, 0, "routed") > Before)
      OnWorker0 = MaxK;
  }
  ASSERT_GT(OnWorker0, 0) << Stats;

  // Hang worker 0, then send it that request again, together with
  // requests that land anywhere. Its pings go unanswered; after
  // kWedgedGraceMs (15 s) the router kills it, re-routes what it held and
  // restarts it. Every reply must arrive.
  ASSERT_EQ(::kill(static_cast<pid_t>(Pids[0]), SIGSTOP), 0);
  std::vector<int> Fds;
  for (int MaxK : {OnWorker0, 40, 41, 42}) {
    int Fd = connectTcp(R.Port);
    ASSERT_GE(Fd, 0);
    sendAll(Fd, Request(MaxK));
    Fds.push_back(Fd);
  }
  for (int Fd : Fds) {
    std::string Reply = recvLine(Fd, 60000);
    EXPECT_TRUE(contains(Reply, "\"ok\": true")) << Reply;
    ::close(Fd);
  }

  Stats = waitForStat(Control, "worker_restarts", 1);
  EXPECT_EQ(statField(Stats, "worker_restarts"), 1) << Stats;
  EXPECT_GE(statField(Stats, "rerouted_requests"), 1) << Stats;
  EXPECT_EQ(statField(Stats, "replies_dropped"), 0) << Stats;
  Stats = waitForStat(Control, "workers_up", 2);
  EXPECT_EQ(statField(Stats, "workers_up"), 2) << Stats;
  std::vector<long> After = workerPids(Stats);
  ASSERT_EQ(After.size(), 2u);
  EXPECT_NE(After[0], Pids[0]) << Stats;
  EXPECT_NE(::kill(static_cast<pid_t>(Pids[0]), 0), 0)
      << "the stopped worker is still alive";
  ::close(Control);

  ::kill(R.Pid, SIGTERM);
  int Status = waitRouterExit(R);
  ASSERT_NE(Status, -1) << "router did not exit; stderr: " << R.errLog();
  EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0)
      << "status " << Status << "; stderr: " << R.errLog();
}

TEST(Router, SigtermDrainsToExitZeroAndReapsWorkers) {
  RouterProc R = spawnRouter("rt_drain", "--workers 2 --worker-threads 1");
  ASSERT_GT(R.Port, 0);
  int Control = connectTcp(R.Port);
  ASSERT_GE(Control, 0);
  std::string Stats = waitForStat(Control, "workers_up", 2);
  std::vector<long> Pids = workerPids(Stats);
  ASSERT_EQ(Pids.size(), 2u);
  ::close(Control);

  ::kill(R.Pid, SIGTERM);
  int Status = -1;
  pid_t Reaped = -1;
  for (int I = 0; I < 1000; ++I) {
    Reaped = ::waitpid(R.Pid, &Status, WNOHANG);
    if (Reaped == R.Pid)
      break;
    ::usleep(10 * 1000);
  }
  ASSERT_EQ(Reaped, R.Pid) << "router did not exit; stderr: " << R.errLog();
  R.Pid = -1;
  EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0)
      << "status " << Status << "; stderr: " << R.errLog();

  // No worker process may outlive the router.
  for (long Pid : Pids)
    EXPECT_TRUE(Pid <= 0 || ::kill(static_cast<pid_t>(Pid), 0) != 0)
        << "worker " << Pid << " survived the drain";
}

TEST(Router, ShutdownOpDrainsLikeSigterm) {
  RouterProc R = spawnRouter("rt_shutdown", "--workers 2 --worker-threads 1");
  ASSERT_GT(R.Port, 0);
  int Fd = connectTcp(R.Port);
  ASSERT_GE(Fd, 0);
  waitForStat(Fd, "workers_up", 2);

  sendAll(Fd, "{\"id\": 9, \"op\": \"shutdown\"}\n");
  std::string Ack = recvLine(Fd);
  EXPECT_TRUE(contains(Ack, "\"shutdown\": true")) << Ack;
  EXPECT_EQ(recvLine(Fd, 5000), ""); // connection closes after the ack
  ::close(Fd);

  int Status = -1;
  pid_t Reaped = -1;
  for (int I = 0; I < 1000; ++I) {
    Reaped = ::waitpid(R.Pid, &Status, WNOHANG);
    if (Reaped == R.Pid)
      break;
    ::usleep(10 * 1000);
  }
  ASSERT_EQ(Reaped, R.Pid) << "router did not exit; stderr: " << R.errLog();
  R.Pid = -1;
  EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0)
      << "status " << Status << "; stderr: " << R.errLog();
}

/// The sum of \p Key over the workers' own stats, asked on their backhaul
/// sockets under the router's \p CacheDir (a worker that is down
/// contributes nothing).
long sumWorkerStat(const std::string &CacheDir, unsigned Workers,
                   const char *Key) {
  long Sum = 0;
  for (unsigned I = 0; I != Workers; ++I) {
    int Fd = connectUnix(CacheDir + "/worker-" + std::to_string(I) + ".sock");
    if (Fd < 0)
      continue;
    if (trySendAll(Fd, "{\"id\": 0, \"op\": \"stats\"}\n"))
      Sum += std::max(0L, statField(recvLine(Fd), Key));
    ::close(Fd);
  }
  return Sum;
}

TEST(Router, QuickAppSoakSurvivesWorkerKill) {
  TempFiles Temp;
  std::vector<SoakApp> Apps = quickSoakApps("rt_soak", Temp);
  std::string CacheDir = Temp.add(testing::TempDir() + "rt_soak_cache");
  std::filesystem::remove_all(CacheDir); // every app's first request is cold
  RouterProc R = spawnRouter("rt_soak", "--workers 2 --worker-threads 1 "
                                        "--max-inflight 0 --cache-dir " +
                                            CacheDir);
  ASSERT_GT(R.Port, 0);
  int Control = connectTcp(R.Port);
  ASSERT_GE(Control, 0);
  std::string Stats = waitForStat(Control, "workers_up", 2);
  ASSERT_EQ(statField(Stats, "workers_up"), 2) << Stats;
  // Each worker's cache evolves along its own shard, so replies are
  // compared to the reference by verdict, not counter for counter.
  auto SameVerdict = [&](size_t A, const std::string &Reply) {
    return verdictSignature(Reply) == verdictSignature(Apps[A].Reference);
  };

  // Identical concurrent requests cost one backend run fleet-wide:
  // rendezvous routing pins them to one worker, whose single flight
  // collapses them.
  stampede(R.Port, Apps, 8, SameVerdict, [&](size_t A) {
    EXPECT_EQ(sumWorkerStat(CacheDir, 2, "backend_runs"), long(A + 1))
        << Apps[A].Name;
  });

  // 64 clients x 2 requests. Between the rounds, half the replies in, the
  // worker that owns the most apps is stopped; once second-round requests
  // are held by it, it is SIGKILLed. The router must re-route what the
  // dead worker held and restart it: every reply still arrives, ok and
  // verdict-equal.
  Stats = statsOn(Control);
  std::vector<long> Before = workerPids(Stats);
  ASSERT_EQ(Before.size(), 2u) << Stats;
  unsigned Victim = workerField(Stats, 1, "routed") >
                            workerField(Stats, 0, "routed")
                        ? 1
                        : 0;
  pid_t VictimPid = static_cast<pid_t>(Before[Victim]);
  ASSERT_GT(VictimPid, 0) << Stats;
  long HeldAtKill = -1;
  std::thread Killer;
  auto KillMidSoak = [&] {
    ASSERT_EQ(::kill(VictimPid, SIGSTOP), 0);
    Killer = std::thread([&] {
      int Fd = connectTcp(R.Port);
      for (int I = 0; I < 500 && HeldAtKill <= 0; ++I) {
        if (Fd < 0 || !trySendAll(Fd, "{\"id\": 0, \"op\": \"stats\"}\n"))
          break;
        HeldAtKill = workerField(recvLine(Fd), Victim, "inflight");
        if (HeldAtKill <= 0)
          ::usleep(10 * 1000);
      }
      ::kill(VictimPid, SIGKILL);
      if (Fd >= 0)
        ::close(Fd);
    });
  };
  EXPECT_EQ(soakClients(R.Port, Apps, 64, 2, SameVerdict, KillMidSoak), 0u);
  if (Killer.joinable())
    Killer.join();
  EXPECT_GT(HeldAtKill, 0) << "the stopped worker was never sent a request";

  Stats = waitForStat(Control, "worker_restarts", 1);
  EXPECT_EQ(statField(Stats, "replies_dropped"), 0) << Stats;
  EXPECT_GE(statField(Stats, "worker_restarts"), 1) << Stats;
  EXPECT_GE(statField(Stats, "rerouted_requests"), 1) << Stats;
  // Two workers that each ran every app would spend 2 x 6 backend runs.
  long BackendRuns = sumWorkerStat(CacheDir, 2, "backend_runs");
  EXPECT_GT(BackendRuns, 0);
  EXPECT_LT(BackendRuns, long(2 * Apps.size()));

  // SIGTERM drains to exit 0, and no worker outlives the router.
  std::vector<long> Pids = workerPids(waitForStat(Control, "workers_up", 2));
  ::close(Control);
  ::kill(R.Pid, SIGTERM);
  int Status = waitRouterExit(R);
  ASSERT_NE(Status, -1) << "router did not exit; stderr: " << R.errLog();
  EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0)
      << "status " << Status << "; stderr: " << R.errLog();
  for (long Pid : Pids)
    EXPECT_TRUE(Pid <= 0 || ::kill(static_cast<pid_t>(Pid), 0) != 0)
        << "worker " << Pid << " survived the drain";
}

} // namespace
