//===- tests/ServingTestUtil.h - Socket clients for the serving tests -----===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What ServeTests.cpp and RouterTests.cpp share to drive the real c4-serve
/// and c4-router binaries over their sockets: blocking line-protocol
/// clients, stats-reply parsing, and the quick-app soak — the six apps of
/// `bench_table1 --quick`, each with a one-thread `c4-analyze --stats-json`
/// reference (path injected as C4_ANALYZE_PATH), and a fleet of
/// closed-loop client threads.
///
//===----------------------------------------------------------------------===//

#ifndef C4_TESTS_SERVINGTESTUTIL_H
#define C4_TESTS_SERVINGTESTUTIL_H

#include "TempFiles.h"
#include "apps/Apps.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace c4test {

inline bool contains(const std::string &Haystack, const std::string &Needle) {
  return Haystack.find(Needle) != std::string::npos;
}

inline int connectTcp(int Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(static_cast<uint16_t>(Port));
  ::inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

inline int connectUnix(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    ::close(Fd);
    return -1;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// Sends all of \p Bytes; false when the peer is gone.
inline bool trySendAll(int Fd, const std::string &Bytes) {
  size_t Off = 0;
  while (Off < Bytes.size()) {
    ssize_t N =
        ::send(Fd, Bytes.data() + Off, Bytes.size() - Off, MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return true;
}

inline void sendAll(int Fd, const std::string &Bytes) {
  ASSERT_TRUE(trySendAll(Fd, Bytes)) << "send: " << std::strerror(errno);
}

/// Reads one newline-terminated reply (newline stripped). Empty string on
/// EOF or after \p TimeoutMs of silence.
inline std::string recvLine(int Fd, int TimeoutMs = 60000) {
  std::string Line;
  for (;;) {
    char C;
    ssize_t N = ::recv(Fd, &C, 1, MSG_DONTWAIT);
    if (N == 1) {
      if (C == '\n')
        return Line;
      Line += C;
      continue;
    }
    if (N == 0)
      return "";
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
      return "";
    pollfd P{Fd, POLLIN, 0};
    if (::poll(&P, 1, TimeoutMs) <= 0)
      return "";
  }
}

/// Closes \p Fd with SO_LINGER{on,0}: the kernel sends RST, the hardest
/// form of client disappearance.
inline void rstClose(int Fd) {
  linger L{1, 0};
  ::setsockopt(Fd, SOL_SOCKET, SO_LINGER, &L, sizeof(L));
  ::close(Fd);
}

/// True when the peer has closed \p Fd (EOF or reset) within \p TimeoutMs
/// and nothing more was sent before that.
inline bool peerClosed(int Fd, int TimeoutMs = 10000) {
  pollfd P{Fd, POLLIN, 0};
  if (::poll(&P, 1, TimeoutMs) <= 0)
    return false;
  char C;
  ssize_t N = ::recv(Fd, &C, 1, MSG_DONTWAIT);
  return N == 0 || (N < 0 && errno == ECONNRESET);
}

/// Extracts the integer value of \p Key from a one-line JSON reply, or -1.
inline long statField(const std::string &Reply, const std::string &Key) {
  size_t Pos = Reply.find("\"" + Key + "\": ");
  if (Pos == std::string::npos)
    return -1;
  return std::atol(Reply.c_str() + Pos + Key.size() + 4);
}

/// One stats round-trip on an existing connection.
inline std::string statsOn(int Fd) {
  sendAll(Fd, "{\"id\": \"st\", \"op\": \"stats\"}\n");
  return recvLine(Fd);
}

//===----------------------------------------------------------------------===//
// The quick-app soak
//===----------------------------------------------------------------------===//

/// The `"stats"` object of a reply (or of a `--stats-json` document) on one
/// line, with the value of every field whose key ends in one of \p Keys
/// removed. Everything else is the analysis and must match byte for byte.
inline std::string stripKeys(const std::string &Reply,
                             std::initializer_list<std::string> Keys) {
  std::string Line;
  for (char C : Reply)
    if (C != '\n')
      Line += C;
  size_t Stats = Line.find("\"stats\": ");
  if (Stats != std::string::npos) // drop the reply envelope
    Line = Line.substr(Stats + 9, Line.rfind('}') - Stats - 9);
  size_t Pos = 0;
  std::string Out;
  while (Pos < Line.size()) {
    size_t Key = std::string::npos, Skip = 0;
    for (const std::string &K : Keys) {
      size_t At = Line.find(K + "\": ", Pos);
      if (At < Key) {
        Key = At;
        Skip = K.size() + 3;
      }
    }
    if (Key == std::string::npos) {
      Out += Line.substr(Pos);
      break;
    }
    Out += Line.substr(Pos, Key + Skip - Pos);
    Pos = Line.find_first_of(",}", Key + Skip);
  }
  return Out;
}

/// The analysis conclusion of a reply: its structural and verdict fields,
/// none of the counters that depend on a worker's cache history.
inline std::string verdictSignature(const std::string &Reply) {
  std::string Sig;
  for (const char *K :
       {"\"transactions\": ", "\"events\": ", "\"events_after_passes\": ",
        "\"lint_warnings\": ", "\"serializable\": ", "\"generalized\": ",
        "\"violations\": ", "\"violations_validated\": ",
        "\"violations_unvalidated\": ", "\"violations_inconclusive\": ",
        "\"k_checked\": ", "\"truncated\": "}) {
    size_t Pos = Reply.find(K);
    if (Pos == std::string::npos) {
      Sig += "?;";
      continue;
    }
    size_t Start = Pos + std::strlen(K);
    Sig += Reply.substr(Start, Reply.find_first_of(",}\n", Start) - Start);
    Sig += ';';
  }
  return Sig;
}

/// How long a soak client waits for one reply. A cold Super Chat takes
/// 7 s at one thread in an optimized build; after a worker kill the
/// survivor re-runs the dead worker's apps one after the other, and
/// debug and sanitizer builds are several times slower.
constexpr int SoakReplyMs = 300000;

/// One app of the soak: its request line and its reference stats.
struct SoakApp {
  std::string Name;
  std::string Request;   ///< `{"id": "x", "file": <path>}` and a newline
  std::string Reference; ///< `c4-analyze --threads 1 --stats-json <path>`
};

/// The six apps of `bench_table1 --quick`, written to files under the test
/// temp dir that \p Temp removes (\p Tag keeps the tests that run at once
/// apart), each with its one-thread CLI reference: the analysis c4-serve
/// runs for a request that sets no option.
inline std::vector<SoakApp> quickSoakApps(const std::string &Tag,
                                          TempFiles &Temp) {
  std::vector<SoakApp> Apps;
  for (unsigned I = 0; I != 6; ++I) {
    const c4bench::BenchApp &B = c4bench::benchApps()[I];
    std::string Path = Temp.add(testing::TempDir() + Tag + "_app" +
                                std::to_string(I) + ".c4l");
    std::ofstream(Path) << B.Source;
    std::string Cmd = std::string(C4_ANALYZE_PATH) +
                      " --threads 1 --stats-json " + Path + " 2>/dev/null";
    std::string Ref;
    if (std::FILE *Out = ::popen(Cmd.c_str(), "r")) {
      char Buf[4096];
      size_t N;
      while ((N = std::fread(Buf, 1, sizeof(Buf), Out)) > 0)
        Ref.append(Buf, N);
      ::pclose(Out);
    }
    EXPECT_TRUE(contains(Ref, "\"serializable\": ")) << B.Name << ": " << Ref;
    Apps.push_back({B.Name, "{\"id\": \"x\", \"file\": \"" + Path + "\"}\n",
                    Ref});
  }
  return Apps;
}

/// Per app, \p Width connections send its request at once; every reply
/// must be ok and satisfy \p Check. \p AfterApp runs once all replies of
/// app \p A are in.
inline void
stampede(int Port, const std::vector<SoakApp> &Apps, unsigned Width,
         const std::function<bool(size_t, const std::string &)> &Check,
         const std::function<void(size_t)> &AfterApp) {
  for (size_t A = 0; A != Apps.size(); ++A) {
    std::vector<int> Fds;
    for (unsigned I = 0; I != Width; ++I) {
      int Fd = connectTcp(Port);
      ASSERT_GE(Fd, 0);
      Fds.push_back(Fd);
      sendAll(Fd, Apps[A].Request);
    }
    for (int Fd : Fds) {
      std::string Reply = recvLine(Fd, SoakReplyMs);
      EXPECT_TRUE(contains(Reply, "\"ok\": true") && Check(A, Reply))
          << Apps[A].Name << ": " << Reply;
      ::close(Fd);
    }
    AfterApp(A);
  }
}

/// \p Clients concurrent connections, each sending \p Rounds requests,
/// client T's request of round R for app (T + R) mod |Apps|. Every reply
/// must be ok and satisfy \p Check. A round starts once every reply of the
/// previous one is in, after \p BetweenRounds (when given) has run.
/// Returns the number of failed requests.
inline unsigned
soakClients(int Port, const std::vector<SoakApp> &Apps, unsigned Clients,
            unsigned Rounds,
            const std::function<bool(size_t, const std::string &)> &Check,
            const std::function<void()> &BetweenRounds = nullptr) {
  std::atomic<unsigned> Connected{0}, Released{0}, Replies{0}, Failed{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != Clients; ++T)
    Threads.emplace_back([&, T] {
      int Fd = connectTcp(Port);
      ++Connected;
      for (unsigned R = 0; R != Rounds; ++R) {
        while (Released.load() <= R)
          ::usleep(1000);
        size_t A = (T + R) % Apps.size();
        std::string Reply;
        if (Fd >= 0 && trySendAll(Fd, Apps[A].Request))
          Reply = recvLine(Fd, SoakReplyMs);
        if (!contains(Reply, "\"ok\": true") || !Check(A, Reply)) {
          std::fprintf(stderr, "client %u: %s: bad reply: %.300s\n", T,
                       Apps[A].Name.c_str(), Reply.c_str());
          ++Failed;
        }
        ++Replies;
      }
      if (Fd >= 0)
        ::close(Fd);
    });
  while (Connected.load() != Clients)
    ::usleep(1000);
  for (unsigned R = 0; R != Rounds; ++R) {
    if (R && BetweenRounds)
      BetweenRounds();
    Released.store(R + 1);
    while (Replies.load() != Clients * (R + 1))
      ::usleep(1000);
  }
  for (std::thread &Th : Threads)
    Th.join();
  return Failed.load();
}

} // namespace c4test

#endif // C4_TESTS_SERVINGTESTUTIL_H
