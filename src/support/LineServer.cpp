//===- support/LineServer.cpp ---------------------------------------------===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "support/LineServer.h"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <set>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace c4;

namespace {

/// Hostile-client guard: a request line may not exceed this many bytes.
constexpr size_t kMaxLineBytes = 32u << 20;

/// Write end of the signal self-pipe; the handler writes the signal number.
std::atomic<int> SignalFd{-1};

extern "C" void onSignalByte(int Sig) {
  int Fd = SignalFd.load(std::memory_order_relaxed);
  if (Fd >= 0) {
    int Saved = errno;
    char B = static_cast<char>(Sig);
    ssize_t N = ::write(Fd, &B, 1);
    (void)N;
    errno = Saved;
  }
}

} // namespace

std::string c4::renderId(const JsonValue *Id) {
  if (Id) {
    if (const std::string *S = Id->asString())
      return "\"" + jsonEscape(*S) + "\"";
    if (std::optional<int64_t> I = Id->asInt())
      return std::to_string(*I);
  }
  return "null";
}

std::string c4::errorReply(const std::string &Id, const std::string &Msg) {
  return "{\"id\": " + Id + ", \"ok\": false, \"error\": \"" +
         jsonEscape(Msg) + "\"}";
}

bool c4::readAvailable(int Fd, std::string &Buf, bool &Eof) {
  char Chunk[65536];
  for (;;) {
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N > 0) {
      Buf.append(Chunk, static_cast<size_t>(N));
      continue;
    }
    if (N == 0) {
      Eof = true;
      return true;
    }
    if (errno == EINTR)
      continue;
    return errno == EAGAIN || errno == EWOULDBLOCK;
  }
}

SendResult c4::sendBuffered(int Fd, std::string &Buf, size_t &Off) {
  while (Off < Buf.size()) {
    ssize_t N =
        ::send(Fd, Buf.data() + Off, Buf.size() - Off, MSG_NOSIGNAL);
    if (N > 0) {
      Off += static_cast<size_t>(N);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return SendResult::Blocked;
    return SendResult::Failed;
  }
  if (Off) {
    Buf.clear();
    Off = 0;
  }
  return SendResult::Done;
}

void c4::eachLine(std::string &Buf,
                  const std::function<bool(const std::string &)> &Fn) {
  size_t Start = 0;
  for (;;) {
    size_t Nl = Buf.find('\n', Start);
    if (Nl == std::string::npos)
      break;
    std::string Line = Buf.substr(Start, Nl - Start);
    Start = Nl + 1;
    while (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    if (!Line.empty() && !Fn(Line))
      return;
  }
  Buf.erase(0, Start);
}

LineServer::LineServer(const char *NameArg) : Name(NameArg) {}

LineServer::~LineServer() {
  SignalFd.store(-1);
  for (int Fd : SigPipe)
    if (Fd >= 0)
      ::close(Fd);
}

bool LineServer::listenUnix(const std::string &Path) {
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
  std::fprintf(stderr, "%s: listening on %s\n", Name, Path.c_str());
  return true;
}

bool LineServer::listenTcp(const std::string &Spec) {
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
  std::fprintf(stderr, "%s: listening on %s:%s\n", Name, HostBuf, PortBuf);
  return true;
}

void LineServer::start() {
  onSignal(SIGTERM, 0, [this] { startDrain("signal"); });
  onSignal(SIGINT, 0, [this] { startDrain("signal"); });
  for (const Listener &L : Listeners)
    Loop.add(L.Fd, EventLoop::Read, [this, L](unsigned) { acceptReady(L); });
}

void LineServer::onSignal(int Sig, int Flags, std::function<void()> Fn) {
  if (SigPipe[0] < 0) {
    if (::pipe2(SigPipe, O_NONBLOCK | O_CLOEXEC) != 0)
      return;
    SignalFd.store(SigPipe[1]);
    Loop.add(SigPipe[0], EventLoop::Read, [this](unsigned) { signalled(); });
  }
  SignalHandlers[Sig] = std::move(Fn);
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onSignalByte;
  ::sigemptyset(&SA.sa_mask);
  SA.sa_flags = Flags;
  ::sigaction(Sig, &SA, nullptr);
}

void LineServer::signalled() {
  std::set<int> Raised;
  char Buf[64];
  ssize_t N = 0;
  while ((N = ::read(SigPipe[0], Buf, sizeof(Buf))) > 0)
    Raised.insert(Buf, Buf + N);
  for (int Sig : Raised) {
    auto It = SignalHandlers.find(Sig);
    if (It != SignalHandlers.end())
      It->second();
  }
}

void LineServer::acceptReady(const Listener &L) {
  for (;;) {
    int Fd =
        ::accept4(L.Fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      return; // EAGAIN or a transient error; poll re-arms
    }
    int One = 1; // harmless ENOPROTOOPT on AF_UNIX
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    ++Counters.Connections;
    ++(L.Tcp ? Counters.TcpAccepts : Counters.UnixAccepts);
    uint64_t Id = ++NextConnId;
    auto C = std::make_unique<Conn>();
    C->Fd = Fd;
    C->Id = Id;
    C->Tcp = L.Tcp;
    Conns.emplace(Id, std::move(C));
    Loop.add(Fd, EventLoop::Read,
             [this, Id](unsigned Ev) { connEvent(Id, Ev); });
  }
}

void LineServer::connEvent(uint64_t Id, unsigned Ev) {
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

void LineServer::readable(Conn &C) {
  if (!readAvailable(C.Fd, C.ReadBuf, C.Eof)) {
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

  // A line's handler may deliver replies that close this very connection.
  uint64_t Id = C.Id;
  bool Open = true;
  eachLine(C.ReadBuf, [&](const std::string &Line) {
    processLine(C, Line);
    Open = Conns.count(Id) != 0;
    return Open;
  });
  if (!Open)
    return;
  // A half-written trailing line at EOF is discarded: there is no peer
  // left to answer and no newline to delimit a request.
  if (C.Eof)
    C.ReadBuf.clear();
  if (flushConn(C))
    maybeFinishConn(C);
}

void LineServer::processLine(Conn &C, const std::string &Line) {
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
  const JsonValue *Op = Req->get("op");
  if (!Op) {
    onRequest(C, *Req, Id, Line);
    return;
  }
  const std::string *OpName = Op->asString();
  if (!OpName) {
    enqueue(C, errorReply(Id, "op expects a string"));
  } else if (*OpName == "shutdown") {
    C.ShutdownWanted = true;
    C.ShutdownId = Id;
    maybeAckShutdown(C);
  } else {
    enqueue(C, controlReply(*OpName, Id));
  }
}

/// The shutdown op acks only after this connection's outstanding work is
/// delivered, then the whole server drains.
void LineServer::maybeAckShutdown(Conn &C) {
  if (!C.ShutdownWanted || C.ShutdownAcked || C.Pending != 0)
    return;
  C.ShutdownAcked = true;
  C.CloseWhenFlushed = true;
  enqueue(C, "{\"id\": " + C.ShutdownId + ", \"ok\": true, "
                                          "\"shutdown\": true}");
  startDrain("shutdown op");
}

void LineServer::enqueue(Conn &C, const std::string &Reply) {
  C.WriteBuf += Reply;
  C.WriteBuf += '\n';
}

void LineServer::reply(uint64_t ConnId, const std::string &Reply) {
  auto It = Conns.find(ConnId);
  if (It == Conns.end()) {
    // The peer vanished while its request was worked on.
    ++Counters.RepliesDropped;
    return;
  }
  Conn &C = *It->second;
  --C.Pending;
  enqueue(C, Reply);
  maybeAckShutdown(C);
  if (flushConn(C))
    maybeFinishConn(C);
}

/// Retries EINTR, parks on EAGAIN (POLLOUT re-arms), and treats only real
/// peer errors as fatal — in which case every undelivered reply is counted
/// dropped.
bool LineServer::flushConn(Conn &C) {
  switch (sendBuffered(C.Fd, C.WriteBuf, C.WriteOff)) {
  case SendResult::Blocked:
    Loop.setInterest(C.Fd,
                     (C.Eof ? 0u : EventLoop::Read) | EventLoop::Write);
    return true;
  case SendResult::Failed:
    closeConn(C, /*CountDrops=*/true);
    return false;
  case SendResult::Done:
    break;
  }
  Loop.setInterest(C.Fd, C.Eof ? 0u : EventLoop::Read);
  if (C.CloseWhenFlushed) {
    closeConn(C, /*CountDrops=*/false);
    return false;
  }
  return true;
}

void LineServer::maybeFinishConn(Conn &C) {
  if (C.Eof && C.Pending == 0 && C.unsent() == 0)
    closeConn(C, /*CountDrops=*/false);
}

void LineServer::closeConn(Conn &C, bool CountDrops) {
  if (CountDrops)
    for (size_t I = C.WriteOff; I < C.WriteBuf.size(); ++I)
      Counters.RepliesDropped += C.WriteBuf[I] == '\n';
  ++(C.Tcp ? Counters.TcpCloses : Counters.UnixCloses);
  Loop.remove(C.Fd);
  ::close(C.Fd);
  Conns.erase(C.Id); // invalidates C
}

void LineServer::startDrain(const char *Why) {
  if (Draining)
    return;
  Draining = true;
  closeListeners();
  onDrain();
  std::fprintf(stderr, "%s: draining (%s): %llu in flight, %zu connection(s)\n",
               Name, Why, static_cast<unsigned long long>(inFlight()),
               Conns.size());
}

bool LineServer::unsentReplies() const {
  for (const auto &[Id, C] : Conns)
    if (C->unsent())
      return true;
  return false;
}

void LineServer::closeAll() {
  while (!Conns.empty())
    closeConn(*Conns.begin()->second, /*CountDrops=*/true);
  closeListeners();
}

void LineServer::closeListeners() {
  for (const Listener &L : Listeners) {
    Loop.remove(L.Fd);
    ::close(L.Fd);
  }
  Listeners.clear();
  if (!UnixPath.empty()) {
    ::unlink(UnixPath.c_str());
    UnixPath.clear();
  }
}
