//===- support/LineServer.h - JSON-lines client connections -----*- C++ -*-===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client side of the serving tier, shared by c4-serve and c4-router:
/// Unix-socket and TCP listeners, accept, newline framing of request lines
/// (with a 32 MiB guard against an unterminated line), per-connection
/// reply buffering that drains as the peer accepts bytes, the SIGTERM/
/// SIGINT self-pipe, the shutdown op's ack and listener teardown when a
/// drain starts. All of it runs on one EventLoop thread.
///
/// A tool derives from LineServer and supplies what differs: what to do
/// with an analysis request (onRequest), how to answer the other control
/// ops (controlReply) and how much work a drain waits for (inFlight). A
/// request answered later — on a worker thread or by a worker process —
/// is counted in Conn::Pending and its reply handed back through reply(),
/// which counts it dropped when the client has gone meanwhile.
///
//===----------------------------------------------------------------------===//

#ifndef C4_SUPPORT_LINESERVER_H
#define C4_SUPPORT_LINESERVER_H

#include "support/EventLoop.h"
#include "support/Json.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace c4 {

/// Renders a request id for echoing. Only strings and integers are
/// preserved; anything else (or a missing id) echoes as null.
std::string renderId(const JsonValue *Id);

/// The failure reply `{"id": <Id>, "ok": false, "error": "<Msg>"}`.
std::string errorReply(const std::string &Id, const std::string &Msg);

/// Appends what the nonblocking \p Fd holds to \p Buf, retrying EINTR and
/// stopping at EAGAIN; sets \p Eof when the peer closed its write side.
/// False on a read error.
bool readAvailable(int Fd, std::string &Buf, bool &Eof);

/// Outcome of sendBuffered().
enum class SendResult { Done, Blocked, Failed };

/// Sends the unsent tail `Buf[Off..]` to \p Fd (never raising SIGPIPE):
/// Done clears a fully sent buffer, Blocked means the socket is full (wait
/// for Write readiness), Failed is a peer error.
SendResult sendBuffered(int Fd, std::string &Buf, size_t &Off);

/// Calls \p Fn on each complete non-empty line at the front of \p Buf
/// (newline and trailing '\r's dropped) and erases the lines consumed. A
/// false return from \p Fn stops at once, leaving \p Buf untouched — the
/// callback may have destroyed it.
void eachLine(std::string &Buf,
              const std::function<bool(const std::string &)> &Fn);

/// Connection-level counters, surfaced by the tools' stats ops.
struct ConnCounters {
  uint64_t Connections = 0;    ///< connections accepted
  uint64_t RepliesDropped = 0; ///< replies a vanished peer never got
  /// Per-transport accept/close counts. A supervisor polling stats can
  /// tell an idle server (accepts keep advancing) from a wedged one.
  uint64_t UnixAccepts = 0, UnixCloses = 0;
  uint64_t TcpAccepts = 0, TcpCloses = 0;
};

class LineServer {
public:
  /// \p Name prefixes the server's stderr lines ("<Name>: listening on").
  explicit LineServer(const char *Name);
  virtual ~LineServer();
  LineServer(const LineServer &) = delete;
  LineServer &operator=(const LineServer &) = delete;

  /// False when the event loop could not be set up.
  bool ok() const { return Loop.ok(); }

  /// Listens on a Unix-domain socket at \p Path (replacing a stale one).
  bool listenUnix(const std::string &Path);

  /// Listens on TCP. \p Spec is HOST:PORT; port 0 lets the kernel pick
  /// (the bound address is printed, which is how harnesses discover it).
  bool listenTcp(const std::string &Spec);

protected:
  /// One client connection. Replies buffer in WriteBuf (WriteOff marks the
  /// sent prefix) and drain as the peer accepts them; a connection with
  /// pending requests survives read-EOF so their replies still reach a
  /// half-closed but reading peer.
  struct Conn {
    int Fd = -1;
    uint64_t Id = 0;
    bool Tcp = false; ///< which transport accepted this connection
    std::string ReadBuf;
    std::string WriteBuf;
    size_t WriteOff = 0;
    unsigned Pending = 0; ///< requests whose reply() is still due
    bool Eof = false;     ///< peer closed its write side (or poisoned input)
    bool CloseWhenFlushed = false;
    bool ShutdownWanted = false, ShutdownAcked = false;
    std::string ShutdownId;

    size_t unsent() const { return WriteBuf.size() - WriteOff; }
  };

  /// Registers the listeners with the loop and routes SIGTERM/SIGINT to
  /// startDrain("signal"). Call once, before driving the loop.
  void start();

  /// Runs \p Fn on the loop thread after signal \p Sig (installed with
  /// sigaction \p Flags, no SA_RESTART so poll wakes). Signals reach the
  /// loop through a self-pipe: a one-byte write is the only
  /// async-signal-safe hand-off.
  void onSignal(int Sig, int Flags, std::function<void()> Fn);

  /// An analysis request: a JSON object line without "op". \p Id is its
  /// rendered id. Either enqueue the reply now, or count it in C.Pending
  /// and hand it to reply() later.
  virtual void onRequest(Conn &C, const JsonValue &Req, const std::string &Id,
                         const std::string &Line) = 0;
  /// The reply to control op \p Op (any but shutdown, which is handled
  /// here), answered inline so it stays responsive under full load.
  virtual std::string controlReply(const std::string &Op,
                                   const std::string &Id) = 0;
  /// Requests in flight, reported when a drain starts.
  virtual uint64_t inFlight() const = 0;
  /// Called once when a drain starts, after the listeners closed.
  virtual void onDrain() {}

  void enqueue(Conn &C, const std::string &Reply);
  /// Delivers the reply of one of connection \p ConnId's pending requests
  /// (counted dropped when the client has gone).
  void reply(uint64_t ConnId, const std::string &Reply);
  /// Stops accepting (idempotent); the tool's loop then finishes the
  /// outstanding work.
  void startDrain(const char *Why);
  /// True while some reply bytes have not reached their client yet.
  bool unsentReplies() const;
  /// Closes every connection, counting unsent replies as dropped, and the
  /// listeners.
  void closeAll();

  EventLoop Loop;
  ConnCounters Counters;
  bool Draining = false;

private:
  struct Listener {
    int Fd;
    bool Tcp;
  };

  void acceptReady(const Listener &L);
  void connEvent(uint64_t Id, unsigned Ev);
  void readable(Conn &C);
  void processLine(Conn &C, const std::string &Line);
  void maybeAckShutdown(Conn &C);
  /// Flushes buffered replies; false when the connection was closed.
  bool flushConn(Conn &C);
  void maybeFinishConn(Conn &C);
  void closeConn(Conn &C, bool CountDrops);
  void closeListeners();
  void signalled();

  const char *Name;
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> Conns;
  std::vector<Listener> Listeners;
  std::string UnixPath;
  int SigPipe[2] = {-1, -1};
  std::map<int, std::function<void()>> SignalHandlers;
  uint64_t NextConnId = 0;
};

} // namespace c4

#endif // C4_SUPPORT_LINESERVER_H
