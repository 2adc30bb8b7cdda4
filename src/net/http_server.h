// net/http_server.h — a minimal poll-based HTTP/1.1 server: the network
// substrate of the live observability plane (src/obs/serve/) and of the
// `tg::serve` generation daemon (src/serve/). No third party dependencies:
// one listener socket, one service thread multiplexing every connection
// through poll(2), bounded request parsing, and response writers for plain
// bodies, chunked transfer, and long-lived chunk streams (Server-Sent
// Events or binary graph shards).
//
// Scope is deliberately narrow. By default the server is the read-only
// admin surface: GET/HEAD only, no request bodies, loopback bind. Setting
// Options::max_body_bytes > 0 additionally admits POST with a bounded
// Content-Length body (411 when the length is missing, 413 over the cap) —
// the serve daemon's request ingress. Either way the server supports
// exactly what its two consumers need: keep-alive with pipelining
// (Prometheus scrapers reuse connections), long-lived streaming responses
// fed from other threads (Broadcast) with producer-visible backpressure
// (ChannelBacklogBytes), and hard limits on request size so a misbehaving
// client cannot grow server-side buffers.
//
// The send path never re-copies a byte: each connection owns one queue of
// slices over immutable, ref-counted buffers, and the service thread hands
// the queue head to writev(2). A handler's shared_body and every broadcast
// block are queued by reference, so a multi-MB payload costs no copy
// however many partial writes a slow client forces.
#ifndef TRILLIONG_NET_HTTP_SERVER_H_
#define TRILLIONG_NET_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/status.h"

namespace tg::net {

/// One parsed request. Header names are lower-cased; the query string is
/// split into decoded key=value pairs.
struct HttpRequest {
  std::string method;  ///< "GET", "HEAD", "POST" (with bodies enabled)
  std::string target;  ///< raw request target, e.g. "/metrics?name=avs"
  std::string path;    ///< target up to the first '?'
  std::map<std::string, std::string> query;
  std::map<std::string, std::string> headers;
  /// POST body, complete before the handler runs (the service thread waits
  /// for Content-Length bytes). Empty unless Options::max_body_bytes > 0.
  std::string body;
};

/// What a handler returns. Plain responses carry `body` (or `shared_body`)
/// and are written with a Content-Length. `chunked` switches to
/// Transfer-Encoding: chunked, in 64 KiB chunks (large downloads). A
/// non-empty `stream_channel` turns the connection into a long-lived chunked
/// stream: the response headers and `body` (typically an SSE preamble) are
/// written immediately, the connection is subscribed to that channel, and
/// every later HttpServer::Broadcast to the channel is appended as one chunk
/// until the client disconnects.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  /// Extra headers (e.g. Content-Disposition); Content-Length/Connection
  /// are managed by the server.
  std::map<std::string, std::string> headers;
  std::string body;
  /// When set, sent instead of `body` and by reference: the connection's
  /// send queue holds the buffer until its last byte is written, so a cached
  /// payload is never copied.
  std::shared_ptr<const std::string> shared_body;
  bool chunked = false;
  std::string stream_channel;
};

/// The server. Start spawns one service thread that owns all sockets;
/// handlers run on that thread, so they must not block for long (the admin
/// endpoints only snapshot in-memory state). Broadcast may be called from
/// any thread.
class HttpServer {
 public:
  struct Options {
    /// Loopback by default: the admin plane is not an external service.
    std::string bind_address = "127.0.0.1";
    /// 0 binds an ephemeral port; read the result from port().
    int port = 0;
    /// A connection whose buffered request bytes exceed this without
    /// forming a complete request is answered 431 and closed.
    std::size_t max_request_bytes = 16 * 1024;
    /// Accepted connections beyond this are closed immediately.
    int max_connections = 64;
    /// 0 (default) keeps the server read-only: any request advertising a
    /// body is answered 413 and POST is answered 405, exactly the admin
    /// plane's historical contract. > 0 admits POST whose Content-Length is
    /// at most this many bytes: a missing length is answered 411, an
    /// over-cap one 413, and the handler runs only once the whole body has
    /// arrived (HttpRequest::body).
    std::size_t max_body_bytes = 0;
  };

  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer() = default;
  ~HttpServer();  ///< Stop()s if still running

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and spawns the service thread. `handler` is called for
  /// every well-formed GET/HEAD request (and POST, when
  /// Options::max_body_bytes > 0).
  Status Start(const Options& options, Handler handler);

  /// Closes the listener and every connection and joins the thread.
  /// Idempotent.
  void Stop();

  bool running() const;

  /// The bound port (the ephemeral one when Options::port was 0); -1 when
  /// not running.
  int port() const;

  /// Queues `data` as one chunk on every connection streaming `channel` and
  /// wakes the service thread. Every subscriber shares one buffer, and a
  /// caller that moves `data` in hands the bytes over without a copy.
  /// Callable from any thread; cheap when the channel has no subscribers.
  void Broadcast(const std::string& channel, std::string data);

  /// Current number of connections subscribed to `channel`.
  std::size_t SubscriberCount(const std::string& channel) const;

  /// Largest count of queued, unsent bytes among `channel`'s subscribers
  /// (including a write in progress) — the producer-side backpressure
  /// signal. A producer that pauses while this exceeds its watermark bounds
  /// per-connection memory: the queue only grows as fast as the slowest
  /// client drains it plus one producer burst.
  std::size_t ChannelBacklogBytes(const std::string& channel) const;

  /// Ends the stream on every connection subscribed to `channel`: queues
  /// the terminating zero-length chunk (unless `graceful` is false — an
  /// abort, letting the client detect truncation by the missing terminator)
  /// and closes each connection once its buffer drains. Callable from any
  /// thread.
  void CloseChannel(const std::string& channel, bool graceful = true);

 private:
  using Buffer = std::shared_ptr<const std::string>;

  /// `length` bytes at `offset` of a buffer the slice keeps alive.
  struct Slice {
    Buffer buf;
    std::size_t offset = 0;
    std::size_t length = 0;
  };

  struct Connection {
    int fd = -1;
    std::string in;         ///< bytes received, not yet parsed; guarded by mu_
    /// Bytes to send, in order; guarded by mu_. Producers only push to the
    /// back and only the service thread pops or advances the front, so the
    /// head slices it hands to writev outside mu_ stay alive meanwhile.
    std::deque<Slice> out;
    std::size_t out_bytes = 0;  ///< sum of `out` lengths; guarded by mu_
    std::string channel;    ///< non-empty: streaming subscriber; guarded by mu_
    /// Atomic: the service thread reads it outside mu_ while CloseChannel
    /// sets it from producer threads (under mu_).
    std::atomic<bool> close_after_write{false};
    /// Atomic because the service thread marks connections broken outside
    /// mu_ (read/write loops) while Broadcast/SubscriberCount read it under
    /// mu_ from other threads.
    std::atomic<bool> broken{false};

    /// Queues bytes [offset, offset + length) of `buf`. Caller holds mu_.
    void Push(Buffer buf, std::size_t offset, std::size_t length);
    void Push(Buffer buf);  ///< the whole buffer
    /// Queues that byte range as one HTTP/1.1 chunk (hex length, CRLF,
    /// payload, CRLF). Caller holds mu_; `length` must be non-zero, since
    /// an empty chunk ends the stream.
    void PushChunk(const Buffer& buf, std::size_t offset, std::size_t length);
    /// Drops the first `n` queued bytes. Caller holds mu_.
    void Consume(std::size_t n);
  };

  void Loop();
  /// Writes the connection's queue head until it is empty or the socket
  /// would block; marks the connection broken on a write error.
  void Send(Connection* conn);
  /// Parses and answers every complete request in `conn->in`. Returns false
  /// when the connection must be dropped without further writes.
  bool ServiceInput(Connection* conn);
  void Respond(Connection* conn, const HttpRequest& request,
               HttpResponse response);
  void RespondError(Connection* conn, int status, const std::string& text);

  Handler handler_;
  Options options_;
  mutable std::mutex mu_;  ///< guards conns_, their buffers, and the wake pipe
  std::vector<std::unique_ptr<Connection>> conns_;
  std::thread thread_;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  ///< self-pipe: Broadcast/Stop wake poll()
  int port_ = -1;
  bool running_ = false;
  bool stop_requested_ = false;
};

}  // namespace tg::net

#endif  // TRILLIONG_NET_HTTP_SERVER_H_
