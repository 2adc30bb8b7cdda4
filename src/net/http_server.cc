#include "net/http_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace tg::net {

namespace {

/// Chunked bodies go out in chunks of this size.
constexpr std::size_t kChunkBytes = 64 * 1024;
/// Slices gathered into one writev call.
constexpr int kMaxIov = 64;

std::shared_ptr<const std::string> Share(std::string bytes) {
  return std::make_shared<const std::string>(std::move(bytes));
}

std::string ChunkHead(std::size_t length) {
  char head[24];
  std::snprintf(head, sizeof(head), "%zx\r\n", length);
  return head;
}

const std::shared_ptr<const std::string>& Crlf() {
  static const auto kCrlf = Share("\r\n");
  return kCrlf;
}

const std::shared_ptr<const std::string>& LastChunk() {
  static const auto kLastChunk = Share("0\r\n\r\n");
  return kLastChunk;
}

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 411: return "Length Required";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default:  return "Unknown";
  }
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IoError("fcntl(O_NONBLOCK) failed");
  }
  return Status::Ok();
}

std::string ToLower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// %XX-decodes a query component (also '+' -> space).
std::string UrlDecode(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out.push_back(' ');
    } else if (s[i] == '%' && i + 2 < s.size() &&
               std::isxdigit(static_cast<unsigned char>(s[i + 1])) &&
               std::isxdigit(static_cast<unsigned char>(s[i + 2]))) {
      char hex[3] = {s[i + 1], s[i + 2], 0};
      out.push_back(static_cast<char>(std::strtoul(hex, nullptr, 16)));
      i += 2;
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

/// Parses one request whose header block is text[0, header_end) (excluding
/// the blank line). Returns false on malformed input.
bool ParseRequest(const std::string& text, std::size_t header_end,
                  HttpRequest* out) {
  std::size_t line_end = text.find("\r\n");
  if (line_end == std::string::npos || line_end > header_end) return false;

  // Request line: METHOD SP target SP HTTP/1.x
  const std::string line = text.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) return false;
  out->method = line.substr(0, sp1);
  out->target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string version = line.substr(sp2 + 1);
  if (out->method.empty() || out->target.empty() ||
      out->target[0] != '/' || version.rfind("HTTP/1.", 0) != 0) {
    return false;
  }

  // Headers: "Name: value" per line, names lower-cased. A line without a
  // colon is malformed; a bounded count guards against header floods that
  // stay under the byte cap.
  std::size_t pos = line_end + 2;
  int header_count = 0;
  while (pos < header_end) {
    std::size_t eol = text.find("\r\n", pos);
    if (eol == std::string::npos || eol > header_end) eol = header_end;
    const std::string header = text.substr(pos, eol - pos);
    pos = eol + 2;
    if (header.empty()) break;
    const std::size_t colon = header.find(':');
    if (colon == std::string::npos) return false;
    if (++header_count > 100) return false;
    std::string value = header.substr(colon + 1);
    const std::size_t first = value.find_first_not_of(" \t");
    const std::size_t last = value.find_last_not_of(" \t");
    value = first == std::string::npos
                ? ""
                : value.substr(first, last - first + 1);
    out->headers[ToLower(header.substr(0, colon))] = value;
  }

  // Split the target into path + decoded query pairs.
  const std::size_t qmark = out->target.find('?');
  out->path = out->target.substr(0, qmark);
  if (qmark != std::string::npos) {
    std::string query = out->target.substr(qmark + 1);
    std::size_t start = 0;
    while (start <= query.size()) {
      std::size_t amp = query.find('&', start);
      if (amp == std::string::npos) amp = query.size();
      const std::string pair = query.substr(start, amp - start);
      start = amp + 1;
      if (pair.empty()) continue;
      const std::size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        out->query[UrlDecode(pair)] = "";
      } else {
        out->query[UrlDecode(pair.substr(0, eq))] = UrlDecode(pair.substr(eq + 1));
      }
    }
  }
  return true;
}

}  // namespace

void HttpServer::Connection::Push(Buffer buf, std::size_t offset,
                                  std::size_t length) {
  if (length == 0) return;
  out.push_back(Slice{std::move(buf), offset, length});
  out_bytes += length;
}

void HttpServer::Connection::Push(Buffer buf) {
  const std::size_t length = buf->size();
  Push(std::move(buf), 0, length);
}

void HttpServer::Connection::PushChunk(const Buffer& buf, std::size_t offset,
                                       std::size_t length) {
  static const Buffer kFullChunkHead = Share(ChunkHead(kChunkBytes));
  Push(length == kChunkBytes ? kFullChunkHead : Share(ChunkHead(length)));
  Push(buf, offset, length);
  Push(Crlf());
}

void HttpServer::Connection::Consume(std::size_t n) {
  out_bytes -= n;
  while (n > 0) {
    Slice& head = out.front();
    if (n < head.length) {
      head.offset += n;
      head.length -= n;
      return;
    }
    n -= head.length;
    out.pop_front();
  }
}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start(const Options& options, Handler handler) {
  Stop();
  options_ = options;
  handler_ = std::move(handler);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::IoError("socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address: " + options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("cannot bind " + options_.bind_address + ":" +
                           std::to_string(options_.port) + ": " +
                           std::strerror(errno));
  }
  if (::listen(listen_fd_, 16) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("listen() failed");
  }
  Status nb = SetNonBlocking(listen_fd_);
  if (!nb.ok()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return nb;
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);

  if (::pipe(wake_fds_) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("pipe() failed");
  }
  SetNonBlocking(wake_fds_[0]);
  SetNonBlocking(wake_fds_[1]);

  {
    std::lock_guard<std::mutex> lock(mu_);
    running_ = true;
    stop_requested_ = false;
  }
  thread_ = std::thread(&HttpServer::Loop, this);
  return Status::Ok();
}

void HttpServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_requested_ = true;
    // Wake poll() so the loop observes the stop flag promptly. Written
    // under mu_ so it cannot race with the fd teardown below (Broadcast
    // writes the wake pipe under mu_ for the same reason).
    char byte = 'q';
    (void)!::write(wake_fds_[1], &byte, 1);
  }
  thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& conn : conns_) ::close(conn->fd);
    conns_.clear();
    running_ = false;
    ::close(listen_fd_);
    ::close(wake_fds_[0]);
    ::close(wake_fds_[1]);
    listen_fd_ = -1;
    wake_fds_[0] = wake_fds_[1] = -1;
    port_ = -1;
  }
}

bool HttpServer::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

int HttpServer::port() const { return port_; }

void HttpServer::Broadcast(const std::string& channel, std::string data) {
  // An empty chunk would terminate the stream.
  if (data.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (!running_) return;
  Buffer shared;
  for (auto& conn : conns_) {
    if (conn->channel == channel && !conn->broken) {
      if (!shared) shared = Share(std::move(data));
      conn->PushChunk(shared, 0, shared->size());
    }
  }
  if (shared) {
    // The wake pipe is non-blocking, so writing under mu_ cannot stall;
    // holding the lock keeps the fd alive against a concurrent Stop().
    char byte = 'b';
    (void)!::write(wake_fds_[1], &byte, 1);
  }
}

std::size_t HttpServer::SubscriberCount(const std::string& channel) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& conn : conns_) {
    if (conn->channel == channel && !conn->broken) ++n;
  }
  return n;
}

std::size_t HttpServer::ChannelBacklogBytes(const std::string& channel) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t backlog = 0;
  for (const auto& conn : conns_) {
    if (conn->channel == channel && !conn->broken) {
      backlog = std::max(backlog, conn->out_bytes);
    }
  }
  return backlog;
}

void HttpServer::CloseChannel(const std::string& channel, bool graceful) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!running_) return;
  bool any = false;
  for (auto& conn : conns_) {
    if (conn->channel == channel && !conn->broken) {
      if (graceful) conn->Push(LastChunk());
      conn->close_after_write = true;
      any = true;
    }
  }
  if (any) {
    char byte = 'c';
    (void)!::write(wake_fds_[1], &byte, 1);
  }
}

void HttpServer::Loop() {
  std::vector<pollfd> fds;
  std::vector<Connection*> polled;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_requested_) return;
      fds.clear();
      polled.clear();
      fds.push_back({listen_fd_, POLLIN, 0});
      fds.push_back({wake_fds_[0], POLLIN, 0});
      for (auto& conn : conns_) {
        short events = POLLIN;
        if (!conn->out.empty()) events |= POLLOUT;
        fds.push_back({conn->fd, events, 0});
        polled.push_back(conn.get());
      }
    }

    const int ready = ::poll(fds.data(), fds.size(), /*timeout_ms=*/200);
    if (ready < 0 && errno != EINTR) return;
    if (ready <= 0) continue;

    // Drain the wake pipe.
    if (fds[1].revents & POLLIN) {
      char buf[64];
      while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
      }
    }

    // New connections.
    if (fds[0].revents & POLLIN) {
      for (;;) {
        int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        std::lock_guard<std::mutex> lock(mu_);
        if (static_cast<int>(conns_.size()) >= options_.max_connections) {
          ::close(fd);
          continue;
        }
        SetNonBlocking(fd);
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        auto conn = std::make_unique<Connection>();
        conn->fd = fd;
        conns_.push_back(std::move(conn));
      }
    }

    // Existing connections: read + parse + write outside mu_ (handlers may
    // take observability locks; Broadcast from other threads only pushes
    // to send queues under mu_, so we re-acquire it around queue edits).
    for (std::size_t i = 0; i < polled.size(); ++i) {
      Connection* conn = polled[i];
      const short revents = fds[i + 2].revents;
      if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
        conn->broken = true;
      }
      if (!conn->broken && (revents & POLLIN)) {
        char buf[4096];
        for (;;) {
          const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
          if (n > 0) {
            std::lock_guard<std::mutex> lock(mu_);
            conn->in.append(buf, static_cast<std::size_t>(n));
            continue;
          }
          if (n == 0) conn->broken = true;  // peer closed
          break;  // EAGAIN or error
        }
        if (!conn->broken && !ServiceInput(conn)) conn->broken = true;
      }
      if (!conn->broken) Send(conn);
      if (!conn->broken && conn->close_after_write) {
        std::lock_guard<std::mutex> lock(mu_);
        if (conn->out.empty()) conn->broken = true;
      }
    }

    // Sweep closed connections.
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto it = conns_.begin(); it != conns_.end();) {
        if ((*it)->broken) {
          ::close((*it)->fd);
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
}

void HttpServer::Send(Connection* conn) {
  iovec iov[kMaxIov];
  for (;;) {
    int count = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const Slice& slice : conn->out) {
        if (count == kMaxIov) break;
        iov[count++] = {const_cast<char*>(slice.buf->data() + slice.offset),
                        slice.length};
      }
    }
    if (count == 0) return;
    const ssize_t n = ::writev(conn->fd, iov, count);
    if (n > 0) {
      std::lock_guard<std::mutex> lock(mu_);
      conn->Consume(static_cast<std::size_t>(n));
      continue;
    }
    if (errno != EAGAIN && errno != EWOULDBLOCK) conn->broken = true;
    return;
  }
}

bool HttpServer::ServiceInput(Connection* conn) {
  for (;;) {
    std::string in_snapshot;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // A connection subscribed to a stream channel is write-only from here
      // on: discard any further client bytes instead of parsing them, so a
      // pipelined request cannot interleave a full HTTP response into the
      // middle of the open chunked SSE stream.
      if (!conn->channel.empty()) {
        conn->in.clear();
        return true;
      }
      in_snapshot = conn->in;
    }
    const std::size_t header_end = in_snapshot.find("\r\n\r\n");
    if (header_end == std::string::npos) {
      if (in_snapshot.size() > options_.max_request_bytes) {
        RespondError(conn, 431, "request too large\n");
        return true;
      }
      return true;  // wait for more bytes
    }

    HttpRequest request;
    if (!ParseRequest(in_snapshot, header_end, &request)) {
      RespondError(conn, 400, "malformed request\n");
      return true;
    }

    // Body policy. With bodies disabled (the admin plane) any advertised
    // body is rejected before the method check — the historical contract.
    // With bodies enabled, POST must carry a bounded Content-Length and the
    // request is dispatched only once the whole body has been buffered.
    std::uint64_t body_len = 0;
    const auto length_it = request.headers.find("content-length");
    if (length_it != request.headers.end()) {
      char* end = nullptr;
      body_len = std::strtoull(length_it->second.c_str(), &end, 10);
      if (end == length_it->second.c_str() || *end != '\0') {
        RespondError(conn, 400, "malformed Content-Length\n");
        return true;
      }
    }
    const bool read_only_method =
        request.method == "GET" || request.method == "HEAD";
    if (options_.max_body_bytes == 0 || read_only_method) {
      if (body_len != 0) {
        RespondError(conn, 413, "request bodies not supported\n");
        return true;
      }
      if (!read_only_method) {
        const char* text = options_.max_body_bytes == 0
                               ? "only GET and HEAD are supported\n"
                               : "only GET, HEAD, and POST are supported\n";
        RespondError(conn, 405, text);
        return true;
      }
    } else {
      if (request.method != "POST") {
        RespondError(conn, 405, "only GET, HEAD, and POST are supported\n");
        return true;
      }
      if (length_it == request.headers.end()) {
        RespondError(conn, 411, "POST requires Content-Length\n");
        return true;
      }
      if (body_len > options_.max_body_bytes) {
        RespondError(conn, 413, "request body too large\n");
        return true;
      }
      if (in_snapshot.size() < header_end + 4 + body_len) {
        return true;  // wait for the rest of the body
      }
      request.body = in_snapshot.substr(header_end + 4,
                                        static_cast<std::size_t>(body_len));
    }
    {
      // Consume the parsed request (pipelined requests keep the tail).
      std::lock_guard<std::mutex> lock(mu_);
      conn->in.erase(0, header_end + 4 + request.body.size());
    }

    HttpResponse response;
    try {
      response = handler_(request);
    } catch (const std::exception& e) {
      response = HttpResponse{};
      response.status = 500;
      response.body = std::string("handler error: ") + e.what() + "\n";
    }
    Respond(conn, request, std::move(response));
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (conn->close_after_write || !conn->channel.empty()) {
        // The connection closes once this response flushes (or when its
        // stream channel does); drop any pipelined tail rather than
        // answering past the close.
        conn->in.clear();
        return true;
      }
    }
  }
}

void HttpServer::Respond(Connection* conn, const HttpRequest& request,
                         HttpResponse response) {
  const bool head = request.method == "HEAD";
  const bool streaming = !response.stream_channel.empty() && !head;
  const bool chunked = (response.chunked || streaming) && !head;
  auto it = request.headers.find("connection");
  const bool close =
      (it != request.headers.end() && ToLower(it->second) == "close");

  const Buffer body = response.shared_body
                          ? std::move(response.shared_body)
                          : Share(std::move(response.body));
  std::string out;
  out += "HTTP/1.1 " + std::to_string(response.status) + " " +
         ReasonPhrase(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  for (const auto& [name, value] : response.headers) {
    out += name + ": " + value + "\r\n";
  }
  if (streaming) {
    out += "Cache-Control: no-cache\r\n";
  }
  if (chunked) {
    out += "Transfer-Encoding: chunked\r\n";
  } else {
    // HEAD advertises the length a GET would return, with no body bytes.
    out += "Content-Length: " + std::to_string(body->size()) + "\r\n";
  }
  out += close || streaming ? "Connection: close\r\n" : "Connection: keep-alive\r\n";
  out += "\r\n";

  std::lock_guard<std::mutex> lock(mu_);
  conn->Push(Share(std::move(out)));
  if (!head) {
    if (chunked) {
      // Large bodies go out in bounded chunks, each a slice of `body`;
      // streams leave the chunk sequence open for Broadcast.
      for (std::size_t off = 0; off < body->size(); off += kChunkBytes) {
        conn->PushChunk(body, off, std::min(kChunkBytes, body->size() - off));
      }
      if (!streaming) conn->Push(LastChunk());
    } else {
      conn->Push(body);
    }
  }
  if (streaming) conn->channel = response.stream_channel;
  // A subscribed connection outlives this response: it closes when its
  // channel does (CloseChannel sets close_after_write then), not when the
  // headers flush — even if the client sent Connection: close.
  if (close && !streaming) conn->close_after_write = true;
}

void HttpServer::RespondError(Connection* conn, int status,
                              const std::string& text) {
  std::string out;
  out += "HTTP/1.1 " + std::to_string(status) + " " + ReasonPhrase(status) +
         "\r\n";
  out += "Content-Type: text/plain; charset=utf-8\r\n";
  out += "Content-Length: " + std::to_string(text.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += text;
  std::lock_guard<std::mutex> lock(mu_);
  conn->Push(Share(std::move(out)));
  conn->close_after_write = true;
  // Discard the offending input so a later POLLIN cannot re-parse the same
  // prefix and queue a duplicate error response.
  conn->in.clear();
}

}  // namespace tg::net
