// Tests for the live observability plane: net/http_server.h (bounded
// request parsing, pipelining, streaming broadcast), obs/serve/prometheus.h
// (text exposition golden file, label lifting/escaping, histogram buckets),
// and obs/serve/admin_server.h (endpoint contracts, SSE fan-out, and — the
// TSan target — concurrent scrapes during an active multi-worker run).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/scope_sink.h"
#include "core/trilliong.h"
#include "net/http_server.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/sampler.h"
#include "obs/serve/admin_server.h"
#include "obs/serve/prometheus.h"
#include "util/json.h"

namespace tg {
namespace {

// ---------------------------------------------------------------------------
// A tiny blocking test client.

/// Connects to 127.0.0.1:port with a receive timeout; -1 on failure. A
/// non-zero `rcvbuf` shrinks the receive buffer (set before connect, so the
/// advertised window stays small) to make the server's writes partial.
int ConnectTo(int port, int rcvbuf = 0) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval timeout{/*tv_sec=*/5, /*tv_usec=*/0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  if (rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends `raw` and reads until the server closes (or the timeout trips).
std::string Transact(int port, const std::string& raw) {
  int fd = ConnectTo(port);
  if (fd < 0) return "";
  std::size_t sent = 0;
  while (sent < raw.size()) {
    const ssize_t n = ::write(fd, raw.data() + sent, raw.size() - sent);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string reply;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return reply;
}

/// One-liner GET with Connection: close.
std::string Get(int port, const std::string& path) {
  return Transact(port, "GET " + path +
                            " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
}

/// Body of a Content-Length response (empty when malformed).
std::string BodyOf(const std::string& reply) {
  const std::size_t split = reply.find("\r\n\r\n");
  return split == std::string::npos ? "" : reply.substr(split + 4);
}

net::HttpServer::Options EphemeralOptions() {
  net::HttpServer::Options options;
  options.port = 0;
  return options;
}

/// Echo-the-path handler used by the protocol tests.
net::HttpResponse EchoHandler(const net::HttpRequest& request) {
  net::HttpResponse response;
  response.body = "path=" + request.path + "\n";
  return response;
}

/// Reads up to `limit` bytes (or to EOF) in 1 KiB reads, pausing 1 ms every
/// 64 reads: a slow client that keeps the server's socket full.
std::string SlowRead(int fd, std::size_t limit = std::string::npos) {
  std::string got;
  char buf[1024];
  for (int reads = 1; got.size() < limit; ++reads) {
    const ssize_t n =
        ::read(fd, buf, std::min(sizeof(buf), limit - got.size()));
    if (n <= 0) break;
    got.append(buf, static_cast<std::size_t>(n));
    if (reads % 64 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return got;
}

/// `n` deterministic pseudo-random bytes.
std::string Pattern(std::size_t n) {
  std::string bytes(n, '\0');
  std::uint32_t x = 12345;
  for (char& c : bytes) {
    x = x * 1103515245u + 12345u;
    c = static_cast<char>(x >> 24);
  }
  return bytes;
}

/// `data` framed as one HTTP/1.1 chunk.
std::string Chunk(const std::string& data) {
  char head[24];
  std::snprintf(head, sizeof(head), "%zx\r\n", data.size());
  return head + data + "\r\n";
}

/// `body` as the server frames a chunked body: 64 KiB chunks.
std::string Chunked(const std::string& body) {
  std::string out;
  for (std::size_t off = 0; off < body.size(); off += 64 * 1024) {
    out += Chunk(body.substr(off, 64 * 1024));
  }
  return out;
}

/// Sends the GET for a subscription and waits until `channel` has it.
int Subscribe(net::HttpServer* server, const std::string& channel,
              int rcvbuf) {
  int fd = ConnectTo(server->port(), rcvbuf);
  if (fd < 0) return -1;
  const std::string req = "GET /stream HTTP/1.1\r\nHost: t\r\n\r\n";
  if (::write(fd, req.data(), req.size()) !=
      static_cast<ssize_t>(req.size())) {
    ::close(fd);
    return -1;
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server->SubscriberCount(channel) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return fd;
}

/// Handler opening a stream on "chan" whose first chunks carry `preamble`.
net::HttpServer::Handler StreamHandler(std::string preamble) {
  return [preamble](const net::HttpRequest&) {
    net::HttpResponse response;
    response.content_type = "application/octet-stream";
    response.stream_channel = "chan";
    response.body = preamble;
    return response;
  };
}

/// The response head every StreamHandler subscription starts with.
const char kStreamHeaders[] =
    "HTTP/1.1 200 OK\r\n"
    "Content-Type: application/octet-stream\r\n"
    "Cache-Control: no-cache\r\n"
    "Transfer-Encoding: chunked\r\n"
    "Connection: close\r\n\r\n";

// ---------------------------------------------------------------------------
// HTTP protocol layer.

TEST(HttpServerTest, BindsEphemeralPortAndStops) {
  net::HttpServer server;
  ASSERT_TRUE(server.Start(EphemeralOptions(), EchoHandler).ok());
  EXPECT_TRUE(server.running());
  EXPECT_GT(server.port(), 0);
  const std::string reply = Get(server.port(), "/x");
  EXPECT_NE(reply.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_EQ(BodyOf(reply), "path=/x\n");
  server.Stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), -1);
  // Stop is idempotent.
  server.Stop();
}

TEST(HttpServerTest, MalformedRequestLineGets400) {
  net::HttpServer server;
  ASSERT_TRUE(server.Start(EphemeralOptions(), EchoHandler).ok());
  EXPECT_NE(Transact(server.port(), "GARBAGE\r\n\r\n")
                .find("HTTP/1.1 400 Bad Request"),
            std::string::npos);
  // Missing HTTP version token.
  EXPECT_NE(Transact(server.port(), "GET /x\r\n\r\n")
                .find("HTTP/1.1 400 Bad Request"),
            std::string::npos);
  // Header line without a colon.
  EXPECT_NE(
      Transact(server.port(), "GET / HTTP/1.1\r\nbad header line\r\n\r\n")
          .find("HTTP/1.1 400 Bad Request"),
      std::string::npos);
}

TEST(HttpServerTest, OversizedRequestGets431) {
  net::HttpServer server;
  net::HttpServer::Options options = EphemeralOptions();
  options.max_request_bytes = 512;
  ASSERT_TRUE(server.Start(options, EchoHandler).ok());
  // Never completes the header block, grows past the cap.
  const std::string flood =
      "GET / HTTP/1.1\r\nX-Pad: " + std::string(2048, 'a');
  EXPECT_NE(Transact(server.port(), flood)
                .find("HTTP/1.1 431 Request Header Fields Too Large"),
            std::string::npos);
}

TEST(HttpServerTest, RequestBodyGets413AndPostGets405) {
  net::HttpServer server;
  ASSERT_TRUE(server.Start(EphemeralOptions(), EchoHandler).ok());
  EXPECT_NE(
      Transact(server.port(),
               "POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello")
          .find("HTTP/1.1 413 Payload Too Large"),
      std::string::npos);
  EXPECT_NE(Transact(server.port(), "POST / HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 405 Method Not Allowed"),
            std::string::npos);
}

TEST(HttpServerTest, PipelinedRequestsAnswerInOrder) {
  net::HttpServer server;
  ASSERT_TRUE(server.Start(EphemeralOptions(), EchoHandler).ok());
  // Two requests in one write; the second closes the connection so the
  // client can read-to-EOF.
  const std::string reply = Transact(
      server.port(),
      "GET /first HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /second HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  const std::size_t first = reply.find("path=/first");
  const std::size_t second = reply.find("path=/second");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
  // Both served over one connection: two status lines in one byte stream.
  EXPECT_NE(reply.rfind("HTTP/1.1 200 OK"), reply.find("HTTP/1.1 200 OK"));
}

TEST(HttpServerTest, HeadAdvertisesLengthWithoutBody) {
  net::HttpServer server;
  ASSERT_TRUE(server.Start(EphemeralOptions(), EchoHandler).ok());
  const std::string reply = Transact(
      server.port(), "HEAD /abc HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_NE(reply.find("Content-Length: 10"), std::string::npos)
      << reply;  // "path=/abc\n" is 10 bytes
  EXPECT_EQ(BodyOf(reply), "");
}

TEST(HttpServerTest, BroadcastReachesStreamSubscribers) {
  net::HttpServer server;
  ASSERT_TRUE(
      server.Start(EphemeralOptions(), StreamHandler("event: hello\n\n")).ok());
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  int fd = Subscribe(&server, "chan", /*rcvbuf=*/0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(server.SubscriberCount("chan"), 1u);
  server.Broadcast("chan", "data: one\n\n");
  server.Broadcast("chan", "data: two\n\n");

  std::string got;
  char buf[1024];
  while (got.find("data: two") == std::string::npos &&
         std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    got.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(got.find("event: hello"), std::string::npos) << got;
  EXPECT_NE(got.find("data: one"), std::string::npos) << got;
  EXPECT_NE(got.find("data: two"), std::string::npos) << got;
  EXPECT_NE(got.find("Transfer-Encoding: chunked"), std::string::npos) << got;
}

TEST(HttpServerTest, SubscribedStreamIgnoresPipelinedRequests) {
  net::HttpServer server;
  ASSERT_TRUE(
      server.Start(EphemeralOptions(), StreamHandler("event: hello\n\n")).ok());
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  int fd = Subscribe(&server, "chan", /*rcvbuf=*/0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(server.SubscriberCount("chan"), 1u);

  // A request pipelined after the subscription must be discarded, not
  // answered into the middle of the open chunked stream.
  const std::string late = "GET /again HTTP/1.1\r\nHost: t\r\n\r\n";
  ASSERT_EQ(::write(fd, late.data(), late.size()),
            static_cast<ssize_t>(late.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.Broadcast("chan", "data: after\n\n");

  std::string got;
  char buf[1024];
  while (got.find("data: after") == std::string::npos &&
         std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    got.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(got.find("data: after"), std::string::npos) << got;
  // Exactly one status line in the stream: the subscription's own 200.
  EXPECT_EQ(got.find("HTTP/1.1"), got.rfind("HTTP/1.1")) << got;
}

TEST(HttpServerTest, ErrorResponseIsQueuedOnlyOnce) {
  net::HttpServer server;
  ASSERT_TRUE(server.Start(EphemeralOptions(), EchoHandler).ok());
  int fd = ConnectTo(server.port());
  ASSERT_GE(fd, 0);
  const std::string bad = "GARBAGE\r\n\r\n";
  ASSERT_EQ(::write(fd, bad.data(), bad.size()),
            static_cast<ssize_t>(bad.size()));
  // More bytes on the same connection: with the malformed prefix discarded
  // by the first 400, they must not provoke a second error response.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::string more = "MORE\r\n\r\n";
  (void)!::write(fd, more.data(), more.size());  // may race the server close
  std::string reply;
  char buf[1024];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t first = reply.find("HTTP/1.1 400");
  ASSERT_NE(first, std::string::npos) << reply;
  EXPECT_EQ(reply.find("HTTP/1.1 400", first + 1), std::string::npos) << reply;
}

// ---------------------------------------------------------------------------
// Send queue: bodies by reference, writev over partial writes, backlog.

TEST(HttpServerTest, LargeSharedBodyReachesSlowReaderByteIdentical) {
  // 8 MiB plus a partial last chunk, handed to the server by reference.
  const auto body =
      std::make_shared<const std::string>(Pattern((8u << 20) + 1000));
  net::HttpServer server;
  ASSERT_TRUE(server
                  .Start(EphemeralOptions(),
                         [body](const net::HttpRequest&) {
                           net::HttpResponse response;
                           response.content_type = "application/octet-stream";
                           response.shared_body = body;
                           response.chunked = true;
                           return response;
                         })
                  .ok());
  int fd = ConnectTo(server.port(), /*rcvbuf=*/4096);
  ASSERT_GE(fd, 0);
  const std::string req =
      "GET /graph HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
  ASSERT_EQ(::write(fd, req.data(), req.size()),
            static_cast<ssize_t>(req.size()));
  const std::string wire = SlowRead(fd);
  ::close(fd);

  const std::string expected =
      "HTTP/1.1 200 OK\r\n"
      "Content-Type: application/octet-stream\r\n"
      "Transfer-Encoding: chunked\r\n"
      "Connection: close\r\n\r\n" +
      Chunked(*body) + "0\r\n\r\n";
  ASSERT_EQ(wire.size(), expected.size());
  EXPECT_TRUE(wire == expected) << "wire bytes diverged from the framing";
}

TEST(HttpServerTest, BroadcastBehindPartialWriteKeepsOrder) {
  const std::string preamble = Pattern(8u << 20);
  net::HttpServer server;
  ASSERT_TRUE(server.Start(EphemeralOptions(), StreamHandler(preamble)).ok());
  int fd = Subscribe(&server, "chan", /*rcvbuf=*/4096);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(server.SubscriberCount("chan"), 1u);
  // The client has read nothing, so most of the preamble is still queued:
  // these broadcasts land behind a response the socket took only part of.
  ASSERT_GT(server.ChannelBacklogBytes("chan"), 0u);
  const std::string big = Pattern(100000);
  server.Broadcast("chan", "one");
  server.Broadcast("chan", big);
  server.CloseChannel("chan");

  const std::string wire = SlowRead(fd);
  ::close(fd);
  const std::string expected = kStreamHeaders + Chunked(preamble) +
                               Chunk("one") + Chunk(big) + "0\r\n\r\n";
  ASSERT_EQ(wire.size(), expected.size());
  EXPECT_TRUE(wire == expected) << "broadcast overtook or tore the response";
}

TEST(HttpServerTest, ChannelBacklogCountsUnsentBytes) {
  // "/probe" runs on the service thread, so no write to the subscriber can
  // land between its two backlog reads: the difference is exactly what its
  // Broadcast queued.
  net::HttpServer server;
  const std::string more = Pattern(1000);
  std::atomic<std::size_t> before{0};
  std::atomic<std::size_t> after{0};
  const net::HttpServer::Handler stream = StreamHandler("");
  ASSERT_TRUE(server
                  .Start(EphemeralOptions(),
                         [&](const net::HttpRequest& request) {
                           if (request.path != "/probe") return stream(request);
                           before = server.ChannelBacklogBytes("chan");
                           server.Broadcast("chan", more);
                           after = server.ChannelBacklogBytes("chan");
                           return net::HttpResponse{};
                         })
                  .ok());
  int fd = Subscribe(&server, "chan", /*rcvbuf=*/4096);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(server.SubscriberCount("chan"), 1u);

  // The client reads nothing, so most of this stays queued.
  const std::string blob = Pattern(16u << 20);
  server.Broadcast("chan", blob);
  ASSERT_NE(Get(server.port(), "/probe").find("HTTP/1.1 200"),
            std::string::npos);
  EXPECT_GT(before.load(), 0u);
  EXPECT_LE(before.load(), Chunk(blob).size());
  EXPECT_EQ(after.load(), before.load() + Chunk(more).size());

  // Once the client has drained every byte, nothing is left to count.
  const std::size_t total =
      std::strlen(kStreamHeaders) + Chunk(blob).size() + Chunk(more).size();
  EXPECT_EQ(SlowRead(fd, total).size(), total);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.ChannelBacklogBytes("chan") != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.ChannelBacklogBytes("chan"), 0u);
  EXPECT_EQ(server.SubscriberCount("chan"), 1u);
  ::close(fd);
}

// ---------------------------------------------------------------------------
// Prometheus exposition.

TEST(PrometheusTest, GoldenExposition) {
  obs::Registry registry;
  registry.GetCounter("avs.edges_generated")->Add(100);
  registry.GetGauge("mem.m0.used_bytes")->Set(1024);
  registry.GetGauge("mem.m1.used_bytes")->Set(2048);
  registry.GetGauge("mem.tag.scope buffer.peak_bytes")->Set(512);
  registry.SetMachineStat(0, "cpu_seconds", 1.5);
  obs::Histogram* h = registry.GetHistogram("scope.bytes");
  h->Observe(0);  // bucket 0: exactly the zeros
  h->Observe(1);  // bucket 1: le="1"
  h->Observe(5);  // bucket 3: values 4..7, le="7"

  const std::string expected =
      "# TYPE tg_avs_edges_generated counter\n"
      "tg_avs_edges_generated 100\n"
      "# TYPE tg_machine_cpu_seconds gauge\n"
      "tg_machine_cpu_seconds{machine=\"m0\"} 1.5\n"
      "# TYPE tg_mem_tag_peak_bytes gauge\n"
      "tg_mem_tag_peak_bytes{tag=\"scope buffer\"} 512\n"
      "# TYPE tg_mem_used_bytes gauge\n"
      "tg_mem_used_bytes{machine=\"m0\"} 1024\n"
      "tg_mem_used_bytes{machine=\"m1\"} 2048\n"
      "# TYPE tg_scope_bytes histogram\n"
      "tg_scope_bytes_bucket{le=\"0\"} 1\n"
      "tg_scope_bytes_bucket{le=\"1\"} 2\n"
      "tg_scope_bytes_bucket{le=\"3\"} 2\n"
      "tg_scope_bytes_bucket{le=\"7\"} 3\n"
      "tg_scope_bytes_bucket{le=\"+Inf\"} 3\n"
      "tg_scope_bytes_sum 6\n"
      "tg_scope_bytes_count 3\n";
  EXPECT_EQ(obs::serve::RenderPrometheus(registry), expected);
}

TEST(PrometheusTest, LabelValueEscaping) {
  EXPECT_EQ(obs::serve::EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(obs::serve::EscapeLabelValue("a\"b\\c\nd"),
            "a\\\"b\\\\c\\nd");
  obs::Registry registry;
  registry.GetGauge("mem.tag.odd\"tag.peak_bytes")->Set(1);
  EXPECT_NE(obs::serve::RenderPrometheus(registry).find(
                "tg_mem_tag_peak_bytes{tag=\"odd\\\"tag\"} 1"),
            std::string::npos);
}

TEST(PrometheusTest, DottedNamesMapToUnderscores) {
  obs::Registry registry;
  registry.GetCounter("fault.injected_crashes")->Add(3);
  const std::string text = obs::serve::RenderPrometheus(registry);
  EXPECT_NE(text.find("# TYPE tg_fault_injected_crashes counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("tg_fault_injected_crashes 3\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Admin server endpoints.

class AdminServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetEnabled(true);
    obs::Registry::Global().Reset();
    obs::SetCurrentPhase("idle");
  }
  void TearDown() override {
    obs::SetEnabled(false);
    obs::Registry::Global().Reset();
    obs::SetCurrentPhase(nullptr);
  }
};

TEST_F(AdminServerTest, HealthzReportsPhase) {
  obs::serve::AdminServer admin;
  ASSERT_TRUE(admin.Start({}).ok());
  obs::SetCurrentPhase("generate");
  const std::string reply = Get(admin.port(), "/healthz");
  EXPECT_NE(reply.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(BodyOf(reply).find("ok phase=generate uptime_s="),
            std::string::npos)
      << reply;
}

TEST_F(AdminServerTest, MetricsServesLiveRegistry) {
  obs::GetCounter("progress.edges")->Add(12345);
  obs::serve::AdminServer admin;
  ASSERT_TRUE(admin.Start({}).ok());
  const std::string reply = Get(admin.port(), "/metrics");
  EXPECT_NE(reply.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos)
      << reply;
  EXPECT_NE(BodyOf(reply).find("tg_progress_edges 12345\n"),
            std::string::npos);
}

TEST_F(AdminServerTest, ReportJsonRoundTripsWithLiveMeta) {
  obs::GetCounter("avs.edges_generated")->Add(7);
  obs::serve::AdminOptions options;
  options.meta["scale"] = "20";
  obs::serve::AdminServer admin;
  ASSERT_TRUE(admin.Start(options).ok());
  const std::string body = BodyOf(Get(admin.port(), "/report.json"));
  obs::RunReport report;
  ASSERT_TRUE(obs::RunReport::FromJson(body, &report).ok()) << body;
  EXPECT_EQ(report.meta["live"], "1");
  EXPECT_EQ(report.meta["scale"], "20");
  EXPECT_EQ(report.meta["phase"], "idle");
  EXPECT_EQ(report.counters["avs.edges_generated"], 7u);
}

TEST_F(AdminServerTest, TraceAndIndexAndNotFound) {
  obs::serve::AdminServer admin;
  ASSERT_TRUE(admin.Start({}).ok());
  EXPECT_NE(Get(admin.port(), "/trace").find("traceEvents"),
            std::string::npos);
  EXPECT_NE(BodyOf(Get(admin.port(), "/")).find("GET /metrics"),
            std::string::npos);
  EXPECT_NE(Get(admin.port(), "/no-such").find("HTTP/1.1 404 Not Found"),
            std::string::npos);
}

TEST_F(AdminServerTest, SseStreamsTicksAndFaultEvents) {
  obs::serve::AdminServer admin;
  ASSERT_TRUE(admin.Start({}).ok());

  int fd = ConnectTo(admin.port());
  ASSERT_GE(fd, 0);
  const std::string req = "GET /events HTTP/1.1\r\nHost: t\r\n\r\n";
  ASSERT_EQ(::write(fd, req.data(), req.size()),
            static_cast<ssize_t>(req.size()));

  // Drive ticks from a fast sampler.
  obs::SamplerOptions sampler_options;
  sampler_options.interval_ms = 2;
  sampler_options.sample_rss = false;
  sampler_options.emit_trace_counters = false;
  obs::Sampler sampler(sampler_options);
  sampler.Start();

  // Inject the structured event only once the hello frame proves the
  // subscription is registered — a broadcast before that is (correctly)
  // dropped, there is no replay for one-shot events.
  bool event_sent = false;
  std::string got;
  char buf[2048];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((!event_sent || got.find("event: tick") == std::string::npos ||
          got.find("event: fault") == std::string::npos) &&
         std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    got.append(buf, static_cast<std::size_t>(n));
    if (!event_sent && got.find("event: hello") != std::string::npos) {
      obs::Event event;
      event.kind = "fault.crash";
      event.machine = 1;
      event.ordinal = 3;
      event.detail = "m1:crash@chunk=3 \"q\"\\\x01";
      obs::Registry::Global().RecordEvent(event);
      event_sent = true;
    }
  }
  sampler.Stop();
  ::close(fd);

  EXPECT_NE(got.find("event: hello"), std::string::npos) << got;
  EXPECT_NE(got.find("event: tick"), std::string::npos) << got;
  EXPECT_NE(got.find("\"edges_per_sec\""), std::string::npos) << got;
  EXPECT_NE(got.find("event: fault"), std::string::npos) << got;
  // The fault frame's data line is JSON that parses back to the event.
  EXPECT_EQ(got.find('\x01'), std::string::npos) << got;
  const std::size_t frame = got.find("event: fault\ndata: ");
  ASSERT_NE(frame, std::string::npos) << got;
  const std::size_t data = frame + std::strlen("event: fault\ndata: ");
  json::Value doc;
  ASSERT_TRUE(
      json::Parse(got.substr(data, got.find('\n', data) - data), &doc).ok())
      << got;
  EXPECT_EQ(doc.Find("detail")->StringOr(""), "m1:crash@chunk=3 \"q\"\\\x01");
  EXPECT_EQ(doc.Find("kind")->StringOr(""), "fault.crash");
}

// The TSan target: scrape every endpoint from several client threads while a
// multi-worker generation (plus a live sampler) is running. Fails under
// -fsanitize=thread if any snapshot path races the writers.
TEST_F(AdminServerTest, ConcurrentScrapesDuringActiveRun) {
  obs::serve::AdminServer admin;
  ASSERT_TRUE(admin.Start({}).ok());
  const int port = admin.port();

  obs::SamplerOptions sampler_options;
  sampler_options.interval_ms = 1;
  sampler_options.sample_rss = false;
  obs::Sampler sampler(sampler_options);
  sampler.Start();

  std::atomic<bool> done{false};
  std::vector<std::thread> scrapers;
  const char* paths[] = {"/metrics", "/report.json", "/healthz"};
  for (const char* path : paths) {
    scrapers.emplace_back([port, path, &done] {
      while (!done.load(std::memory_order_relaxed)) {
        const std::string reply = Get(port, path);
        EXPECT_NE(reply.find("HTTP/1.1 200 OK"), std::string::npos) << path;
      }
    });
  }

  core::TrillionGConfig config;
  config.scale = 16;
  config.edge_factor = 8;
  config.num_workers = 4;
  std::uint64_t total_edges = 0;
  std::mutex total_mu;
  const core::GenerateStats stats = core::Generate(
      config, [&](int, VertexId, VertexId) -> std::unique_ptr<core::ScopeSink> {
        class Locked : public core::ScopeSink {
         public:
          Locked(std::uint64_t* total, std::mutex* mu)
              : total_(total), mu_(mu) {}
          void ConsumeScope(VertexId, const VertexId*,
                            std::size_t n) override {
            std::lock_guard<std::mutex> lock(*mu_);
            *total_ += n;
          }

         private:
          std::uint64_t* total_;
          std::mutex* mu_;
        };
        return std::make_unique<Locked>(&total_edges, &total_mu);
      });
  done.store(true, std::memory_order_relaxed);
  for (std::thread& t : scrapers) t.join();
  sampler.Stop();

  EXPECT_EQ(stats.num_edges, total_edges);
  // The post-run scrape agrees with the registry's final counter. The
  // needle is newline-anchored so it cannot match the "# TYPE" line.
  const std::string text = BodyOf(Get(port, "/metrics"));
  const std::string needle = "\ntg_avs_edges_generated ";
  const std::size_t at = text.find(needle);
  ASSERT_NE(at, std::string::npos) << text;
  EXPECT_EQ(std::strtoull(text.c_str() + at + needle.size(), nullptr, 10),
            stats.num_edges);
}

}  // namespace
}  // namespace tg
