// End-to-end tests for the tg::serve daemon (src/serve/): request
// validation, multi-tenant streamed generation that must be byte-identical
// to an offline run for every format, the model-artifact and whole-graph
// caches, admission control (429 under overload), client-disconnect
// cancellation, shard write errors, and graceful drain.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/trilliong.h"
#include "format/adj6.h"
#include "format/csr6.h"
#include "format/tsv.h"
#include "obs/metrics.h"
#include "serve/artifact_cache.h"
#include "serve/daemon.h"
#include "serve/minihttp_client.h"
#include "serve/request.h"
#include "storage/temp_dir.h"
#include "util/json.h"

namespace tg {
namespace {

using serve::ClientOptions;
using serve::ClientResponse;
using serve::DaemonOptions;
using serve::GenRequest;
using serve::HttpGet;
using serve::HttpPost;
using serve::ServeDaemon;

std::uint64_t CounterValue(const std::string& name) {
  return obs::GetCounter(name)->value();
}

/// The bytes an offline run (gen_cli's sink construction exactly) writes for
/// `request`, shards concatenated in worker order — the reference every
/// daemon-streamed payload must match byte for byte.
std::string OfflineReference(const GenRequest& request) {
  storage::TempDir dir("serve_ref");
  core::TrillionGConfig config = serve::ToConfig(request);
  const bool transposed = request.direction == "in";
  auto shard_path = [&](int worker) {
    return dir.File("ref.w" + std::to_string(worker) + "." + request.format);
  };
  core::Generate(
      config,
      [&](int worker, VertexId lo,
          VertexId hi) -> std::unique_ptr<core::ScopeSink> {
        if (request.format == "tsv") {
          return std::make_unique<format::TsvWriter>(shard_path(worker),
                                                     transposed);
        }
        if (request.format == "adj6") {
          return std::make_unique<format::Adj6Writer>(shard_path(worker));
        }
        return std::make_unique<format::Csr6Writer>(shard_path(worker), lo, hi);
      });
  std::string all;
  for (int w = 0; w < request.workers; ++w) {
    std::FILE* f = std::fopen(shard_path(w).c_str(), "rb");
    EXPECT_NE(f, nullptr) << shard_path(w);
    if (f == nullptr) continue;
    char buf[64 * 1024];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) all.append(buf, n);
    std::fclose(f);
  }
  return all;
}

std::string RequestJson(const std::string& tenant, int scale,
                        const std::string& format, int workers,
                        std::uint64_t seed = 42, int edge_factor = 8) {
  return "{\"tenant\": \"" + tenant + "\", \"scale\": " +
         std::to_string(scale) + ", \"edge_factor\": " +
         std::to_string(edge_factor) + ", \"format\": \"" +
         format + "\", \"workers\": " + std::to_string(workers) +
         ", \"seed\": " + std::to_string(seed) + "}";
}

GenRequest ParsedRequest(const std::string& json) {
  GenRequest request;
  Status s = serve::ParseGenRequest(json, serve::RequestLimits{}, &request);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return request;
}

class DaemonFixture : public ::testing::Test {
 protected:
  void SetUp() override { obs::SetEnabled(true); }

  void Start(DaemonOptions options) {
    Status started = daemon_.Start(options);
    ASSERT_TRUE(started.ok()) << started.ToString();
    port_ = daemon_.port();
  }

  ClientResponse Post(const std::string& json,
                      const ClientOptions& options = {}) {
    return HttpPost("127.0.0.1", port_, "/generate", json,
                    "application/json", options);
  }

  /// Waits up to 20 s for the daemon to hold no queued or active request.
  /// A request's outcome counters move after its stream closes, so read
  /// them after this.
  void WaitIdle() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (daemon_.inflight() > 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  ServeDaemon daemon_;
  int port_ = -1;
};

// ---------------------------------------------------------------------------
// Validation and protocol errors.

TEST_F(DaemonFixture, RejectsInvalidRequests) {
  Start(DaemonOptions{});

  EXPECT_EQ(Post("not json").status, 400);
  EXPECT_EQ(Post("[1,2,3]").status, 400);
  EXPECT_EQ(Post("{\"scale\": 10, \"surprise\": 1}").status, 400);
  EXPECT_EQ(Post("{\"scale\": 99}").status, 400);
  EXPECT_EQ(Post("{\"format\": \"xml\"}").status, 400);
  EXPECT_EQ(Post("{\"tenant\": \"no spaces\"}").status, 400);
  EXPECT_EQ(Post("{\"a\": 0.9, \"b\": 0.9, \"c\": 0.1, \"d\": 0.1}").status,
            400);
  EXPECT_EQ(Post("{\"scale\": 10.5}").status, 400);
  // Nesting far past json::kMaxNestingDepth, still under max_body_bytes.
  EXPECT_EQ(Post(std::string(60000, '[')).status, 400);
  EXPECT_EQ(Post("{\"noise\": 2.0}").status, 400);
  ClientResponse bad = Post("{\"workers\": 99}");
  EXPECT_EQ(bad.status, 400);
  EXPECT_NE(bad.body.find("workers"), std::string::npos) << bad.body;

  // Wrong method on /generate.
  ClientResponse got = HttpGet("127.0.0.1", port_, "/generate");
  EXPECT_EQ(got.status, 405);
  EXPECT_EQ(got.headers["allow"], "POST");
}

TEST_F(DaemonFixture, ErrorBodyIsJsonNamingTheOffendingKey) {
  Start(DaemonOptions{});
  // The unknown key carries a quote, a backslash and \x01 into the message.
  ClientResponse bad = Post("{\"q\\\"b\\\\\\u0001\": 1}");
  EXPECT_EQ(bad.status, 400);
  json::Value doc;
  ASSERT_TRUE(json::Parse(bad.body, &doc).ok()) << bad.body;
  EXPECT_EQ(doc.Find("error")->StringOr(""), "unknown field 'q\"b\\\x01'");
}

TEST(GenRequestTest, DeeplyNestedBodyIsCorruptionNotACrash) {
  GenRequest request;
  const Status s = serve::ParseGenRequest(std::string(60000, '['),
                                          serve::RequestLimits{}, &request);
  EXPECT_EQ(s.code(), Status::Code::kCorruption) << s.ToString();
}

TEST_F(DaemonFixture, BodyPolicyErrorsSurviveOnDaemonPort) {
  DaemonOptions options;
  options.max_body_bytes = 1024;
  Start(options);

  // POST without Content-Length -> 411 (the http_server body policy,
  // reachable through the daemon's port).
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port_));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string raw =
      "POST /generate HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
  ASSERT_EQ(::send(fd, raw.data(), raw.size(), 0),
            static_cast<ssize_t>(raw.size()));
  std::string reply;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(reply.find("411"), std::string::npos) << reply;

  // Content-Length over the cap -> 413.
  ClientResponse big = Post(std::string(2048, 'x'));
  EXPECT_EQ(big.status, 413);
}

TEST_F(DaemonFixture, AdminPlaneIsMountedNextToGenerate) {
  Start(DaemonOptions{});
  ClientResponse health = HttpGet("127.0.0.1", port_, "/healthz");
  EXPECT_EQ(health.status, 200);
  ClientResponse metrics = HttpGet("127.0.0.1", port_, "/metrics");
  EXPECT_EQ(metrics.status, 200);
  // The serve.* families are preregistered: visible before any request.
  EXPECT_NE(metrics.body.find("tg_serve_requests"), std::string::npos);
  EXPECT_NE(metrics.body.find("tg_serve_cache_hits"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Bit-identity: daemon-streamed output == offline generation, all formats,
// concurrently from multiple tenants.

TEST_F(DaemonFixture, ConcurrentMultiTenantStreamsAreByteIdentical) {
  DaemonOptions options;
  options.max_concurrent = 3;
  options.worker_threads = 4;
  options.cache_bytes = 0;  // exercise the streaming path, not the cache
  Start(options);

  const struct {
    const char* tenant;
    const char* format;
    int scale;
    int workers;
  } cases[] = {
      {"alice", "tsv", 11, 3},
      {"bob", "adj6", 12, 2},
      {"carol", "csr6", 11, 2},
  };

  std::string expected[3];
  ClientResponse got[3];
  std::vector<std::thread> clients;
  for (int i = 0; i < 3; ++i) {
    const auto& c = cases[i];
    const std::string json =
        RequestJson(c.tenant, c.scale, c.format, c.workers);
    expected[i] = OfflineReference(ParsedRequest(json));
    ASSERT_FALSE(expected[i].empty());
    clients.emplace_back([this, json, &got, i] { got[i] = Post(json); });
  }
  for (auto& t : clients) t.join();

  for (int i = 0; i < 3; ++i) {
    SCOPED_TRACE(cases[i].format);
    EXPECT_EQ(got[i].status, 200);
    EXPECT_FALSE(got[i].truncated) << got[i].error;
    EXPECT_EQ(got[i].headers["x-tg-cache"], "miss");
    ASSERT_EQ(got[i].body.size(), expected[i].size());
    EXPECT_TRUE(got[i].body == expected[i])
        << "daemon stream diverged from offline generation";
  }
  // Per-tenant accounting saw all three tenants.
  EXPECT_GE(CounterValue("serve.tenant.alice.requests"), 1u);
  EXPECT_GE(CounterValue("serve.tenant.bob.bytes_streamed"),
            expected[1].size());
}

// ---------------------------------------------------------------------------
// Artifact cache: repeat request is a hit, served from memory, same bytes.

TEST_F(DaemonFixture, RepeatedRequestHitsCache) {
  DaemonOptions options;
  options.cache_bytes = 64ULL << 20;
  Start(options);

  const std::string json = RequestJson("dora", 11, "adj6", 2, /*seed=*/7);
  const std::uint64_t hits_before = CounterValue("serve.cache_hits");
  const std::uint64_t misses_before = CounterValue("serve.cache_misses");

  ClientResponse cold = Post(json);
  ASSERT_EQ(cold.status, 200);
  EXPECT_EQ(cold.headers["x-tg-cache"], "miss");

  ClientResponse warm = Post(json);
  ASSERT_EQ(warm.status, 200);
  EXPECT_EQ(warm.headers["x-tg-cache"], "hit");
  EXPECT_EQ(warm.body, cold.body);
  EXPECT_EQ(CounterValue("serve.cache_hits"), hits_before + 1);
  EXPECT_EQ(CounterValue("serve.cache_misses"), misses_before + 1);

  // A different seed is a different fingerprint: miss again.
  ClientResponse other = Post(RequestJson("dora", 11, "adj6", 2, /*seed=*/8));
  ASSERT_EQ(other.status, 200);
  EXPECT_EQ(other.headers["x-tg-cache"], "miss");
  EXPECT_NE(other.body, cold.body);
}

TEST_F(DaemonFixture, RepeatedScale16RequestHitsCacheThroughSlowReader) {
  DaemonOptions options;
  options.cache_bytes = 64ULL << 20;
  Start(options);

  // A multi-MB payload, as in serve_mix: far more than one socket buffer.
  const std::string json =
      RequestJson("erin", 16, "adj6", 2, /*seed=*/7, /*edge_factor=*/16);
  ClientResponse miss = Post(json);
  ASSERT_EQ(miss.status, 200);
  EXPECT_EQ(miss.headers["x-tg-cache"], "miss");
  ASSERT_GT(miss.body.size(), 4u << 20);

  // A client that pauses after every fragment leaves the server's socket
  // full, so the cached payload goes out over many partial writes.
  ClientOptions slow;
  slow.on_body = [](const char*, std::size_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return true;
  };
  ClientResponse hit = Post(json, slow);
  ASSERT_EQ(hit.status, 200);
  EXPECT_EQ(hit.headers["x-tg-cache"], "hit");
  EXPECT_FALSE(hit.truncated) << hit.error;
  ASSERT_EQ(hit.body.size(), miss.body.size());
  EXPECT_TRUE(hit.body == miss.body) << "cache hit diverged from the miss";
}

// ---------------------------------------------------------------------------
// Model artifacts are keyed by what shapes the noise vector: without NSKG
// noise the rng seed does not, so every seed shares one build.

std::string NoisyRequestJson(std::uint64_t seed, double noise) {
  return "{\"tenant\": \"kim\", \"scale\": 10, \"edge_factor\": 8, "
         "\"format\": \"adj6\", \"workers\": 2, \"noise\": " +
         std::to_string(noise) + ", \"seed\": " + std::to_string(seed) + "}";
}

TEST_F(DaemonFixture, NoiselessModelIsBuiltOnceAcrossSeeds) {
  Start(DaemonOptions{});
  const std::uint64_t tables_before =
      CounterValue("serve.cache.table_builds");
  const std::uint64_t plans_before = CounterValue("serve.cache.plan_builds");
  for (std::uint64_t seed : {101, 102, 103}) {
    const std::string json = NoisyRequestJson(seed, 0.0);
    ClientResponse got = Post(json);
    ASSERT_EQ(got.status, 200);
    EXPECT_EQ(got.headers["x-tg-cache"], "miss");
    EXPECT_FALSE(got.truncated) << got.error;
    EXPECT_TRUE(got.body == OfflineReference(ParsedRequest(json)))
        << "seed " << seed;
  }
  EXPECT_EQ(CounterValue("serve.cache.table_builds"), tables_before + 1);
  EXPECT_EQ(CounterValue("serve.cache.plan_builds"), plans_before + 1);
}

TEST_F(DaemonFixture, NoisyModelsAreBuiltPerSeed) {
  Start(DaemonOptions{});
  const std::uint64_t tables_before =
      CounterValue("serve.cache.table_builds");
  const std::uint64_t plans_before = CounterValue("serve.cache.plan_builds");
  for (std::uint64_t seed : {201, 202}) {
    const std::string json = NoisyRequestJson(seed, 0.1);
    ClientResponse got = Post(json);
    ASSERT_EQ(got.status, 200);
    EXPECT_FALSE(got.truncated) << got.error;
    EXPECT_TRUE(got.body == OfflineReference(ParsedRequest(json)))
        << "seed " << seed;
  }
  EXPECT_EQ(CounterValue("serve.cache.table_builds"), tables_before + 2);
  EXPECT_EQ(CounterValue("serve.cache.plan_builds"), plans_before + 2);
}

// ---------------------------------------------------------------------------
// The cached payload is the streamed bytes: kept only for a complete stream
// that fits the entry cap.

TEST_F(DaemonFixture, PayloadOverEntryCapStreamsFullyAndIsNotCached) {
  DaemonOptions options;
  options.cache_bytes = 64ULL << 20;
  options.cache_entry_max_bytes = 1024;
  Start(options);

  const std::string json = RequestJson("lena", 11, "adj6", 2, /*seed=*/9);
  const std::string expected = OfflineReference(ParsedRequest(json));
  ASSERT_GT(expected.size(), options.cache_entry_max_bytes);
  for (int round = 0; round < 2; ++round) {
    ClientResponse got = Post(json);
    ASSERT_EQ(got.status, 200);
    EXPECT_EQ(got.headers["x-tg-cache"], "miss") << "round " << round;
    EXPECT_FALSE(got.truncated) << got.error;
    EXPECT_TRUE(got.body == expected) << "round " << round;
  }
}

TEST_F(DaemonFixture, PayloadOverRequestBudgetStreamsFullyAndIsNotCached) {
  DaemonOptions options;
  options.cache_bytes = 64ULL << 20;
  // Room for generation's scope memory, not for the 200 KB graph.
  options.request_mem_budget_bytes = 96 * 1024;
  Start(options);

  const std::string json = RequestJson("lena", 12, "adj6", 2, /*seed=*/9);
  const std::string expected = OfflineReference(ParsedRequest(json));
  ASSERT_GT(expected.size(), options.request_mem_budget_bytes);
  const std::uint64_t completed_before = CounterValue("serve.completed");
  for (int round = 0; round < 2; ++round) {
    ClientResponse got = Post(json);
    ASSERT_EQ(got.status, 200);
    EXPECT_EQ(got.headers["x-tg-cache"], "miss") << "round " << round;
    EXPECT_FALSE(got.truncated) << got.error;
    EXPECT_TRUE(got.body == expected) << "round " << round;
  }
  WaitIdle();
  EXPECT_EQ(CounterValue("serve.completed"), completed_before + 2);
}

TEST_F(DaemonFixture, DisconnectedStreamLeavesNothingCached) {
  DaemonOptions options;
  options.backlog_watermark_bytes = 4 * 1024;
  options.stream_block_bytes = 4 * 1024;
  options.cache_bytes = 64ULL << 20;
  Start(options);

  const std::string json = RequestJson("mona", 14, "tsv", 2);
  ClientOptions bail;
  bail.on_body = [](const char*, std::size_t) { return false; };
  EXPECT_EQ(Post(json, bail).status, 200);
  WaitIdle();
  ASSERT_EQ(daemon_.inflight(), 0);

  ClientResponse full = Post(json);
  ASSERT_EQ(full.status, 200);
  EXPECT_EQ(full.headers["x-tg-cache"], "miss");
  EXPECT_FALSE(full.truncated) << full.error;
  EXPECT_TRUE(full.body == OfflineReference(ParsedRequest(json)));
  // The complete stream is what gets cached.
  EXPECT_EQ(Post(json).headers["x-tg-cache"], "hit");
}

// ---------------------------------------------------------------------------
// A failed shard write fails the request: the stream ends without its
// terminating chunk and nothing is cached.

TEST_F(DaemonFixture, ShardWriteErrorFailsTheRequest) {
  DaemonOptions options;
  options.cache_bytes = 64ULL << 20;
  Start(options);

  const std::string json = RequestJson("nina", 12, "adj6", 2, /*seed=*/5);
  const std::string expected = OfflineReference(ParsedRequest(json));
  const std::uint64_t failed_before = CounterValue("serve.failed");
  {
    ::setenv("TG_FAULT_PLAN", "m0:iofail@chunk=2", 1);
    struct EnvGuard {
      ~EnvGuard() { ::unsetenv("TG_FAULT_PLAN"); }
    } guard;
    ClientResponse broken = Post(json);
    EXPECT_EQ(broken.status, 200);  // headers went out before the fault
    EXPECT_TRUE(broken.truncated) << "a failed write closed as complete";
    EXPECT_LT(broken.body.size(), expected.size());
  }
  WaitIdle();
  EXPECT_EQ(CounterValue("serve.failed"), failed_before + 1);

  ClientResponse clean = Post(json);
  ASSERT_EQ(clean.status, 200);
  EXPECT_EQ(clean.headers["x-tg-cache"], "miss");
  EXPECT_FALSE(clean.truncated) << clean.error;
  EXPECT_TRUE(clean.body == expected);
}

TEST(ArtifactCacheTest, TableBytesGaugeCountsLiveModels) {
  serve::ArtifactCache::Options options;
  options.max_models = 2;
  options.graph_cache_bytes = 1000;
  obs::Gauge* gauge = obs::GetGauge("serve.cache.table_bytes");
  obs::Gauge* graph_bytes = obs::GetGauge("serve.cache.graph_bytes");
  obs::Gauge* graph_entries = obs::GetGauge("serve.cache.graph_entries");
  const double before = gauge->value();
  const double graph_bytes_before = graph_bytes->value();
  const double graph_entries_before = graph_entries->value();
  {
    serve::ArtifactCache cache(options);
    std::vector<std::shared_ptr<const core::AvsPrefixTables>> tables;
    for (int scale : {8, 9, 10}) {  // max_models + 1 models
      GenRequest request;
      request.scale = scale;
      tables.push_back(cache.PrefixTables(request, nullptr));
      ASSERT_NE(tables.back(), nullptr);
    }
    // The scale-8 model aged out; its bytes left the gauge.
    EXPECT_EQ(gauge->value() - before,
              static_cast<double>(tables[1]->MemoryBytes() +
                                  tables[2]->MemoryBytes()));
    ASSERT_TRUE(cache.InsertGraph(1, std::string(200, 'a')));
    EXPECT_EQ(graph_bytes->value() - graph_bytes_before, 200);
    EXPECT_EQ(graph_entries->value() - graph_entries_before, 1);
  }
  // A destroyed cache (the daemon's Shutdown) frees its models and graphs,
  // so all three gauges drop back.
  EXPECT_EQ(gauge->value(), before);
  EXPECT_EQ(graph_bytes->value(), graph_bytes_before);
  EXPECT_EQ(graph_entries->value(), graph_entries_before);
}

TEST(ArtifactCacheTest, ModelArtifactsAreMemoizedAndGraphLruEvicts) {
  serve::ArtifactCache::Options options;
  options.graph_cache_bytes = 1000;
  options.graph_entry_max_bytes = 600;
  serve::ArtifactCache cache(options);

  GenRequest request;
  request.scale = 10;
  bool computed = false;
  auto plan = cache.PartitionPlan(request, &computed);
  EXPECT_TRUE(computed);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->size(), static_cast<std::size_t>(request.workers) + 1);
  auto again = cache.PartitionPlan(request, &computed);
  EXPECT_FALSE(computed);
  EXPECT_EQ(plan.get(), again.get());

  bool built = false;
  auto tables = cache.PrefixTables(request, &built);
  EXPECT_TRUE(built);
  ASSERT_NE(tables, nullptr);
  cache.PrefixTables(request, &built);
  EXPECT_FALSE(built);
  // Ineligible request (descent kernel): no tables to share.
  GenRequest descent = request;
  descent.use_prefix_tables = false;
  EXPECT_EQ(cache.PrefixTables(descent, &built), nullptr);

  // Whole-graph LRU: entry over the per-entry cap refused; total cap evicts.
  EXPECT_FALSE(cache.InsertGraph(1, std::string(601, 'x')));
  EXPECT_TRUE(cache.InsertGraph(1, std::string(500, 'a')));
  EXPECT_TRUE(cache.InsertGraph(2, std::string(400, 'b')));
  EXPECT_EQ(cache.graph_entries(), 2u);
  EXPECT_NE(cache.LookupGraph(1), nullptr);  // refresh 1: now 2 is LRU
  EXPECT_TRUE(cache.InsertGraph(3, std::string(300, 'c')));
  EXPECT_EQ(cache.LookupGraph(2), nullptr);  // evicted
  EXPECT_NE(cache.LookupGraph(1), nullptr);
  EXPECT_NE(cache.LookupGraph(3), nullptr);
  EXPECT_LE(cache.graph_bytes_used(), 1000u);
}

// ---------------------------------------------------------------------------
// Admission control: per-tenant cap answers 429 while the slot is held.

TEST_F(DaemonFixture, OverloadedTenantGets429) {
  DaemonOptions options;
  options.per_tenant_inflight = 1;
  options.max_concurrent = 1;
  // Tiny watermark: a client that stops reading wedges its streamer (and
  // holds its admission slot) as soon as the backlog passes 4 KiB.
  options.backlog_watermark_bytes = 4 * 1024;
  options.stream_block_bytes = 4 * 1024;
  options.cache_bytes = 0;
  Start(options);

  // Tenant "erin" opens a stream and stops consuming after the first bytes.
  std::atomic<bool> got_first{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    ClientOptions slow;
    slow.on_body = [&](const char*, std::size_t) {
      got_first.store(true);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return true;
    };
    Post(RequestJson("erin", 13, "tsv", 2), slow);
  });
  while (!got_first.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The slot is held: a second request from the same tenant is refused.
  ClientResponse refused = Post(RequestJson("erin", 10, "adj6", 1));
  EXPECT_EQ(refused.status, 429);
  EXPECT_FALSE(refused.headers["retry-after"].empty());
  EXPECT_GE(CounterValue("serve.rejected"), 1u);

  release.store(true);
  holder.join();
}

// ---------------------------------------------------------------------------
// Client disconnect cancels the request.

TEST_F(DaemonFixture, ClientDisconnectCancelsGeneration) {
  DaemonOptions options;
  options.backlog_watermark_bytes = 4 * 1024;
  options.stream_block_bytes = 4 * 1024;
  options.cache_bytes = 0;
  Start(options);

  const std::uint64_t cancelled_before = CounterValue("serve.cancelled");

  // Hang up after the first body bytes arrive.
  ClientOptions bail;
  bail.on_body = [](const char*, std::size_t) { return false; };
  ClientResponse aborted = Post(RequestJson("frank", 14, "tsv", 2), bail);
  EXPECT_EQ(aborted.status, 200);  // headers arrived before the hangup

  // The daemon notices, cancels, and returns to idle.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (daemon_.inflight() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(daemon_.inflight(), 0);
  EXPECT_GE(CounterValue("serve.cancelled"), cancelled_before + 1);

  // The daemon is healthy afterwards: a fresh request completes.
  const std::string json = RequestJson("frank", 10, "adj6", 1);
  ClientResponse ok = Post(json);
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(ok.body, OfflineReference(ParsedRequest(json)));
}

// ---------------------------------------------------------------------------
// Graceful drain: in-flight requests complete, then the daemon stops.

TEST_F(DaemonFixture, DrainCompletesInFlightRequests) {
  DaemonOptions options;
  options.max_concurrent = 2;
  Start(options);

  const std::string json = RequestJson("gail", 12, "adj6", 2);
  const std::string expected = OfflineReference(ParsedRequest(json));
  const std::uint64_t completed_before = CounterValue("serve.completed");

  ClientResponse got;
  std::thread client([&] { got = Post(json); });
  // Wait for the request to be admitted (or already finished), then drain
  // concurrently with it.
  while (daemon_.inflight() == 0 &&
         CounterValue("serve.completed") == completed_before) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  daemon_.Drain();
  client.join();

  EXPECT_EQ(got.status, 200);
  EXPECT_FALSE(got.truncated) << got.error;
  EXPECT_EQ(got.body, expected);
  EXPECT_FALSE(daemon_.running());
}

}  // namespace
}  // namespace tg
