// Serving-path benchmark for the tg::serve daemon (docs/SERVING.md): an
// in-process daemon, N concurrent HTTP clients, cold (generate + stream)
// vs cached (whole-graph LRU hit) latency at 1/4/16 clients, p50/p99 and
// streamed edges/sec per phase.
//
// Every request in a phase has a distinct seed, so the cold phase is all
// cache misses and the warm phase (same requests replayed) is all hits —
// serve.requests / serve.cache_hits / serve.cache_misses /
// serve.bytes_streamed in the RunReport are exact, machine-independent
// counts gated by bench/baselines/BENCH_serve.json (time-derived
// histograms are skipped by the CI gate: bench_check --no_histograms).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "serve/daemon.h"
#include "serve/minihttp_client.h"
#include "util/common.h"
#include "util/stopwatch.h"

namespace {

constexpr int kScale = 13;
constexpr int kEdgeFactor = 8;
constexpr int kWorkersPerRequest = 2;
constexpr std::uint64_t kEdgesPerRequest = std::uint64_t{kEdgeFactor}
                                           << kScale;

std::string RequestJson(int client, std::uint64_t seed) {
  return "{\"tenant\": \"bench" + std::to_string(client) +
         "\", \"scale\": " + std::to_string(kScale) +
         ", \"edge_factor\": " + std::to_string(kEdgeFactor) +
         ", \"workers\": " + std::to_string(kWorkersPerRequest) +
         ", \"format\": \"adj6\", \"seed\": " + std::to_string(seed) + "}";
}

struct PhaseResult {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double seconds = 0.0;
  std::uint64_t bytes = 0;
};

/// Runs `clients` concurrent POSTs (seeds seed_base..seed_base+clients-1)
/// and returns the latency distribution. TG_CHECKs every response: a
/// failed or truncated stream would silently skew the numbers.
PhaseResult RunPhase(int port, int clients, std::uint64_t seed_base,
                     const char* expect_cache) {
  std::vector<double> latencies_ms(static_cast<std::size_t>(clients));
  std::vector<std::uint64_t> bytes(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  tg::Stopwatch phase_watch;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      tg::Stopwatch watch;
      tg::serve::ClientResponse response = tg::serve::HttpPost(
          "127.0.0.1", port, "/generate",
          RequestJson(c, seed_base + static_cast<std::uint64_t>(c)));
      latencies_ms[c] = watch.ElapsedSeconds() * 1e3;
      TG_CHECK_MSG(response.status == 200,
                   "request failed: " << response.status << " "
                                      << response.error);
      TG_CHECK_MSG(!response.truncated, "stream truncated");
      TG_CHECK_MSG(response.headers["x-tg-cache"] == expect_cache,
                   "expected cache " << expect_cache << ", got "
                                     << response.headers["x-tg-cache"]);
      bytes[c] = response.body.size();
    });
  }
  for (auto& t : threads) t.join();

  PhaseResult result;
  result.seconds = phase_watch.ElapsedSeconds();
  std::sort(latencies_ms.begin(), latencies_ms.end());
  result.p50_ms = latencies_ms[latencies_ms.size() / 2];
  result.p99_ms = latencies_ms[latencies_ms.size() * 99 / 100];
  for (std::uint64_t b : bytes) result.bytes += b;
  return result;
}

}  // namespace

int main() {
  tg::obs::Session obs_session(
      tg::obs::SessionOptions::FromEnv("bench_serve"));
  tg::bench::Banner(
      "tg::serve: daemon latency under concurrent tenants, cold vs cached",
      "generation-as-a-service atop the deterministic scheduler "
      "(docs/SERVING.md)",
      "cached p50 well under cold p50; cache counters exact: every unique "
      "request misses once, every replay hits");

  tg::serve::DaemonOptions options;
  options.max_concurrent = 4;
  options.max_queued = 64;
  options.per_tenant_inflight = 4;
  options.worker_threads = std::max(
      2, static_cast<int>(std::thread::hardware_concurrency()));
  options.cache_bytes = 256ULL << 20;
  tg::serve::ServeDaemon daemon;
  tg::Status started = daemon.Start(options);
  TG_CHECK_MSG(started.ok(), started.ToString());

  std::printf("\nscale %d, edge_factor %d, %d workers/request, adj6; "
              "%llu edges per request\n",
              kScale, kEdgeFactor, kWorkersPerRequest,
              static_cast<unsigned long long>(kEdgesPerRequest));
  std::printf("%8s %-8s %10s %10s %14s\n", "clients", "phase", "p50 ms",
              "p99 ms", "Medges/s");

  std::uint64_t seed_base = 1000;
  for (int clients : {1, 4, 16}) {
    // Cold: all distinct seeds, never seen before -> misses, full
    // generate + stream per request.
    const PhaseResult cold = RunPhase(daemon.port(), clients, seed_base,
                                      "miss");
    // Warm: identical requests replayed -> whole-graph LRU hits.
    const PhaseResult warm = RunPhase(daemon.port(), clients, seed_base,
                                      "hit");
    seed_base += static_cast<std::uint64_t>(clients);

    const double cold_meps = static_cast<double>(kEdgesPerRequest) *
                             clients / cold.seconds / 1e6;
    const double warm_meps = static_cast<double>(kEdgesPerRequest) *
                             clients / warm.seconds / 1e6;
    std::printf("%8d %-8s %10.1f %10.1f %14.1f\n", clients, "cold",
                cold.p50_ms, cold.p99_ms, cold_meps);
    std::printf("%8d %-8s %10.1f %10.1f %14.1f   (%.1fx cold p50)\n",
                clients, "cached", warm.p50_ms, warm.p99_ms, warm_meps,
                cold.p50_ms / std::max(warm.p50_ms, 1e-6));
  }

  // Write the report while the daemon's cache is still up: Drain frees the
  // cache, whose destructor takes its occupancy back out of the
  // serve.cache.* gauges. Every client has its response by now; wait for
  // the executors to finish their requests' bookkeeping first.
  while (daemon.inflight() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  obs_session.Finish();
  daemon.Drain();
  tg::bench::PrintLastOom();
  return 0;
}
