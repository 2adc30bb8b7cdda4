// serve_cli: the tg::serve daemon — generation as a service.
//
//   ./serve_cli --port=8080 --worker_threads=8 --max_concurrent=2
//
// POST /generate with a JSON request (docs/SERVING.md) streams the graph
// back in the requested format; every other path serves the live
// observability plane (/metrics, /report.json, /events, /healthz, ...).
// SIGINT/SIGTERM drain gracefully: new requests get 503, in-flight ones run
// to completion, a final run report is written, and the process exits 0.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>

#include "obs/session.h"
#include "serve/daemon.h"
#include "util/flags.h"
#include "util/stopwatch.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleStopSignal(int) { g_stop.store(true); }

void InstallStopSignalHandlers() {
  struct sigaction action {};
  action.sa_handler = HandleStopSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  tg::FlagParser flags(argc, argv);
  if (flags.Has("help")) {
    std::printf(
        "usage: %s [--port=N] [--bind=ADDR] [--worker_threads=N]\n"
        "       [--max_concurrent=N] [--max_queued=N]\n"
        "       [--per_tenant_inflight=N] [--max_scale=N]\n"
        "       [--cache_bytes=SIZE] [--mem_budget=SIZE]\n"
        "       [--work_dir=DIR] [--metrics_json=PATH]\n"
        "POST /generate a JSON request (fields and examples in\n"
        "docs/SERVING.md) and the graph streams back in the requested\n"
        "format; all other paths are the live observability plane\n"
        "(docs/OBSERVABILITY.md): /metrics, /healthz, /report.json,\n"
        "/events, /trace.\n"
        "--port=0 (the default) binds an ephemeral port, printed at\n"
        "startup. --cache_bytes caps the in-memory whole-graph cache\n"
        "(accepts human sizes: 512m, 2g; 0 disables caching).\n"
        "--mem_budget caps each request's logical working set; a request\n"
        "exceeding it fails alone, the daemon stays up.\n"
        "--max_scale bounds accepted requests (defense against a request\n"
        "that would generate for hours).\n"
        "SIGINT/SIGTERM drain: in-flight requests finish, new ones get\n"
        "503, a final run report is written when --metrics_json is given,\n"
        "and the daemon exits 0.\n",
        flags.program_name().c_str());
    return 0;
  }

  tg::serve::DaemonOptions options;
  options.port = static_cast<int>(flags.GetInt("port", 0));
  options.bind_address = flags.GetString("bind", "127.0.0.1");
  options.worker_threads = static_cast<int>(flags.GetInt("worker_threads", 4));
  options.max_concurrent = static_cast<int>(flags.GetInt("max_concurrent", 2));
  options.max_queued = static_cast<int>(flags.GetInt("max_queued", 8));
  options.per_tenant_inflight =
      static_cast<int>(flags.GetInt("per_tenant_inflight", 2));
  options.limits.max_scale = static_cast<int>(flags.GetInt("max_scale", 26));
  options.cache_bytes = flags.GetBytes("cache_bytes", 256ULL << 20);
  options.request_mem_budget_bytes = flags.GetBytes("mem_budget", 0);
  options.work_dir = flags.GetString("work_dir", "");
  options.meta["tool"] = "serve_cli";
  options.meta["worker_threads"] = std::to_string(options.worker_threads);
  options.meta["max_concurrent"] = std::to_string(options.max_concurrent);

  // The daemon's live /metrics needs the registry whether or not a final
  // report is asked for.
  tg::obs::SessionOptions obs_options;
  obs_options.meta["tool"] = "serve_cli";
  obs_options.metrics_json = flags.GetString("metrics_json", "");
  obs_options.enable_metrics = true;
  tg::obs::Session obs_session(std::move(obs_options));

  InstallStopSignalHandlers();

  tg::Stopwatch watch;
  tg::serve::ServeDaemon daemon;
  tg::Status started = daemon.Start(options);
  if (!started.ok()) {
    std::fprintf(stderr, "cannot start daemon: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("tg::serve on http://%s:%d/ (POST /generate; /metrics)\n",
              options.bind_address.c_str(), daemon.port());
  std::fflush(stdout);

  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  const int inflight = daemon.inflight();
  std::printf("draining: %d request(s) in flight\n", inflight);
  std::fflush(stdout);
  daemon.Drain();

  if (!obs_session.Finish({{"wall_seconds",
                            std::to_string(watch.ElapsedSeconds())}})
           .ok()) {
    return 1;
  }
  std::printf("serve_cli: drained and stopped\n");
  return 0;
}
