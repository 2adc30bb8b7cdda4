// serve/daemon.h — generation as a service: the multi-tenant tg::serve
// daemon (ROADMAP item 1's control plane, ISSUE: tg::serve).
//
// One HTTP port carries both planes. POST /generate takes a JSON request
// (serve/request.h — the same knobs as gen_cli) and streams the graph back
// in the requested format over chunked transfer; every other path is the
// live observability plane (obs/serve/admin_server.h): /metrics,
// /report.json, /events, /healthz, ... with serve.* metrics wired in.
//
// Life of a request:
//
//   validate -> 400 | cache hit -> whole payload from memory (X-TG-Cache:
//   hit) | admit -> 429/503 when over caps | stream.
//
// A streamed request generates into per-worker shard files in the daemon's
// work dir, written inline (storage::IoMode::kSync), riding the
// deterministic chunk-commit protocol: the commit hook checkpoints each
// shard (ResumableSink::CommitState) and publishes the shard's durable byte
// count, and a per-request streamer thread tails the durable prefixes in
// shard order, broadcasting blocks onto the request's HTTP channel. The
// blocks it sends are also the graph's cache payload; a run that fails
// (OOM, fault, a latched write error) or is cancelled aborts its stream
// and caches nothing. Backpressure is per request: a slow client grows its
// channel backlog past the watermark and only its streamer pauses —
// generation keeps committing to disk, other tenants' streams are
// untouched. A disconnected client (subscriber count drops to zero, or the
// backlog stalls past the timeout) flips the request's cancel flag;
// generation stops at the next chunk boundary, exactly as if the process
// had crashed there — the committed prefix is the prefix an uncancelled run
// would have written.
//
// All tenants share one persistent worker pool (SchedulerOptions::
// worker_runner): admission bounds concurrent requests and per-tenant
// in-flight counts (429 + Retry-After beyond them), so one tenant cannot
// monopolize the pool or the queue. Completed graphs small enough for the
// artifact cache are kept content-addressed by ConfigFingerprint and served
// from memory on repeat; prefix tables are memoized across requests
// regardless of size (serve/artifact_cache.h).
//
// docs/SERVING.md is the operator's guide.
#ifndef TRILLIONG_SERVE_DAEMON_H_
#define TRILLIONG_SERVE_DAEMON_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/http_server.h"
#include "serve/artifact_cache.h"
#include "serve/request.h"
#include "storage/temp_dir.h"
#include "util/status.h"

namespace tg::serve {

struct DaemonOptions {
  /// 0 binds an ephemeral port (read it back from port()).
  int port = 0;
  std::string bind_address = "127.0.0.1";

  /// Requests generating at once; beyond this they queue.
  int max_concurrent = 2;
  /// Admission queue depth beyond the active set; 429 past it.
  int max_queued = 8;
  /// One tenant's in-flight (queued + active) ceiling; 429 past it.
  int per_tenant_inflight = 2;
  /// Threads in the shared generation pool all tenants' chunks run on.
  int worker_threads = 4;

  /// Validation ceilings (serve/request.h).
  RequestLimits limits;

  /// POST body cap handed to the HTTP server (411/413 semantics there).
  std::size_t max_body_bytes = 64 * 1024;

  /// Whole-graph cache (0 disables); entry cap defaults to a quarter.
  std::uint64_t cache_bytes = 256ULL << 20;
  std::uint64_t cache_entry_max_bytes = 0;

  /// Streamer block size and the per-connection backlog watermark above
  /// which the request's streamer pauses.
  std::size_t stream_block_bytes = 256 * 1024;
  std::size_t backlog_watermark_bytes = 4ULL << 20;
  /// A streamer blocked this long with no progress (client neither reading
  /// nor disconnecting cleanly) cancels the request.
  int stall_timeout_ms = 30000;

  /// Per-request logical memory cap (MemoryBudget); 0 tracks only.
  std::uint64_t request_mem_budget_bytes = 0;

  /// Shard files of in-flight requests live here; empty creates a private
  /// temp dir for the daemon's lifetime.
  std::string work_dir;

  /// Merged into /report.json meta.
  std::map<std::string, std::string> meta;
};

class ServeDaemon {
 public:
  ServeDaemon();   ///< out of line: members hold incomplete types here
  ~ServeDaemon();  ///< Stop()s if still running

  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  Status Start(const DaemonOptions& options);

  /// Graceful shutdown: new requests get 503, queued and active ones run to
  /// completion, then everything stops. The SIGINT/SIGTERM path.
  void Drain();

  /// Immediate shutdown: cancels in-flight requests at their next chunk
  /// boundary and aborts their streams.
  void Stop();

  bool running() const { return server_.running(); }
  int port() const { return server_.port(); }

  /// In-flight (queued + active) requests right now; exposed for tests.
  int inflight() const;

 private:
  struct Request;
  class WorkerPool;

  net::HttpResponse Handle(const net::HttpRequest& request);
  net::HttpResponse HandleGenerate(const net::HttpRequest& request);
  void ExecutorLoop();
  void RunRequest(const std::shared_ptr<Request>& req);
  void StreamRequest(const std::shared_ptr<Request>& req);
  void Shutdown(bool cancel_inflight);

  DaemonOptions options_;
  net::HttpServer server_;
  std::unique_ptr<ArtifactCache> cache_;
  std::unique_ptr<WorkerPool> pool_;
  std::string work_dir_;
  std::unique_ptr<storage::TempDir> owned_work_dir_;  ///< when work_dir empty
  std::chrono::steady_clock::time_point start_time_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;  ///< executors wait for work
  std::condition_variable idle_cv_;   ///< Drain waits for in-flight == 0
  std::deque<std::shared_ptr<Request>> queue_;
  std::vector<std::shared_ptr<Request>> active_;
  std::map<std::string, int> tenant_inflight_;
  std::uint64_t next_id_ = 1;
  bool draining_ = false;
  bool stopping_ = false;

  std::vector<std::thread> executors_;
};

}  // namespace tg::serve

#endif  // TRILLIONG_SERVE_DAEMON_H_
