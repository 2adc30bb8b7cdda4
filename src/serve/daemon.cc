#include "serve/daemon.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <list>
#include <optional>

#include "core/scheduler.h"
#include "core/trilliong.h"
#include "fault/fault_injector.h"
#include "format/csr6.h"
#include "format/resume_token.h"
#include "format/shard.h"
#include "obs/metrics.h"
#include "obs/serve/admin_server.h"
#include "util/json.h"
#include "util/memory_budget.h"

namespace tg::serve {

namespace {

const char* ContentTypeFor(const std::string& format) {
  return format == "tsv" ? "text/tab-separated-values; charset=utf-8"
                         : "application/octet-stream";
}

std::string JsonError(const std::string& message) {
  std::string out = "{\"error\": ";
  json::AppendString(message, &out);
  out += "}\n";
  return out;
}

std::string HexFingerprint(std::uint64_t fingerprint) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buf;
}

/// Closes a file descriptor when it goes out of scope.
struct ScopedFd {
  ScopedFd() = default;
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  int fd = -1;
  ~ScopedFd() {
    if (fd >= 0) ::close(fd);
  }
};

void RecordServeEvent(const std::string& kind, std::uint64_t id,
                      const std::string& detail) {
  obs::Event event;
  event.kind = kind;
  event.machine = -1;
  event.ordinal = id;
  event.detail = detail;
  obs::Registry::Global().RecordEvent(std::move(event));
}

}  // namespace

/// One admitted generation request moving through queue -> generate+stream
/// -> completion. Shared by the executor, the streamer thread, and the
/// chunk-commit hook.
struct ServeDaemon::Request {
  std::uint64_t id = 0;
  GenRequest gen;
  std::uint64_t fingerprint = 0;
  std::string channel;
  std::chrono::steady_clock::time_point accept_time{};

  /// Flipped by the streamer on disconnect/stall and by Stop(); generation
  /// halts at the next chunk boundary (TrillionGConfig::cancel_flag).
  std::atomic<bool> cancel{false};

  /// The run's per-request budget; the streamer charges the cache payload
  /// it builds to it. Outlives the streamer thread.
  MemoryBudget* budget = nullptr;

  std::mutex mu;
  std::condition_variable cv;
  /// Per shard, bytes made durable by the chunk-commit protocol — the
  /// prefix the streamer may send while generation is still running.
  std::vector<std::uint64_t> durable;
  bool done = false;       ///< Generate() returned
  bool failed = false;     ///< OOM / unrecoverable fault / write error
  bool cancelled = false;  ///< generation stopped early: shards are prefixes

  /// Streamer-thread results, read by the executor after join.
  bool streamed_all = false;
  std::uint64_t bytes_streamed = 0;
};

/// The shared generation pool: every tenant's scheduler workers run here.
/// Run() executes a batch of worker bodies, the caller's thread working on
/// its own batch alongside the pool threads, and returns when the batch is
/// complete — the SchedulerOptions::worker_runner contract. Safe with any
/// pool size because any single scheduler worker drains all remaining
/// chunks by stealing.
class ServeDaemon::WorkerPool {
 public:
  explicit WorkerPool(int threads) {
    for (int i = 0; i < threads; ++i) {
      threads_.emplace_back([this] { Loop(); });
    }
  }

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  void Run(std::vector<std::function<void()>>& bodies) {
    auto batch = std::make_shared<Batch>();
    batch->bodies = &bodies;
    batch->size = bodies.size();
    {
      std::lock_guard<std::mutex> lock(mu_);
      batches_.push_back(batch);
    }
    cv_.notify_all();
    // The caller works its own batch too: a request never waits idle for
    // pool threads occupied by another tenant's batch.
    while (ExecuteOne(batch)) {
    }
    std::unique_lock<std::mutex> lk(batch->mu);
    batch->cv.wait(lk, [&] { return batch->done == bodies.size(); });
    lk.unlock();
    std::lock_guard<std::mutex> lock(mu_);
    batches_.remove(batch);
  }

 private:
  struct Batch {
    /// Valid while any body is still unfinished: Run() cannot return (and
    /// the caller's vector cannot die) before done == size. Exhausted
    /// batches are tested against `size` only, never through this pointer.
    std::vector<std::function<void()>>* bodies = nullptr;
    std::size_t size = 0;
    std::atomic<std::size_t> next{0};
    std::mutex mu;
    std::condition_variable cv;
    std::size_t done = 0;  ///< guarded by mu
  };

  /// Claims and runs one body of `batch`; false when the batch has none
  /// left to claim.
  static bool ExecuteOne(const std::shared_ptr<Batch>& batch) {
    const std::size_t idx = batch->next.fetch_add(1);
    if (idx >= batch->size) return false;
    (*batch->bodies)[idx]();
    {
      std::lock_guard<std::mutex> lock(batch->mu);
      ++batch->done;
    }
    batch->cv.notify_all();
    return true;
  }

  void Loop() {
    for (;;) {
      std::shared_ptr<Batch> batch;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] {
          if (stop_) return true;
          for (const auto& b : batches_) {
            if (b->next.load() < b->size) return true;
          }
          return false;
        });
        if (stop_) return;
        for (const auto& b : batches_) {
          if (b->next.load() < b->size) {
            batch = b;
            break;
          }
        }
      }
      if (batch != nullptr) ExecuteOne(batch);
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::list<std::shared_ptr<Batch>> batches_;
  std::vector<std::thread> threads_;
  bool stop_ = false;
};

ServeDaemon::ServeDaemon() = default;

ServeDaemon::~ServeDaemon() { Stop(); }

Status ServeDaemon::Start(const DaemonOptions& options) {
  Stop();
  options_ = options;
  start_time_ = std::chrono::steady_clock::now();

  if (options_.work_dir.empty()) {
    owned_work_dir_ = std::make_unique<storage::TempDir>("tg_serve");
    work_dir_ = owned_work_dir_->path();
  } else {
    work_dir_ = options_.work_dir;
  }

  ArtifactCache::Options cache_options;
  cache_options.graph_cache_bytes = options_.cache_bytes;
  cache_options.graph_entry_max_bytes = options_.cache_entry_max_bytes;
  cache_ = std::make_unique<ArtifactCache>(cache_options);
  pool_ = std::make_unique<WorkerPool>(std::max(options_.worker_threads, 1));

  // Create the serve.* families up front so /metrics exposes them (at zero)
  // from the first scrape, before any request arrives.
  for (const char* name :
       {"serve.requests", "serve.rejected", "serve.completed",
        "serve.cancelled", "serve.failed", "serve.cache_hits",
        "serve.cache_misses", "serve.bytes_streamed"}) {
    obs::GetCounter(name);
  }
  obs::GetGauge("serve.active")->Set(0);
  obs::GetGauge("serve.queued")->Set(0);
  obs::GetHistogram("serve.queue_wait_ms");
  obs::GetHistogram("serve.request_ms");

  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = false;
    stopping_ = false;
    next_id_ = 1;
  }

  net::HttpServer::Options http;
  http.bind_address = options_.bind_address;
  http.port = options_.port;
  http.max_body_bytes = options_.max_body_bytes;
  // Headroom for the request line + headers on top of the body cap.
  http.max_request_bytes =
      std::max<std::size_t>(16 * 1024, options_.max_body_bytes + 16 * 1024);
  Status started = server_.Start(
      http, [this](const net::HttpRequest& request) { return Handle(request); });
  if (!started.ok()) return started;
  obs::serve::InstallEventStreamBridges(&server_);

  for (int i = 0; i < std::max(options_.max_concurrent, 1); ++i) {
    executors_.emplace_back([this] { ExecutorLoop(); });
  }
  return Status::Ok();
}

void ServeDaemon::Drain() { Shutdown(/*cancel_inflight=*/false); }

void ServeDaemon::Stop() { Shutdown(/*cancel_inflight=*/true); }

int ServeDaemon::inflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(queue_.size() + active_.size());
}

void ServeDaemon::Shutdown(bool cancel_inflight) {
  if (!server_.running() && executors_.empty()) return;

  std::vector<std::shared_ptr<Request>> dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
    if (cancel_inflight) {
      stopping_ = true;
      for (auto& req : queue_) {
        dropped.push_back(req);
        if (--tenant_inflight_[req->gen.tenant] <= 0) {
          tenant_inflight_.erase(req->gen.tenant);
        }
      }
      queue_.clear();
      for (auto& req : active_) req->cancel.store(true);
      obs::GetGauge("serve.queued")->Set(0);
    }
    queue_cv_.notify_all();
  }
  // Channel teardown outside mu_: CloseChannel takes the server's lock.
  for (auto& req : dropped) {
    req->cancel.store(true);
    server_.CloseChannel(req->channel, /*graceful=*/false);
    obs::GetCounter("serve.cancelled")->Add(1);
  }

  {
    std::unique_lock<std::mutex> lk(mu_);
    idle_cv_.wait(lk, [&] { return queue_.empty() && active_.empty(); });
    stopping_ = true;  // executors may now exit
    queue_cv_.notify_all();
  }
  for (std::thread& t : executors_) t.join();
  executors_.clear();

  obs::serve::InstallEventStreamBridges(nullptr);
  server_.Stop();
  pool_.reset();
  cache_.reset();
  owned_work_dir_.reset();
}

net::HttpResponse ServeDaemon::Handle(const net::HttpRequest& request) {
  if (request.path == "/generate") return HandleGenerate(request);
  const double uptime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time_)
          .count();
  return obs::serve::HandleAdminRequest(request, options_.meta, uptime_s);
}

net::HttpResponse ServeDaemon::HandleGenerate(const net::HttpRequest& http) {
  net::HttpResponse response;
  if (http.method != "POST") {
    response.status = 405;
    response.headers["Allow"] = "POST";
    response.content_type = "application/json";
    response.body = JsonError("/generate takes POST with a JSON body");
    return response;
  }

  obs::GetCounter("serve.requests")->Add(1);

  GenRequest gen;
  Status parsed = ParseGenRequest(http.body, options_.limits, &gen);
  if (!parsed.ok()) {
    obs::GetCounter("serve.rejected")->Add(1);
    response.status = 400;
    response.content_type = "application/json";
    response.body = JsonError(parsed.message());
    return response;
  }
  obs::GetCounter("serve.tenant." + gen.tenant + ".requests")->Add(1);

  const std::uint64_t fingerprint = Fingerprint(gen);
  response.headers["X-TG-Fingerprint"] = HexFingerprint(fingerprint);
  response.content_type = ContentTypeFor(gen.format);

  if (std::shared_ptr<const std::string> payload =
          cache_->LookupGraph(fingerprint)) {
    obs::GetCounter("serve.cache_hits")->Add(1);
    obs::GetCounter("serve.bytes_streamed")->Add(payload->size());
    obs::GetCounter("serve.tenant." + gen.tenant + ".bytes_streamed")
        ->Add(payload->size());
    response.headers["X-TG-Cache"] = "hit";
    response.chunked = payload->size() > 64 * 1024;
    response.shared_body = std::move(payload);  // sent by reference
    return response;
  }
  obs::GetCounter("serve.cache_misses")->Add(1);

  std::shared_ptr<Request> req;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_ || stopping_) {
      obs::GetCounter("serve.rejected")->Add(1);
      response.status = 503;
      response.headers["Retry-After"] = "1";
      response.content_type = "application/json";
      response.body = JsonError("daemon is draining");
      return response;
    }
    auto tenant_it = tenant_inflight_.find(gen.tenant);
    const int tenant_inflight =
        tenant_it == tenant_inflight_.end() ? 0 : tenant_it->second;
    if (tenant_inflight >= options_.per_tenant_inflight) {
      obs::GetCounter("serve.rejected")->Add(1);
      response.status = 429;
      response.headers["Retry-After"] = "1";
      response.content_type = "application/json";
      response.body = JsonError("tenant '" + gen.tenant +
                                "' is at its in-flight request cap");
      return response;
    }
    if (static_cast<int>(queue_.size()) >= options_.max_queued) {
      obs::GetCounter("serve.rejected")->Add(1);
      response.status = 429;
      response.headers["Retry-After"] = "2";
      response.content_type = "application/json";
      response.body = JsonError("admission queue is full");
      return response;
    }

    req = std::make_shared<Request>();
    req->id = next_id_++;
    req->gen = gen;
    req->fingerprint = fingerprint;
    req->channel = "serve.req." + std::to_string(req->id);
    req->accept_time = std::chrono::steady_clock::now();
    req->durable.assign(static_cast<std::size_t>(gen.workers), 0);
    queue_.push_back(req);
    ++tenant_inflight_[gen.tenant];
    obs::GetGauge("serve.queued")->Set(static_cast<double>(queue_.size()));
  }
  queue_cv_.notify_one();
  RecordServeEvent("serve.accept", req->id,
                   gen.tenant + " scale=" + std::to_string(gen.scale) + " " +
                       gen.format);

  response.headers["X-TG-Cache"] = "miss";
  response.headers["X-TG-Request-Id"] = std::to_string(req->id);
  response.stream_channel = req->channel;
  return response;
}

void ServeDaemon::ExecutorLoop() {
  for (;;) {
    std::shared_ptr<Request> req;
    {
      std::unique_lock<std::mutex> lk(mu_);
      queue_cv_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      req = queue_.front();
      queue_.pop_front();
      active_.push_back(req);
      obs::GetGauge("serve.queued")->Set(static_cast<double>(queue_.size()));
      obs::GetGauge("serve.active")->Set(static_cast<double>(active_.size()));
    }

    const double wait_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - req->accept_time)
            .count();
    obs::GetHistogram("serve.queue_wait_ms")
        ->Observe(static_cast<std::uint64_t>(wait_ms));

    RunRequest(req);

    {
      std::lock_guard<std::mutex> lock(mu_);
      active_.erase(std::find(active_.begin(), active_.end(), req));
      if (--tenant_inflight_[req->gen.tenant] <= 0) {
        tenant_inflight_.erase(req->gen.tenant);
      }
      obs::GetGauge("serve.active")->Set(static_cast<double>(active_.size()));
    }
    idle_cv_.notify_all();
  }
}

void ServeDaemon::RunRequest(const std::shared_ptr<Request>& req) {
  const std::string prefix = work_dir_ + "/req" + std::to_string(req->id);
  const std::string& format = req->gen.format;
  const bool transposed = req->gen.direction == "in";

  core::TrillionGConfig config = ToConfig(req->gen);
  MemoryBudget budget(options_.request_mem_budget_bytes);
  config.budget = &budget;
  req->budget = &budget;
  config.cancel_flag = &req->cancel;
  config.worker_runner = [this](std::vector<std::function<void()>>& bodies) {
    pool_->Run(bodies);
  };

  // Cached model artifact: the tables a fresh run would build, shared
  // read-only across every request with the same model.
  std::shared_ptr<const core::AvsPrefixTables> tables =
      cache_->PrefixTables(req->gen, nullptr);
  config.shared_prefix_tables = tables.get();

  // The commit hook publishes each shard's durable byte count; the streamer
  // tails exactly that prefix. Runs under the range commit lock — keep it to
  // the checkpoint and one notify. CSR6 is excluded: its header + offsets
  // region at the file front is back-patched in Finish(), so mid-run bytes
  // are not a prefix of the final file — those streams start once the shard
  // is complete (durable stays 0 until done).
  if (format != "csr6") {
    config.chunk_commit_hook = [req](const core::Chunk& chunk,
                                     core::ScopeSink* sink) {
      auto* resumable = dynamic_cast<core::ResumableSink*>(sink);
      if (resumable == nullptr) return;
      std::string token;
      std::uint64_t bytes = 0;
      if (!resumable->CommitState(&token).ok() ||
          !format::TokenField(token, "bytes", &bytes)) {
        return;
      }
      {
        std::lock_guard<std::mutex> lock(req->mu);
        if (bytes > req->durable[static_cast<std::size_t>(chunk.range)]) {
          req->durable[static_cast<std::size_t>(chunk.range)] = bytes;
        }
      }
      req->cv.notify_all();
    };
  }

  std::thread streamer([this, req] { StreamRequest(req); });

  bool failed = false;
  core::GenerateStats stats;
  try {
    stats = core::Generate(
        config,
        [&](int worker, VertexId lo,
            VertexId hi) -> std::unique_ptr<core::ScopeSink> {
          // Inline writes: every chunk commit flushes its shard (the
          // durable prefix the streamer tails), and under the async mode
          // each flush would be a handoff plus a wait on the writer thread,
          // made while holding the range lock.
          return format::MakeShardWriter(
              format, format::ShardPath(prefix, worker, format), lo, hi,
              transposed, storage::IoMode::kSync);
        });
  } catch (const OomError& e) {
    failed = true;
    RecordServeEvent("serve.oom", req->id, e.what());
  } catch (const fault::FaultError& e) {
    failed = true;
    RecordServeEvent("serve.fault", req->id, e.what());
  }
  // A latched shard write error: the shards are truncated, so the stream
  // must not close as complete and nothing may be cached.
  if (!failed && !stats.sink_status.ok()) {
    failed = true;
    RecordServeEvent("serve.write_error", req->id,
                     stats.sink_status.ToString());
  }

  {
    std::lock_guard<std::mutex> lock(req->mu);
    req->done = true;
    req->failed = failed;
    req->cancelled = stats.cancelled;
  }
  req->cv.notify_all();
  streamer.join();

  // A request that streamed every byte completed, even if Stop() flipped its
  // cancel flag after the fact; one whose stream aborted was cancelled.
  const bool cancelled = !failed && (stats.cancelled || !req->streamed_all);
  const double request_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - req->accept_time)
          .count();
  obs::GetHistogram("serve.request_ms")
      ->Observe(static_cast<std::uint64_t>(request_ms));

  if (failed) {
    obs::GetCounter("serve.failed")->Add(1);
  } else if (cancelled) {
    obs::GetCounter("serve.cancelled")->Add(1);
    RecordServeEvent("serve.cancel", req->id, req->gen.tenant);
  } else {
    obs::GetCounter("serve.completed")->Add(1);
    RecordServeEvent("serve.done", req->id,
                     req->gen.tenant + " bytes=" +
                         std::to_string(req->bytes_streamed));
  }

  for (int w = 0; w < req->gen.workers; ++w) {
    const std::string shard = format::ShardPath(prefix, w, format);
    std::remove(shard.c_str());
    if (format == "csr6") {
      std::remove(format::Csr6Writer::SidecarPath(shard).c_str());
    }
  }
}

void ServeDaemon::StreamRequest(const std::shared_ptr<Request>& req) {
  const std::string prefix = work_dir_ + "/req" + std::to_string(req->id);
  const std::string& channel = req->channel;
  const std::size_t block_bytes = std::max<std::size_t>(
      options_.stream_block_bytes, 4 * 1024);
  // Both counters move before the bytes go out, so a client that has read
  // the whole stream never sees them short.
  obs::Counter* streamed_counter = obs::GetCounter("serve.bytes_streamed");
  obs::Counter* tenant_streamed_counter =
      obs::GetCounter("serve.tenant." + req->gen.tenant + ".bytes_streamed");

  auto abort_stream = [&](const char* why) {
    req->cancel.store(true);
    req->cv.notify_all();
    server_.CloseChannel(channel, /*graceful=*/false);
    RecordServeEvent("serve.stream_abort", req->id, why);
  };

  // The cache payload is the streamed blocks themselves, dropped once it
  // passes the cache's entry cap and admitted only after the last shard's
  // last byte. Once generation is done and every shard's size is known, it
  // is moved into a buffer of exactly the graph's size (the cache accounts
  // size()) and charged to the request's budget under one fixed tag (a
  // per-request tag would leave a peak gauge behind for every request),
  // where a trip drops it. Charging it only then keeps the payload from
  // ever being what makes generation itself trip the budget.
  const std::uint64_t entry_cap = cache_->entry_cap();
  bool keep_payload = entry_cap > 0;
  bool payload_sized = false;
  std::string payload;
  std::optional<ScopedAllocation> payload_mem;  // taken once sized
  auto drop_payload = [&] {
    keep_payload = false;
    payload = std::string();
  };
  auto resize_payload = [&](std::uint64_t bytes) {
    std::string resized;
    resized.reserve(static_cast<std::size_t>(bytes));
    resized.append(payload);
    payload.swap(resized);
  };
  auto keep_block = [&](const std::string& block) {
    const std::uint64_t need = payload.size() + block.size();
    if (need > entry_cap) {
      drop_payload();
      return;
    }
    if (need > payload.capacity()) {
      resize_payload(std::min(std::max(need, 2 * payload.capacity()),
                              entry_cap));
    }
    payload.append(block);
  };

  // Wait for the response to flush and the connection to subscribe. The
  // handler subscribes on the service thread right after admission, so this
  // resolves in microseconds unless the client vanished immediately.
  const auto subscribe_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.stall_timeout_ms);
  while (server_.SubscriberCount(channel) == 0) {
    if (req->cancel.load()) return;
    if (std::chrono::steady_clock::now() > subscribe_deadline) {
      abort_stream("client never subscribed");
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  for (int shard = 0; shard < req->gen.workers; ++shard) {
    const std::string path = format::ShardPath(prefix, shard, req->gen.format);
    ScopedFd file;
    std::uint64_t sent = 0;
    for (;;) {
      if (req->cancel.load()) {
        abort_stream("cancelled");
        return;
      }
      std::uint64_t target = 0;
      bool done = false;
      bool failed = false;
      bool cancelled = false;
      {
        std::unique_lock<std::mutex> lk(req->mu);
        req->cv.wait_for(lk, std::chrono::milliseconds(5), [&] {
          return req->done ||
                 req->durable[static_cast<std::size_t>(shard)] > sent;
        });
        target = req->durable[static_cast<std::size_t>(shard)];
        done = req->done;
        failed = req->failed;
        cancelled = req->cancelled;
      }
      if (failed || cancelled) {
        // A cancelled run's shards are committed prefixes, not complete
        // payloads; never close them out as a well-formed stream.
        abort_stream(failed ? "generation failed" : "cancelled");
        return;
      }
      if (done) {
        // Generation finished and the writers are flushed and closed: the
        // shard's final size includes Finish() tails (and the CSR6 footer)
        // that no chunk commit covered.
        std::error_code ec;
        const std::uint64_t size = std::filesystem::file_size(path, ec);
        if (ec) {
          abort_stream("shard file missing");
          return;
        }
        target = size;
        if (keep_payload && !payload_sized) {
          // Earlier shards are in the payload; this and later ones are final.
          payload_sized = true;
          std::uint64_t total = payload.size() - sent;
          for (int w = shard; w < req->gen.workers; ++w) {
            total += std::filesystem::file_size(
                format::ShardPath(prefix, w, req->gen.format), ec);
            if (ec) {
              total = ~std::uint64_t{0};  // past any cap: drops the payload
              break;
            }
          }
          bool fits = total <= entry_cap;
          if (fits) {
            try {
              payload_mem.emplace(req->budget, total, "serve.cache_payload");
            } catch (const OomError&) {
              fits = false;  // budget too tight: the graph just isn't cached
            }
          }
          if (fits) {
            resize_payload(total);
          } else {
            drop_payload();
          }
        }
      }
      if (server_.SubscriberCount(channel) == 0) {
        abort_stream("client disconnected");
        return;
      }

      while (sent < target) {
        if (file.fd < 0) {
          file.fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
          if (file.fd < 0) break;  // not created yet; retry next round
        }
        // Per-request backpressure: pause while this channel's backlog is
        // above the watermark. Only this streamer waits — generation keeps
        // committing to disk and other requests' channels are independent.
        const auto stall_deadline =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(options_.stall_timeout_ms);
        while (server_.ChannelBacklogBytes(channel) >
               options_.backlog_watermark_bytes) {
          if (req->cancel.load() || server_.SubscriberCount(channel) == 0) {
            abort_stream("client disconnected under backpressure");
            return;
          }
          if (std::chrono::steady_clock::now() > stall_deadline) {
            abort_stream("client stalled past timeout");
            return;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(block_bytes, target - sent));
        // Read straight into the buffer the server sends by reference.
        std::string block(want, '\0');
        const ssize_t got = ::pread(file.fd, block.data(), want,
                                    static_cast<off_t>(sent));
        if (got <= 0) break;  // writer mid-flush; retry next round
        block.resize(static_cast<std::size_t>(got));
        if (keep_payload) keep_block(block);
        req->bytes_streamed += block.size();
        streamed_counter->Add(block.size());
        tenant_streamed_counter->Add(block.size());
        sent += block.size();
        server_.Broadcast(channel, std::move(block));
      }
      if (done && sent >= target) break;  // shard fully streamed
    }
  }

  // Admitted before the stream closes: a client that has read this response
  // to its end and asks again is a hit.
  if (keep_payload) cache_->InsertGraph(req->fingerprint, std::move(payload));
  req->streamed_all = true;
  server_.CloseChannel(channel, /*graceful=*/true);
}

}  // namespace tg::serve
