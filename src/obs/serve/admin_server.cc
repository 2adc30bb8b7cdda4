#include "obs/serve/admin_server.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/sampler.h"
#include "obs/serve/prometheus.h"
#include "obs/trace.h"
#include "prof/folded.h"
#include "prof/profiler.h"
#include "util/build_info.h"
#include "util/json.h"

namespace tg::obs::serve {

namespace {

constexpr const char* kEventsChannel = "events";

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Counter-like quantities (cumulative edges, byte totals, ETAs) must not
/// lose precision at trillion scale, where %.6g would round to ~1e6
/// granularity and disagree with the exact counters on /metrics and
/// /report.json. Integral values below 2^53 render as exact integers;
/// anything else gets full round-trip precision.
std::string FormatExact(double v) {
  char buf[40];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

/// data payload of a `tick` SSE event. Cumulative/absolute quantities use
/// FormatExact; smoothed rates and percentages keep the compact %.6g.
std::string TickJson(const TickSample& tick) {
  std::string out = "{";
  out += "\"t\": " + FormatExact(tick.t_seconds);
  out += ", \"edges\": " + FormatExact(tick.edges);
  out += ", \"edges_per_sec\": " + FormatDouble(tick.edges_per_sec);
  out += ", \"eta_seconds\": " + FormatExact(tick.eta_seconds);
  out += ", \"mem_used_bytes\": " + FormatExact(tick.mem_used_bytes);
  out += ", \"mem_headroom_pct\": " + FormatDouble(tick.mem_headroom_pct);
  out += ", \"drift_ms\": " + FormatDouble(tick.drift_ms);
  out += std::string(", \"phase\": ");
  json::AppendString(CurrentPhase(), &out);
  out += "}";
  return out;
}

/// data payload of a fault/log SSE event.
std::string EventJson(const Event& event) {
  std::string out = "{\"kind\": ";
  json::AppendString(event.kind, &out);
  out += ", \"machine\": " + std::to_string(event.machine);
  out += ", \"ordinal\": " + std::to_string(event.ordinal);
  out += ", \"detail\": ";
  json::AppendString(event.detail, &out);
  out += "}";
  return out;
}

/// One SSE frame: named event + single-line JSON data.
std::string SseFrame(const std::string& event, const std::string& data) {
  return "event: " + event + "\ndata: " + data + "\n\n";
}

/// Parses a bounded non-negative integer query parameter; `fallback` when
/// absent or malformed.
int QueryInt(const net::HttpRequest& request, const std::string& key,
             int fallback, int max_value) {
  auto it = request.query.find(key);
  if (it == request.query.end() || it->second.empty()) return fallback;
  char* end = nullptr;
  const long value = std::strtol(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0' || value < 0) return fallback;
  return static_cast<int>(value < max_value ? value : max_value);
}

/// GET /pprof/profile?seconds=N[&hz=H]. seconds=0 (the default) returns the
/// cumulative folded profile of the running profiler; seconds=N collects an
/// interval profile — diffing two snapshots when the profiler is already
/// running, or spinning up a temporary one when it is not. The admin server
/// serves requests on one thread, so an interval collection blocks other
/// endpoints for its (bounded, ≤60 s) duration.
net::HttpResponse HandlePprofProfile(const net::HttpRequest& request) {
  net::HttpResponse response;
  response.content_type = "text/plain; charset=utf-8";
  const int seconds = QueryInt(request, "seconds", 0, 60);
  const bool was_running = prof::ProfilerRunning();

  if (seconds == 0) {
    const prof::ProfileSnapshot snapshot = prof::TakeSnapshot();
    if (!was_running && snapshot.samples == 0 && snapshot.stalls.empty()) {
      response.status = 409;
      response.body =
          "profiler not running (pass ?seconds=N to collect on demand, or "
          "start the run with --profile / TG_PROFILE)\n";
      return response;
    }
    response.body = prof::RenderFolded(snapshot);
    return response;
  }

  if (!was_running) {
    prof::ProfilerOptions options;
    options.hz = QueryInt(request, "hz", options.hz, 1000);
    Status started = prof::StartProfiler(options);
    if (!started.ok()) {
      response.status = 500;
      response.body = "cannot start profiler: " + started.message() + "\n";
      return response;
    }
    std::this_thread::sleep_for(std::chrono::seconds(seconds));
    response.body = prof::RenderFolded(prof::TakeSnapshot());
    prof::StopProfiler();
    return response;
  }

  const prof::ProfileSnapshot before = prof::TakeSnapshot();
  std::this_thread::sleep_for(std::chrono::seconds(seconds));
  response.body = prof::RenderFoldedDiff(before, prof::TakeSnapshot());
  return response;
}

std::string PprofStatusJson() {
  const prof::ProfilerStatus status = prof::GetStatus();
  std::string out = "{";
  out += std::string("\"running\": ") + (status.running ? "true" : "false");
  out += ", \"hz\": " + std::to_string(status.hz);
  out += ", \"samples\": " + std::to_string(status.samples);
  out += ", \"dropped\": " + std::to_string(status.dropped);
  out += ", \"threads\": " + std::to_string(status.threads);
  out += ", \"ring_occupancy\": " + FormatDouble(status.ring_occupancy);
  out += "}\n";
  return out;
}

}  // namespace

AdminServer::~AdminServer() { Stop(); }

Status AdminServer::Start(const AdminOptions& options) {
  Stop();
  options_ = options;
  start_time_ = std::chrono::steady_clock::now();

  net::HttpServer::Options http;
  http.bind_address = options_.bind_address;
  http.port = options_.port;
  Status started = server_.Start(
      http, [this](const net::HttpRequest& request) { return Handle(request); });
  if (!started.ok()) return started;

  InstallEventStreamBridges(&server_);
  return Status::Ok();
}

void AdminServer::Stop() {
  if (!server_.running()) return;
  InstallEventStreamBridges(nullptr);
  server_.Stop();
}

net::HttpResponse AdminServer::Handle(const net::HttpRequest& request) {
  const double uptime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time_)
          .count();
  return HandleAdminRequest(request, options_.meta, uptime_s);
}

void InstallEventStreamBridges(net::HttpServer* server) {
  if (server == nullptr) {
    SetTickListener(nullptr);
    SetEventObserver(nullptr);
    return;
  }
  // Feed /events: sampler ticks and obs events (fault schedule, ...) are
  // fanned out as SSE frames. Broadcast is cheap with no subscribers, so
  // installing the hooks unconditionally costs nothing on idle servers.
  SetTickListener([server](const TickSample& tick) {
    server->Broadcast(kEventsChannel, SseFrame("tick", TickJson(tick)));
  });
  SetEventObserver([server](const Event& event) {
    const bool fault = event.kind.rfind("fault.", 0) == 0;
    server->Broadcast(kEventsChannel,
                      SseFrame(fault ? "fault" : "event", EventJson(event)));
  });
}

net::HttpResponse HandleAdminRequest(
    const net::HttpRequest& request,
    const std::map<std::string, std::string>& meta, double uptime_s) {
  net::HttpResponse response;

  if (request.path == "/healthz") {
    char line[128];
    std::snprintf(line, sizeof(line), "ok phase=%s uptime_s=%.1f\n",
                  CurrentPhase(), uptime_s);
    response.body = line;
    return response;
  }

  if (request.path == "/metrics") {
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = RenderPrometheus(Registry::Global());
    return response;
  }

  if (request.path == "/report.json") {
    RunReport report = RunReport::Collect(Registry::Global());
    // Merge (not assign): Collect seeds build.* identity keys that the
    // launcher's meta should extend, not clobber.
    for (const auto& [key, value] : meta) {
      report.meta[key] = value;
    }
    report.meta["live"] = "1";
    report.meta["phase"] = CurrentPhase();
    report.meta["uptime_seconds"] = FormatDouble(uptime_s);
    Sampler::ExportActiveTo(&report);
    response.content_type = "application/json";
    response.body = report.ToJson();
    return response;
  }

  if (request.path == "/events") {
    response.content_type = "text/event-stream";
    response.stream_channel = kEventsChannel;
    // An immediate hello event so clients know the stream is live before
    // the first sampler tick.
    response.body = SseFrame(
        "hello", std::string("{\"phase\": \"") + CurrentPhase() + "\"}");
    return response;
  }

  if (request.path == "/trace") {
    response.content_type = "application/json";
    response.headers["Content-Disposition"] =
        "attachment; filename=\"trilliong_trace.json\"";
    response.chunked = true;  // trace snapshots can be tens of MB
    response.body = TraceToChromeJson(DrainTrace());
    return response;
  }

  if (request.path == "/buildz") {
    response.content_type = "application/json";
    response.body = util::BuildInfoJson();
    return response;
  }

  if (request.path == "/pprof/profile") {
    return HandlePprofProfile(request);
  }

  if (request.path == "/pprof/status") {
    response.content_type = "application/json";
    response.body = PprofStatusJson();
    return response;
  }

  if (request.path == "/") {
    response.body =
        "TrillionG admin server\n"
        "  GET /healthz        liveness + current phase\n"
        "  GET /metrics        Prometheus text exposition\n"
        "  GET /report.json    live RunReport snapshot\n"
        "  GET /events         SSE: sampler ticks + fault events\n"
        "  GET /trace          Chrome Trace Event snapshot\n"
        "  GET /buildz         binary identity (git, compiler, flags)\n"
        "  GET /pprof/profile  folded CPU profile (?seconds=N collects on\n"
        "                      demand and blocks this endpoint while doing so)\n"
        "  GET /pprof/status   sampler rate, drops, ring occupancy\n";
    return response;
  }

  response.status = 404;
  response.body = "not found (try /)\n";
  return response;
}

}  // namespace tg::obs::serve
