#include "obs/session.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/serve/prometheus.h"
#include "obs/trace.h"
#include "prof/folded.h"
#include "prof/profiler.h"
#include "storage/fs.h"

namespace tg::obs {

namespace {

/// The variable's value; empty when unset.
std::string Env(const char* var) {
  const char* text = std::getenv(var);
  return text == nullptr ? std::string() : std::string(text);
}

std::string PathFromEnv(const char* var, const std::string& name) {
  std::string path = Env(var);
  const std::size_t placeholder = path.find("{name}");
  if (placeholder != std::string::npos) path.replace(placeholder, 6, name);
  return path;
}

/// Writes one output file, reporting the outcome like every obs file.
Status WriteOutput(const std::string& path, const std::string& bytes,
                   const std::string& done_line) {
  Status status = storage::WriteFile(path, bytes);
  if (status.ok()) {
    std::printf("%s\n", done_line.c_str());
  } else {
    std::fprintf(stderr, "failed to write %s: %s\n", path.c_str(),
                 status.ToString().c_str());
  }
  return status;
}

}  // namespace

SessionOptions SessionOptions::FromEnv(const std::string& name) {
  SessionOptions options;
  options.meta["tool"] = name;
  options.metrics_json = PathFromEnv("TG_METRICS_JSON", name);
  options.trace_json = PathFromEnv("TG_TRACE_JSON", name);
  options.profile = PathFromEnv("TG_PROFILE", name);
  const std::string hz = Env("TG_PROFILE_HZ");
  if (!hz.empty()) options.profile_hz = std::atoi(hz.c_str());
  const int interval_ms = std::atoi(Env("TG_SAMPLE_INTERVAL_MS").c_str());
  if (interval_ms > 0) {
    options.sample = true;
    options.sampler.interval_ms = interval_ms;
  }
  const std::string port = Env("TG_ADMIN_PORT");
  char* end = nullptr;
  const long port_value = std::strtol(port.c_str(), &end, 10);
  if (!port.empty() && *end == '\0' && port_value >= 0 &&
      port_value <= 65535) {
    options.admin_port = static_cast<int>(port_value);
    options.sample = true;
  }
  return options;
}

Session::Session(SessionOptions options) : options_(std::move(options)) {
  const SessionOptions& o = options_;
  metrics_ = o.enable_metrics || !o.metrics_json.empty() ||
             !o.metrics_prom.empty() || o.metrics_table ||
             !o.trace_json.empty() || o.sample || o.admin_port >= 0;
  if (metrics_) {
    SetEnabled(true);
    PreregisterCanonicalMetrics();
  }
  if (!o.trace_json.empty()) SetTraceEnabled(true);
  if (o.sample) {
    sampler_ = std::make_unique<Sampler>(o.sampler);
    sampler_->Start();
  }
  if (o.admin_port >= 0) {
    serve::AdminOptions admin_options;
    admin_options.port = o.admin_port;
    admin_options.meta = o.meta;
    Status started = admin_.Start(admin_options);
    if (started.ok()) {
      std::printf("admin server on http://127.0.0.1:%d/ (try /metrics)\n",
                  admin_.port());
    } else {
      std::fprintf(stderr, "cannot start admin server: %s\n",
                   started.ToString().c_str());
      start_status_ = started;
    }
  }
  if (!o.profile.empty()) {
    prof::ProfilerOptions prof_options;
    prof_options.hz = o.profile_hz;
    Status started = prof::StartProfiler(prof_options);
    profiling_ = started.ok();
    if (profiling_) {
      std::printf("profiler sampling at %d Hz -> %s\n", o.profile_hz,
                  o.profile.c_str());
    } else {
      std::fprintf(stderr, "cannot start profiler: %s\n",
                   started.ToString().c_str());
      if (start_status_.ok()) start_status_ = started;
    }
  }
}

Session::~Session() { Finish(); }

Status Session::Finish(const std::map<std::string, std::string>& extra_meta) {
  if (finished_) return Status::Ok();
  finished_ = true;
  const SessionOptions& o = options_;

  // Teardown: nothing reads or moves obs state past this point, so every
  // output below renders the same snapshot. The admin server goes first —
  // its /trace route drains the same rings.
  admin_.Stop();
  if (sampler_ != nullptr) sampler_->Stop();
  prof::ProfileSnapshot prof_snapshot;
  if (profiling_) {
    prof::StopProfiler();
    prof_snapshot = prof::TakeSnapshot();
  }
  std::string trace;
  if (!o.trace_json.empty()) trace = TraceToChromeJson(DrainTrace());
  RunReport report;
  if (metrics_) {
    report = RunReport::Collect(Registry::Global());
    for (const auto& [key, value] : o.meta) report.meta[key] = value;
    for (const auto& [key, value] : extra_meta) report.meta[key] = value;
    if (sampler_ != nullptr) sampler_->ExportTo(&report);
    if (profiling_) {
      report.meta["profile"] = o.profile;
      prof::ExportTo(prof_snapshot, &report);
    }
  }

  Status first;
  auto keep_first = [&first](const Status& status) {
    if (first.ok() && !status.ok()) first = status;
  };
  if (profiling_) {
    keep_first(WriteOutput(
        o.profile, prof::RenderFolded(prof_snapshot),
        "profile written to " + o.profile + " (" +
            std::to_string(prof_snapshot.samples) + " samples, " +
            std::to_string(prof_snapshot.dropped) +
            " dropped; render with flamegraph.pl)"));
  }
  if (!o.trace_json.empty()) {
    keep_first(WriteOutput(o.trace_json, trace,
                           "trace written to " + o.trace_json +
                               " (open in https://ui.perfetto.dev)"));
  }
  if (!metrics_) return first;
  if (o.metrics_table) std::fputs(report.ToTable().c_str(), stdout);
  if (!o.metrics_json.empty()) {
    keep_first(WriteOutput(o.metrics_json, report.ToJson(),
                           "metrics report written to " + o.metrics_json));
  }
  if (!o.metrics_prom.empty()) {
    keep_first(WriteOutput(o.metrics_prom, serve::RenderPrometheus(),
                           "prometheus exposition written to " +
                               o.metrics_prom));
  }
  return first;
}

}  // namespace tg::obs
