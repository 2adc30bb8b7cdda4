#ifndef TRILLIONG_BENCH_BENCH_UTIL_H_
#define TRILLIONG_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>

#include "obs/mem.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/sampler.h"
#include "obs/serve/admin_server.h"
#include "obs/trace.h"
#include "prof/folded.h"
#include "prof/profiler.h"
#include "util/common.h"
#include "util/flags.h"
#include "util/stopwatch.h"

namespace tg::bench {

/// Prints a figure/table banner so the bench output reads like the paper's
/// evaluation section.
inline void Banner(const std::string& title, const std::string& paper_ref,
                   const std::string& expectation) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("expected shape: %s\n", expectation.c_str());
  std::printf("================================================================\n");
}

/// Runs `fn`, returning formatted elapsed seconds — or "O.O.M" if the run
/// exceeded its memory budget (exactly how the paper's figures annotate
/// methods that die; Figures 11 and 14). The caught OomError's forensics are
/// recorded via obs::RecordOom, so a later RunReport carries the mem.oom
/// section naming the failing machine/tag (PrintLastOom shows it inline).
inline std::string TimeOrOom(const std::function<void()>& fn) {
  Stopwatch watch;
  try {
    fn();
  } catch (const OomError& e) {
    obs::RecordOom(e.report());
    return "O.O.M";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", watch.ElapsedSeconds());
  return buf;
}

/// Prints the forensics of the most recent O.O.M (no-op when none): which
/// machine and tag tripped, plus the per-tag byte breakdown at death.
inline void PrintLastOom() {
  if (auto oom = obs::LastOom()) {
    std::printf("\nlast O.O.M forensics:\n%s", oom->ToString().c_str());
  }
}

/// Byte budget for the figure benches, overridable with a human-readable
/// TG_MEM_BUDGET ("48m", "2g", ...) so one env var re-runs a whole sweep at
/// a different simulated machine size.
inline std::uint64_t BudgetBytesFromEnv(std::uint64_t default_bytes) {
  const char* text = std::getenv("TG_MEM_BUDGET");
  if (text == nullptr || text[0] == '\0') return default_bytes;
  std::uint64_t bytes = 0;
  if (!ParseByteSize(text, &bytes)) {
    std::fprintf(stderr, "warning: TG_MEM_BUDGET: unparseable byte size \"%s\"\n",
                 text);
    return default_bytes;
  }
  return bytes;
}

/// Opt-in observability hook shared by every figure bench, driven by
/// environment variables so one setting covers a whole `ctest`/script sweep
/// (a `{name}` placeholder in any path is replaced with the bench name):
///
///   TG_METRICS_JSON=/tmp/{name}.json   write a RunReport on destruction
///   TG_TRACE_JSON=/tmp/{name}.trace.json  enable timeline tracing, write a
///                                      Chrome Trace Event file on exit
///   TG_SAMPLE_INTERVAL_MS=50           sample time series at this interval,
///                                      embedded in the RunReport
///   TG_ADMIN_PORT=9900                 serve the live admin endpoints
///                                      (/metrics, /healthz, /report.json,
///                                      /events, /trace) for the duration
///                                      of the bench; 0 = ephemeral port,
///                                      printed at startup. Implies the
///                                      sampler so /events has ticks.
///   TG_PROFILE=/tmp/{name}.folded      sample the bench with the in-process
///                                      profiler (docs/OBSERVABILITY.md
///                                      "Profiling"), write folded stacks on
///                                      destruction and embed the prof
///                                      section in the RunReport.
///                                      TG_PROFILE_HZ overrides the 99 Hz
///                                      default rate.
///
///   TG_METRICS_JSON=/tmp/{name}.json ./bench_fig11b_distributed
///
/// Without any of the variables this is a no-op and the bench runs
/// uninstrumented. Missing parent directories are created; write failures
/// go to stderr (and never abort the bench).
class ObsSession {
 public:
  explicit ObsSession(const std::string& name) : name_(name) {
    path_ = PathFromEnv("TG_METRICS_JSON");
    trace_path_ = PathFromEnv("TG_TRACE_JSON");
    profile_path_ = PathFromEnv("TG_PROFILE");
    if (!profile_path_.empty()) {
      prof::ProfilerOptions prof_options;
      const char* hz = std::getenv("TG_PROFILE_HZ");
      if (hz != nullptr && hz[0] != '\0') prof_options.hz = std::atoi(hz);
      Status started = prof::StartProfiler(prof_options);
      if (!started.ok()) {
        std::fprintf(stderr, "cannot start profiler: %s\n",
                     started.ToString().c_str());
        profile_path_.clear();
      }
    }
    const int interval_from_env = obs::SamplerIntervalFromEnv(-1);
    const int admin_port = obs::serve::AdminServer::PortFromEnv();
    const bool want_sampler = interval_from_env > 0 || admin_port >= 0;
    if (path_.empty() && trace_path_.empty() && !want_sampler) {
      return;
    }
    obs::SetEnabled(true);
    obs::PreregisterCanonicalMetrics();
    if (!trace_path_.empty()) obs::SetTraceEnabled(true);
    if (want_sampler) {
      obs::SamplerOptions options;
      if (interval_from_env > 0) options.interval_ms = interval_from_env;
      sampler_ = std::make_unique<obs::Sampler>(options);
      sampler_->Start();
    }
    if (admin_port >= 0) {
      obs::serve::AdminOptions admin_options;
      admin_options.port = admin_port;
      admin_options.meta["tool"] = name_;
      Status status = admin_.Start(admin_options);
      if (status.ok()) {
        std::printf("admin server on http://127.0.0.1:%d/ (TG_ADMIN_PORT)\n",
                    admin_.port());
      } else {
        std::fprintf(stderr, "cannot start admin server: %s\n",
                     status.ToString().c_str());
      }
    }
  }

  ~ObsSession() {
    if (sampler_ != nullptr) sampler_->Stop();
    admin_.Stop();
    prof::ProfileSnapshot prof_snapshot;
    if (!profile_path_.empty()) {
      prof::StopProfiler();
      prof_snapshot = prof::TakeSnapshot();
      Status status = prof::WriteFoldedFile(prof_snapshot, profile_path_);
      if (status.ok()) {
        std::printf("profile written to %s (%llu samples)\n",
                    profile_path_.c_str(),
                    static_cast<unsigned long long>(prof_snapshot.samples));
      } else {
        std::fprintf(stderr, "failed to write %s: %s\n", profile_path_.c_str(),
                     status.ToString().c_str());
      }
    }
    if (!trace_path_.empty()) {
      Status status = obs::WriteChromeTraceFile(trace_path_);
      if (status.ok()) {
        std::printf("trace written to %s\n", trace_path_.c_str());
      } else {
        std::fprintf(stderr, "failed to write %s: %s\n", trace_path_.c_str(),
                     status.ToString().c_str());
      }
    }
    if (path_.empty()) return;
    obs::RunReport report = obs::RunReport::Collect(obs::Registry::Global());
    report.meta["tool"] = name_;
    if (sampler_ != nullptr) sampler_->ExportTo(&report);
    if (!profile_path_.empty()) {
      report.meta["profile"] = profile_path_;
      prof::ExportTo(prof_snapshot, &report);
    }
    Status status = report.WriteJsonFile(path_);
    if (status.ok()) {
      std::printf("metrics report written to %s\n", path_.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s: %s\n", path_.c_str(),
                   status.ToString().c_str());
    }
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// True when a report will be written at exit.
  bool active() const { return !path_.empty(); }

 private:
  std::string PathFromEnv(const char* var) const {
    const char* pattern = std::getenv(var);
    if (pattern == nullptr || pattern[0] == '\0') return "";
    std::string path = pattern;
    const std::size_t placeholder = path.find("{name}");
    if (placeholder != std::string::npos) {
      path.replace(placeholder, 6, name_);
    }
    return path;
  }

  std::string name_;
  std::string path_;
  std::string trace_path_;
  std::string profile_path_;
  std::unique_ptr<obs::Sampler> sampler_;
  obs::serve::AdminServer admin_;
};

/// Human-readable byte count.
inline std::string HumanBytes(std::uint64_t bytes) {
  char buf[32];
  if (bytes >= (1ULL << 30)) {
    std::snprintf(buf, sizeof(buf), "%.2f GiB", bytes / 1073741824.0);
  } else if (bytes >= (1ULL << 20)) {
    std::snprintf(buf, sizeof(buf), "%.2f MiB", bytes / 1048576.0);
  } else if (bytes >= (1ULL << 10)) {
    std::snprintf(buf, sizeof(buf), "%.2f KiB", bytes / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

}  // namespace tg::bench

#endif  // TRILLIONG_BENCH_BENCH_UTIL_H_
