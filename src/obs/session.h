// obs/session.h — the observability lifecycle of one process run, shared by
// gen_cli, serve_cli and the figure benches:
//
//   construction  enable the registry (and the canonical metric set) and
//                 timeline tracing, then start the optional sampler, admin
//                 server and profiler;
//   Finish()      stop the admin server, the sampler and the profiler
//                 (snapshotting it), drain the trace so
//                 `trace.dropped_events` lands, collect one RunReport with the
//                 sampler series and the prof section, then write the folded
//                 profile, trace, table, JSON and Prometheus text from that
//                 one snapshot.
//
// Every file goes through storage::WriteFile, so observing a run adds
// nothing to its `io.*` counters and an injected disk fault
// (IoFailureHookRef) cannot keep the report that records it from being
// written. docs/OBSERVABILITY.md "Session lifecycle" has the contract.
#ifndef TRILLIONG_OBS_SESSION_H_
#define TRILLIONG_OBS_SESSION_H_

#include <map>
#include <memory>
#include <string>

#include "obs/sampler.h"
#include "obs/serve/admin_server.h"
#include "util/status.h"

namespace tg::obs {

struct SessionOptions {
  /// Run description ("tool", "scale", ...): the report's meta and the
  /// admin server's /report.json meta.
  std::map<std::string, std::string> meta;

  /// Output files; an empty path is not written.
  std::string metrics_json;
  std::string metrics_prom;
  std::string trace_json;    ///< also turns timeline tracing on
  std::string profile;       ///< folded stacks; starts the profiler
  int profile_hz = 99;
  bool metrics_table = false;  ///< print RunReport::ToTable() on stdout

  /// Turns the registry on even when no output needs it (serve_cli: the
  /// daemon's live /metrics reads it).
  bool enable_metrics = false;

  /// Starts an obs::Sampler with `sampler`; its series go into the report.
  bool sample = false;
  SamplerOptions sampler;

  /// >= 0 starts the admin server on this port (0 = ephemeral); -1 = off.
  int admin_port = -1;

  /// The figure benches' policy, read from the environment (a `{name}` in a
  /// path becomes `name`, which is also meta["tool"]):
  ///
  ///   TG_METRICS_JSON=/tmp/{name}.json      the RunReport
  ///   TG_TRACE_JSON=/tmp/{name}.trace.json  the Chrome trace
  ///   TG_PROFILE=/tmp/{name}.folded         the folded profile (rate:
  ///                                         TG_PROFILE_HZ, default 99)
  ///   TG_SAMPLE_INTERVAL_MS=50              a positive value starts the
  ///                                         sampler at that interval
  ///   TG_ADMIN_PORT=9900                    a valid port (0 = ephemeral)
  ///                                         starts the admin server, and
  ///                                         the sampler so /events ticks
  ///
  /// With none of them set nothing runs and nothing is written.
  static SessionOptions FromEnv(const std::string& name);
};

class Session {
 public:
  /// Starts what `options` asks for. A part that fails to start (admin port
  /// taken, profiler already running) is reported on stderr and left off;
  /// the rest still run. start_status() holds the first such failure.
  explicit Session(SessionOptions options);
  ~Session();  ///< Finish()es, so a bench's session writes on scope exit

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const Status& start_status() const { return start_status_; }

  /// Tears down and writes every requested output (see the top of this
  /// file). `extra_meta` is merged over SessionOptions::meta in the report.
  /// Each file written prints "... written to PATH"; a failed write goes to
  /// stderr and the remaining files are still written. Returns the first
  /// failure. Later calls do nothing and return Ok.
  Status Finish(const std::map<std::string, std::string>& extra_meta = {});

 private:
  SessionOptions options_;
  Status start_status_;
  bool metrics_ = false;    ///< the session turned the registry on
  bool profiling_ = false;  ///< the profiler started
  bool finished_ = false;
  std::unique_ptr<Sampler> sampler_;
  serve::AdminServer admin_;
};

}  // namespace tg::obs

#endif  // TRILLIONG_OBS_SESSION_H_
