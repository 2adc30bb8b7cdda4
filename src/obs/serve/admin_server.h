// obs/serve/admin_server.h — the live observability plane: a resident admin
// thread serving the obs::Registry over HTTP while a run is in flight.
// Everything PRs 1–5 collect (metrics, time series, memory pressure, fault
// events, traces) was previously visible only at process exit; the admin
// server makes the same data pull-able mid-run, which is the first piece of
// the control plane the future `tg::serve` daemon needs (ROADMAP item 1 —
// AVS workers are pure functions of (seed, range), so monitoring/control is
// the hard remaining problem).
//
// Endpoints (docs/OBSERVABILITY.md "Live endpoints" has the full table):
//
//   GET /healthz      cheap liveness: "ok phase=<phase> uptime_s=<t>"
//   GET /metrics      Prometheus text exposition of the live registry
//   GET /report.json  a mid-run RunReport snapshot (same schema as
//                     --metrics_json, plus meta live=1)
//   GET /events       SSE stream: sampler ticks (edges/sec, ETA, memory
//                     pressure, tick drift) and obs events (fault.*) live
//   GET /trace        Chrome Trace Event snapshot of the seqlock rings
//   GET /buildz       binary identity: git describe, compiler, flags,
//                     build type (util/build_info)
//   GET /pprof/profile  folded CPU profile from tg::prof — cumulative when
//                     the run was started with --profile, or collected on
//                     demand with ?seconds=N (blocks the service thread
//                     for the collection window)
//   GET /pprof/status sampler rate, sample/drop counts, ring occupancy
//
// The server only *reads* observability state — generation output is
// bit-identical with the server on or off (the `admin` equivalence row in
// tests/equivalence_matrix.py proves it).
#ifndef TRILLIONG_OBS_SERVE_ADMIN_SERVER_H_
#define TRILLIONG_OBS_SERVE_ADMIN_SERVER_H_

#include <chrono>
#include <map>
#include <string>

#include "net/http_server.h"
#include "util/status.h"

namespace tg::obs::serve {

struct AdminOptions {
  /// 0 binds an ephemeral port (read it back from port()).
  int port = 0;
  /// Loopback by default; set to "0.0.0.0" to expose beyond the host.
  std::string bind_address = "127.0.0.1";
  /// Merged into the meta section of /report.json snapshots (scale, seed,
  /// format, ... — whatever the launcher knows about the run).
  std::map<std::string, std::string> meta;
};

class AdminServer {
 public:
  AdminServer() = default;
  ~AdminServer();  ///< Stop()s if still running

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Binds and starts serving; installs the sampler tick listener and the
  /// obs event observer that feed `GET /events`.
  Status Start(const AdminOptions& options);

  /// Stops serving and removes the listeners. Idempotent.
  void Stop();

  bool running() const { return server_.running(); }
  int port() const { return server_.port(); }

 private:
  net::HttpResponse Handle(const net::HttpRequest& request);

  AdminOptions options_;
  net::HttpServer server_;
  std::chrono::steady_clock::time_point start_time_;
};

/// The endpoint logic behind AdminServer, reusable by any HttpServer host:
/// the tg::serve daemon mounts these same routes next to POST /generate so
/// one port carries both the data plane and its observability. Dispatches
/// on request.path; unknown paths get the 404 with the endpoint index.
/// `meta` is merged into /report.json snapshots.
net::HttpResponse HandleAdminRequest(const net::HttpRequest& request,
                                     const std::map<std::string, std::string>& meta,
                                     double uptime_seconds);

/// Installs the sampler tick listener and obs event observer that fan out
/// SSE frames on `server`'s "events" channel (what GET /events subscribes
/// to). Pass nullptr to remove the hooks. The hooks hold a raw pointer, so
/// remove them before the server is destroyed.
void InstallEventStreamBridges(net::HttpServer* server);

}  // namespace tg::obs::serve

#endif  // TRILLIONG_OBS_SERVE_ADMIN_SERVER_H_
