// obs/serve/prometheus.h — renders an obs::Registry in the Prometheus text
// exposition format (version 0.0.4). One renderer serves both the live
// `GET /metrics` endpoint of the admin server and the one-shot
// `gen_cli --metrics_prom <file>` dump, so scrapes and CI artifacts are
// byte-compatible.
//
// Name mapping: every metric keeps its dotted registry name with dots
// replaced by underscores under a `tg_` prefix (`avs.edges_generated` ->
// `tg_avs_edges_generated`). Two structured families are recognized and
// lifted into labels instead:
//
//   mem.m<N>.<stat>              -> tg_mem_<stat>{machine="m<N>"}
//   mem.tag.<tag>.peak_bytes     -> tg_mem_tag_peak_bytes{tag="<tag>"}
//
// and the per-machine stat table becomes tg_machine_<stat>{machine="m<N>"}.
// Counters are exposed as-is (cumulative), gauges as gauges, and the log2
// histograms as cumulative `_bucket{le="..."}` series with exact integer
// upper bounds (values in bucket i are <= 2^i - 1), plus `_sum`/`_count`.
#ifndef TRILLIONG_OBS_SERVE_PROMETHEUS_H_
#define TRILLIONG_OBS_SERVE_PROMETHEUS_H_

#include <string>

#include "obs/metrics.h"

namespace tg::obs::serve {

/// Renders the full registry (counters, gauges, histograms, machine stats)
/// as Prometheus text exposition. Deterministic: families and samples are
/// emitted in sorted order.
std::string RenderPrometheus(const Registry& registry = Registry::Global());

/// Escapes a Prometheus label value (backslash, double quote, newline).
std::string EscapeLabelValue(const std::string& value);

}  // namespace tg::obs::serve

#endif  // TRILLIONG_OBS_SERVE_PROMETHEUS_H_
