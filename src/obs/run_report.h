// obs/run_report.h — the end-of-run serialization of everything the
// obs::Registry collected: counters, gauges, histograms, trace spans, and
// the per-simulated-machine stat table, plus free-form metadata describing
// the run configuration. One report reproduces one figure data point; the
// JSON schema is documented in docs/OBSERVABILITY.md.
#ifndef TRILLIONG_OBS_RUN_REPORT_H_
#define TRILLIONG_OBS_RUN_REPORT_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/oom_report.h"
#include "util/status.h"

namespace tg::obs {

/// One sampled metric over time: parallel arrays of (seconds since sampling
/// start, value). Produced by obs::Sampler, embedded in RunReport under the
/// metric's name.
struct TimeSeries {
  double interval_seconds = 0.0;  ///< nominal sampling interval
  std::vector<double> t;          ///< monotonically non-decreasing
  std::vector<double> v;

  std::size_t size() const { return t.size(); }
};

/// One row of the RunReport "prof" section: a symbolized frame within an
/// obs phase, with `self` (samples where the frame was the leaf) and
/// `total` (samples with the frame anywhere on stack, counted once per
/// sample) counts. Stall rows use the synthetic `[stall:<kind>]` frame
/// name. Produced by prof::ExportTo.
struct ProfFrameRow {
  std::string phase;
  std::string frame;
  std::uint64_t self = 0;
  std::uint64_t total = 0;
};

/// The aggregated CPU-profile section of a RunReport: sampler totals plus
/// the top frames per phase (see docs/OBSERVABILITY.md "Profiling").
struct ProfSection {
  std::uint64_t samples = 0;
  std::uint64_t dropped = 0;
  int hz = 0;
  std::vector<ProfFrameRow> frames;  ///< grouped by phase, hottest first
};

struct RunReport {
  /// One aggregated trace-span row (path + simulated machine tag).
  struct SpanRow {
    std::string path;
    int machine = -1;  ///< -1: recorded on an untagged thread
    std::uint64_t count = 0;
    double wall_seconds = 0.0;
    double cpu_seconds = 0.0;
  };

  /// Free-form run description (scale, edge_factor, workers, format, ...).
  std::map<std::string, std::string> meta;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  std::vector<SpanRow> spans;  ///< sorted by (path, machine)
  /// machine id -> stat key -> value (peak_bytes, cpu_seconds, ...).
  std::map<int, std::map<std::string, double>> machines;
  /// Sampled time series, keyed by metric name (obs::Sampler::ExportTo).
  std::map<std::string, TimeSeries> series;
  /// OOM forensics when a budget tripped during the run (serialized as the
  /// "mem.oom" section; absent otherwise). Filled by Collect from the last
  /// OomError recorded via obs::RecordOom.
  std::optional<OomReport> oom;
  /// The injected-fault schedule: every "fault.*" event the fault injector
  /// recorded (crash/die/transient/iofail/shuffle_crash), in injection
  /// order. Serialized as the "fault" section; empty (and omitted from the
  /// JSON) on fault-free runs.
  std::vector<Event> fault;
  /// Aggregated sampling-profiler output (serialized as the "prof"
  /// section; absent when the run was not profiled). Filled by
  /// prof::ExportTo, never by Collect.
  std::optional<ProfSection> prof;

  /// Snapshots the registry. Counters/gauges/histograms/spans/machines are
  /// filled (plus `oom` from obs::LastOom and `fault` from the registry's
  /// "fault.*" events), and `meta` is seeded with the `build.*` keys from
  /// util/build_info so every report names the exact binary; the rest of
  /// `meta` is left for the caller.
  static RunReport Collect(const Registry& registry = Registry::Global());

  /// Stable, pretty-printed JSON (schema in docs/OBSERVABILITY.md).
  std::string ToJson() const;

  /// Parses ToJson() output back into a report via json::Parse (unknown
  /// keys are skipped; counters stay exact up to 2^64-1). Corruption when
  /// the text is not JSON or a known key holds a value of the wrong type.
  static Status FromJson(const std::string& json, RunReport* out);

  /// Human-readable multi-section table for terminal output. Histograms are
  /// summarized with p50/p90/p99 estimated from their log2 buckets.
  std::string ToTable() const;

  /// Serializes to `path`, creating missing parent directories first.
  Status WriteJsonFile(const std::string& path) const;
};

/// Standalone JSON for an OomReport (same schema as the "mem.oom" section).
std::string OomReportToJson(const OomReport& report);

/// Writes OomReportToJson to `path`, creating parent directories first.
/// Backs `gen_cli --oom_report <path>`.
Status WriteOomReportFile(const OomReport& report, const std::string& path);

}  // namespace tg::obs

#endif  // TRILLIONG_OBS_RUN_REPORT_H_
