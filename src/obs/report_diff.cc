#include "obs/report_diff.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace tg::obs {

namespace {

/// Denominator floor so a zero baseline still admits a zero-tolerance match
/// without dividing by zero.
constexpr double kEps = 1e-12;

bool Skipped(const DiffOptions& options, const std::string& name) {
  return std::find(options.skip.begin(), options.skip.end(), name) !=
         options.skip.end();
}

/// Tolerance for a gauge, or a negative value meaning "do not compare".
double GaugeTolerance(const DiffOptions& options, const std::string& name) {
  auto it = options.tolerances.find(name);
  if (it != options.tolerances.end()) return it->second;
  // Per-tag peak bytes (mem.tag.<tag>.peak_bytes) gate memory regressions
  // the way counters gate time: any tag present in the baseline must stay
  // within the prefix tolerance, and a vanished tag is a regression.
  if (name.rfind("mem.tag.", 0) == 0 &&
      name.size() >= sizeof(".peak_bytes") - 1 &&
      name.compare(name.size() - (sizeof(".peak_bytes") - 1),
                   std::string::npos, ".peak_bytes") == 0) {
    return options.mem_tag_peak_rel_tol;
  }
  return options.default_gauge_rel_tol;
}

void Compare(const std::string& name, double baseline, bool have_current,
             double current, double rel_tol, DiffResult* result) {
  MetricDelta delta;
  delta.name = name;
  delta.baseline = baseline;
  delta.current = current;
  delta.rel_tol = rel_tol;
  if (!have_current) {
    delta.missing = true;
    delta.regressed = true;
  } else {
    double denom = std::max(std::fabs(baseline), kEps);
    delta.regressed = std::fabs(current - baseline) > rel_tol * denom;
  }
  result->num_checked += 1;
  result->num_regressed += delta.regressed ? 1 : 0;
  result->deltas.push_back(std::move(delta));
}

}  // namespace

DiffOptions DiffOptions::Defaults() {
  DiffOptions options;
  // Simulated wire time is arithmetic over byte counts: deterministic, but
  // accumulated in floating point, so allow rounding-order slack.
  options.tolerances["net.simulated_seconds"] = 1e-6;
  // Peak memory accounting is deterministic per worker but the cross-worker
  // peak can shift with scheduling when workers share one budget.
  options.tolerances["mem.peak_machine_bytes"] = 0.5;
  options.tolerances["mem.peak_scope_bytes"] = 0.5;
  // Structural gauges: exact.
  options.tolerances["avs.max_degree"] = 0.0;
  options.tolerances["avs.recvec_levels"] = 0.0;
  // Which chunks get stolen is a thread-timing outcome, not a property of
  // the build (sched.chunks, which is deterministic, stays gated).
  options.skip.push_back("sched.steals");
  // Parked chunks exist only where a steal ran out of order, so their peak
  // is as schedule-dependent as the steal count (0 in a run with no steal).
  options.skip.push_back("mem.tag.sched.parked.peak_bytes");
  // How long the producer blocked on a full async-writer queue is likewise
  // wall-clock, not workload (io.bytes_written / io.flushes, which are
  // deterministic, stay gated).
  options.skip.push_back("io.writer_stall_ms");
  // Profiler sample counts are a function of CPU time consumed, not of the
  // workload's output — two hosts (or two optimization levels) legitimately
  // disagree.
  options.skip.push_back("prof.samples");
  options.skip.push_back("prof.dropped_samples");
  return options;
}

std::vector<GatedMetric> ListGatedMetrics(const RunReport& baseline,
                                          const DiffOptions& options) {
  std::vector<GatedMetric> out;
  auto add = [&out](const std::string& name, const char* kind, double tol,
                    bool skipped) {
    GatedMetric metric;
    metric.name = name;
    metric.kind = kind;
    metric.rel_tol = tol;
    metric.skipped = skipped || tol < 0;
    out.push_back(std::move(metric));
  };

  for (const auto& [name, value] : baseline.counters) {
    (void)value;
    auto it = options.tolerances.find(name);
    double tol =
        it != options.tolerances.end() ? it->second : options.counter_rel_tol;
    add(name, "counter", tol, Skipped(options, name));
  }
  for (const auto& [name, value] : baseline.gauges) {
    (void)value;
    add(name, "gauge", GaugeTolerance(options, name), Skipped(options, name));
  }
  for (const auto& [name, hist] : baseline.histograms) {
    (void)hist;
    auto it = options.tolerances.find(name);
    double tol =
        it != options.tolerances.end() ? it->second : options.counter_rel_tol;
    const bool skipped = Skipped(options, name) || !options.check_histograms;
    add("histogram/" + name + "/count", "histogram", tol, skipped);
    add("histogram/" + name + "/sum", "histogram", tol, skipped);
  }
  return out;
}

RunReport GatedPart(const RunReport& report) {
  RunReport gated;
  gated.meta = report.meta;
  gated.meta.erase("profile");
  gated.counters = report.counters;
  gated.gauges = report.gauges;
  gated.histograms = report.histograms;
  return gated;
}

DiffResult DiffReports(const RunReport& baseline, const RunReport& current,
                       const DiffOptions& options) {
  DiffResult result;

  for (const auto& [name, base_value] : baseline.counters) {
    if (Skipped(options, name)) continue;
    auto it = options.tolerances.find(name);
    double tol =
        it != options.tolerances.end() ? it->second : options.counter_rel_tol;
    if (tol < 0) continue;
    auto cur = current.counters.find(name);
    Compare(name, static_cast<double>(base_value),
            cur != current.counters.end(),
            cur != current.counters.end()
                ? static_cast<double>(cur->second)
                : 0.0,
            tol, &result);
  }

  for (const auto& [name, base_value] : baseline.gauges) {
    if (Skipped(options, name)) continue;
    double tol = GaugeTolerance(options, name);
    if (tol < 0) continue;
    auto cur = current.gauges.find(name);
    Compare(name, base_value, cur != current.gauges.end(),
            cur != current.gauges.end() ? cur->second : 0.0, tol, &result);
  }

  if (options.check_histograms) {
    for (const auto& [name, base_hist] : baseline.histograms) {
      if (Skipped(options, name)) continue;
      auto it = options.tolerances.find(name);
      double tol = it != options.tolerances.end() ? it->second
                                                  : options.counter_rel_tol;
      if (tol < 0) continue;
      auto cur = current.histograms.find(name);
      bool have = cur != current.histograms.end();
      Compare("histogram/" + name + "/count",
              static_cast<double>(base_hist.count), have,
              have ? static_cast<double>(cur->second.count) : 0.0, tol,
              &result);
      Compare("histogram/" + name + "/sum",
              static_cast<double>(base_hist.sum), have,
              have ? static_cast<double>(cur->second.sum) : 0.0, tol,
              &result);
    }
  }

  return result;
}

std::string DiffResult::ToString(bool verbose) const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-44s %16s %16s %9s  %s\n", "metric",
                "baseline", "current", "tol", "status");
  out += buf;
  for (const MetricDelta& delta : deltas) {
    if (!verbose && !delta.regressed) continue;
    const char* status = delta.missing     ? "MISSING"
                         : delta.regressed ? "FAIL"
                                           : "ok";
    std::snprintf(buf, sizeof(buf), "%-44s %16.6g %16.6g %9.2g  %s\n",
                  delta.name.c_str(), delta.baseline, delta.current,
                  delta.rel_tol, status);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "%d metric(s) checked, %d regression(s)\n",
                num_checked, num_regressed);
  out += buf;
  return out;
}

}  // namespace tg::obs
