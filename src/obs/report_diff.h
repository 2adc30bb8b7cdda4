// obs/report_diff.h — the comparison engine behind tools/bench_check: diffs
// a fresh bench RunReport against a committed baseline with per-metric
// relative tolerances, so the BENCH_*.json trajectory becomes a CI gate
// instead of dead weight.
//
// What is comparable on a simulated cluster: counters (edge counts, shuffled
// bytes, spill counts) and the *simulated* gauges (net.simulated_seconds,
// mem.peak_*) are deterministic for a fixed seed and config, so they diff
// exactly or near-exactly across hosts. Real-clock artifacts — span
// wall/cpu seconds, per-machine cpu stats — are machine-dependent noise and
// are never compared.
#ifndef TRILLIONG_OBS_REPORT_DIFF_H_
#define TRILLIONG_OBS_REPORT_DIFF_H_

#include <map>
#include <string>
#include <vector>

#include "obs/run_report.h"

namespace tg::obs {

struct DiffOptions {
  /// Relative tolerance for counters without an explicit override. Counters
  /// are deterministic under a fixed seed, so the default is exact.
  double counter_rel_tol = 0.0;

  /// Gauges without an explicit or built-in rule: skipped when negative,
  /// otherwise compared at this tolerance.
  double default_gauge_rel_tol = -1.0;

  /// Per-metric overrides (apply to counters, gauges, and the
  /// `histogram/<name>/{count,sum}` synthetic keys).
  std::map<std::string, double> tolerances;

  /// Built-in prefix rule: any `mem.tag.<tag>.peak_bytes` gauge in the
  /// baseline is compared at this tolerance (explicit per-name overrides
  /// still win), so a per-component memory regression fails the gate even
  /// though the gauge set is open-ended. Negative disables the rule.
  double mem_tag_peak_rel_tol = 0.5;

  /// Metric names excluded from comparison entirely.
  std::vector<std::string> skip;

  /// Compare histogram count/sum (as synthetic `histogram/<name>/count`
  /// etc.) at the counter tolerance.
  bool check_histograms = true;

  /// Built-in gauge rules: the simulated/deterministic gauges are checked,
  /// everything else (real-clock derived) is skipped unless
  /// default_gauge_rel_tol says otherwise.
  static DiffOptions Defaults();
};

struct MetricDelta {
  std::string name;
  double baseline = 0.0;
  double current = 0.0;
  double rel_tol = 0.0;
  bool missing = false;    ///< present in baseline, absent in current
  bool regressed = false;  ///< |current - baseline| exceeded tolerance
};

struct DiffResult {
  std::vector<MetricDelta> deltas;  ///< every *checked* metric, name order
  int num_checked = 0;
  int num_regressed = 0;

  bool ok() const { return num_regressed == 0; }

  /// Human-readable table of the comparison; regressions marked "FAIL".
  std::string ToString(bool verbose) const;
};

/// One row of `ListGatedMetrics`: what DiffReports would do with a baseline
/// metric under a given option set, without needing a current report.
struct GatedMetric {
  std::string name;     ///< metric (or `histogram/<name>/{count,sum}`) key
  std::string kind;     ///< "counter", "gauge", or "histogram"
  double rel_tol = 0.0; ///< resolved relative tolerance (may be negative)
  bool skipped = false; ///< true when DiffReports would not compare it
};

/// Enumerates every metric in `baseline` with the tolerance DiffReports
/// would apply — the same resolution order (explicit override, built-in
/// prefix rule, kind default) — including the ones it would skip. Backs
/// `bench_check --list`, so the CI gate's coverage is inspectable instead
/// of implicit.
std::vector<GatedMetric> ListGatedMetrics(const RunReport& baseline,
                                          const DiffOptions& options);

/// The part of `report` a baseline keeps: `meta` without the machine-local
/// `profile` path, plus the counters, gauges and histograms that
/// DiffReports reads. The other sections (spans, machines, series, the
/// profile, ...) are never compared and are largely real-clock or
/// host-specific, so `bench_check --update` drops them.
RunReport GatedPart(const RunReport& report);

/// Compares `current` against `baseline`. A metric present in the baseline
/// but absent from the current report counts as a regression (the bench
/// stopped measuring something it promised); metrics new in `current` are
/// ignored, so adding instrumentation never breaks old baselines.
DiffResult DiffReports(const RunReport& baseline, const RunReport& current,
                       const DiffOptions& options);

}  // namespace tg::obs

#endif  // TRILLIONG_OBS_REPORT_DIFF_H_
