// bench_check: the perf-regression gate on RunReports. Diffs a fresh bench
// report against a committed BENCH_*.json baseline with per-metric relative
// tolerances (obs/report_diff.h) and exits non-zero on any regression, so
// CI can fail a PR that slows a figure bench or drifts its deterministic
// counters.
//
//   bench_check --baseline bench/baselines/BENCH_fig11b.json
//               --current  /tmp/bench_fig11b.json
//               [--tol net.simulated_seconds=0.05,cluster.shuffled_bytes=0]
//               [--skip sort.merge_passes,...]
//               [--default_gauge_tol 0.5] [--verbose] [--update]
//
// --update rewrites the baseline from the gated part of the current report
// (obs::GatedPart, after printing the diff) — the maintenance path when a
// change legitimately moves a metric.
// --list needs only --baseline: it prints every metric the gate would check
// with its resolved tolerance (plus the skipped ones), so the gate's
// coverage is reviewable without running a bench.

#include <cstdio>
#include <string>

#include "obs/report_diff.h"
#include "obs/run_report.h"
#include "storage/fs.h"
#include "util/flags.h"
#include "util/status.h"

namespace {

tg::Status ReadFile(const std::string& path, std::string* out) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return tg::Status::IoError("cannot open: " + path);
  }
  out->clear();
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    out->append(buf, n);
  }
  std::fclose(file);
  return tg::Status::Ok();
}

tg::Status LoadReport(const std::string& path, tg::obs::RunReport* report) {
  std::string text;
  tg::Status s = ReadFile(path, &text);
  if (!s.ok()) return s;
  return tg::obs::RunReport::FromJson(text, report);
}

}  // namespace

int main(int argc, char** argv) {
  tg::FlagParser flags(argc, argv);
  if (flags.Has("help")) {
    std::printf(
        "usage: %s --baseline PATH --current PATH\n"
        "  [--tol name=frac,...]    per-metric relative tolerance override\n"
        "                           (negative: skip that metric)\n"
        "  [--skip name,...]        metrics to ignore\n"
        "  [--counter_tol frac]     default counter tolerance (default 0)\n"
        "  [--default_gauge_tol f]  compare unlisted gauges at tolerance f\n"
        "                           (default: unlisted gauges are skipped)\n"
        "  [--no_histograms]        skip histogram count/sum comparison\n"
        "  [--verbose]              print every checked metric, not only FAILs\n"
        "  [--update]               rewrite the baseline from --current\n"
        "  [--list]                 print the gated metrics and tolerances for\n"
        "                           --baseline (no --current needed), exit 0\n"
        "exit status: 0 ok, 1 regression, 2 usage/io error\n",
        flags.program_name().c_str());
    return 0;
  }

  const bool list_only = flags.GetBool("list", false);
  const std::string baseline_path = flags.GetString("baseline", "");
  const std::string current_path = flags.GetString("current", "");
  if (baseline_path.empty() || (current_path.empty() && !list_only)) {
    std::fprintf(stderr, "--baseline and --current are required (--help)\n");
    return 2;
  }

  tg::obs::RunReport baseline;
  tg::Status s = LoadReport(baseline_path, &baseline);
  if (!s.ok()) {
    std::fprintf(stderr, "bench_check: baseline %s: %s\n",
                 baseline_path.c_str(), s.ToString().c_str());
    return 2;
  }

  tg::obs::DiffOptions options = tg::obs::DiffOptions::Defaults();
  options.counter_rel_tol = flags.GetDouble("counter_tol", 0.0);
  if (flags.Has("default_gauge_tol")) {
    options.default_gauge_rel_tol = flags.GetDouble("default_gauge_tol", -1.0);
  }
  if (flags.Has("no_histograms")) options.check_histograms = false;
  for (const std::string& name : flags.GetStringList("skip")) {
    options.skip.push_back(name);  // on top of the default skip list
  }
  for (const std::string& spec : flags.GetStringList("tol")) {
    std::size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0) {
      std::fprintf(stderr, "bench_check: bad --tol item '%s' (want name=frac)\n",
                   spec.c_str());
      return 2;
    }
    options.tolerances[spec.substr(0, eq)] =
        std::strtod(spec.c_str() + eq + 1, nullptr);
  }

  if (list_only) {
    int checked = 0;
    int skipped = 0;
    std::printf("%-52s %-10s %9s  %s\n", "metric", "kind", "tol", "gate");
    for (const tg::obs::GatedMetric& metric :
         tg::obs::ListGatedMetrics(baseline, options)) {
      std::printf("%-52s %-10s %9.2g  %s\n", metric.name.c_str(),
                  metric.kind.c_str(), metric.rel_tol,
                  metric.skipped ? "skipped" : "checked");
      (metric.skipped ? skipped : checked) += 1;
    }
    std::printf("%d metric(s) gated, %d skipped (baseline %s)\n", checked,
                skipped, baseline_path.c_str());
    return 0;
  }

  tg::obs::RunReport current;
  s = LoadReport(current_path, &current);
  if (!s.ok()) {
    std::fprintf(stderr, "bench_check: current %s: %s\n", current_path.c_str(),
                 s.ToString().c_str());
    return 2;
  }

  tg::obs::DiffResult result =
      tg::obs::DiffReports(baseline, current, options);
  std::fputs(result.ToString(flags.GetBool("verbose", false)).c_str(),
             stdout);

  if (flags.GetBool("update", false)) {
    s = tg::storage::WriteFile(baseline_path,
                                 tg::obs::GatedPart(current).ToJson());
    if (!s.ok()) {
      std::fprintf(stderr, "bench_check: cannot update %s: %s\n",
                   baseline_path.c_str(), s.ToString().c_str());
      return 2;
    }
    std::printf("baseline %s updated from %s\n", baseline_path.c_str(),
                current_path.c_str());
    return 0;
  }

  if (!result.ok()) {
    std::fprintf(stderr,
                 "bench_check: REGRESSION vs %s (re-run with --update after "
                 "an intentional change)\n",
                 baseline_path.c_str());
    return 1;
  }
  std::printf("bench_check: OK vs %s\n", baseline_path.c_str());
  return 0;
}
