#include "obs/run_report.h"

#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include "obs/mem.h"
#include "storage/file_io.h"
#include "storage/fs.h"
#include "util/build_info.h"
#include "util/json.h"

namespace tg::obs {

namespace {

// ---------------------------------------------------------------------------
// JSON writing. The report is the only producer, so the writer is a handful
// of append helpers rather than a general serializer.

void AppendEscaped(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendU64(std::uint64_t v, std::string* out) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  *out += buf;
}

void AppendDouble(double v, std::string* out) {
  char buf[40];
  // %.17g round-trips IEEE doubles exactly.
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // JSON has no inf/nan; clamp to null-free sentinels.
  if (std::strstr(buf, "inf") != nullptr || std::strstr(buf, "nan") != nullptr) {
    *out += "0";
    return;
  }
  *out += buf;
}

// ---------------------------------------------------------------------------
// JSON reading: typed views of a json::Parse document. A value whose JSON
// type does not fit the schema fails the whole read; unknown keys are
// ignored.

struct SchemaReader {
  bool failed = false;

  const std::map<std::string, json::Value>& Object(const json::Value& v) {
    if (!v.is_object()) failed = true;
    return v.object;  // empty unless an object
  }
  const std::vector<json::Value>& Array(const json::Value& v) {
    if (!v.is_array()) failed = true;
    return v.array;
  }
  std::string String(const json::Value& v) {
    if (!v.is_string()) failed = true;
    return v.str;
  }
  double Double(const json::Value& v) {
    if (!v.is_number()) failed = true;
    return v.number;
  }
  int Int(const json::Value& v) {
    const double d = Double(v);
    if (!(d >= INT_MIN && d <= INT_MAX)) {
      failed = true;  // the cast would be undefined
      return 0;
    }
    return static_cast<int>(d);
  }
  /// Exact up to 2^64-1 (json::Value keeps integer literals exactly).
  std::uint64_t U64(const json::Value& v) {
    if (!v.is_number()) failed = true;
    return v.U64Or(0);
  }
};

std::string FormatSeconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%10.4f", s);
  return buf;
}

/// Serializes an OomReport object; `pad` is the indentation of the opening
/// brace's line, so the section nests correctly in ToJson and stands alone
/// in OomReportToJson.
void AppendOomReport(const OomReport& report, const std::string& pad,
                     std::string* out) {
  const std::string field_pad = pad + "  ";
  *out += "{\n" + field_pad + "\"machine\": ";
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%d", report.machine);
  *out += buf;
  *out += ",\n" + field_pad + "\"tag\": ";
  AppendEscaped(report.tag, out);
  *out += ",\n" + field_pad + "\"requested_bytes\": ";
  AppendU64(report.requested_bytes, out);
  *out += ",\n" + field_pad + "\"used_bytes\": ";
  AppendU64(report.used_bytes, out);
  *out += ",\n" + field_pad + "\"limit_bytes\": ";
  AppendU64(report.limit_bytes, out);
  *out += ",\n" + field_pad + "\"span_stack\": ";
  AppendEscaped(report.span_stack, out);
  *out += ",\n" + field_pad + "\"breakdown\": [";
  bool first = true;
  for (const OomReport::TagUsage& usage : report.breakdown) {
    *out += first ? "\n" : ",\n";
    first = false;
    *out += field_pad + "  {\"tag\": ";
    AppendEscaped(usage.tag, out);
    *out += ", \"used_bytes\": ";
    AppendU64(usage.used_bytes, out);
    *out += ", \"peak_bytes\": ";
    AppendU64(usage.peak_bytes, out);
    *out += "}";
  }
  if (!report.breakdown.empty()) *out += "\n" + field_pad;
  *out += "],\n" + field_pad + "\"headroom_t\": [";
  for (std::size_t i = 0; i < report.headroom_t.size(); ++i) {
    if (i != 0) *out += ", ";
    AppendDouble(report.headroom_t[i], out);
  }
  *out += "],\n" + field_pad + "\"headroom_pct\": [";
  for (std::size_t i = 0; i < report.headroom_pct.size(); ++i) {
    if (i != 0) *out += ", ";
    AppendDouble(report.headroom_pct[i], out);
  }
  *out += "]\n" + pad + "}";
}

void ReadOomReport(const json::Value& doc, SchemaReader& r,
                   OomReport* report) {
  for (const auto& [field, v] : r.Object(doc)) {
    if (field == "machine") {
      report->machine = r.Int(v);
    } else if (field == "tag") {
      report->tag = r.String(v);
    } else if (field == "requested_bytes") {
      report->requested_bytes = r.U64(v);
    } else if (field == "used_bytes") {
      report->used_bytes = r.U64(v);
    } else if (field == "limit_bytes") {
      report->limit_bytes = r.U64(v);
    } else if (field == "span_stack") {
      report->span_stack = r.String(v);
    } else if (field == "breakdown") {
      for (const json::Value& row : r.Array(v)) {
        OomReport::TagUsage usage;
        for (const auto& [key, u] : r.Object(row)) {
          if (key == "tag") {
            usage.tag = r.String(u);
          } else if (key == "used_bytes") {
            usage.used_bytes = r.U64(u);
          } else if (key == "peak_bytes") {
            usage.peak_bytes = r.U64(u);
          }
        }
        report->breakdown.push_back(std::move(usage));
      }
    } else if (field == "headroom_t") {
      for (const json::Value& t : r.Array(v)) {
        report->headroom_t.push_back(r.Double(t));
      }
    } else if (field == "headroom_pct") {
      for (const json::Value& pct : r.Array(v)) {
        report->headroom_pct.push_back(r.Double(pct));
      }
    }
  }
}

}  // namespace

RunReport RunReport::Collect(const Registry& registry) {
  // Fold current budget pressure / per-tag peaks into the (global) registry
  // so end-of-run reports include them even without a sampler.
  PublishMemoryGauges();
  RunReport report;
  report.oom = LastOom();
  report.counters = registry.CounterValues();
  report.gauges = registry.GaugeValues();
  report.histograms = registry.HistogramValues();
  report.machines = registry.MachineStats();
  for (const auto& [key, stats] : registry.SpanValues()) {
    report.spans.push_back(
        {key.first, key.second, stats.count, stats.wall_seconds,
         stats.cpu_seconds});
  }
  for (Event& event : registry.EventValues()) {
    if (event.kind.rfind("fault.", 0) == 0) {
      report.fault.push_back(std::move(event));
    }
  }
  // Seed meta with the binary's identity; callers add run configuration on
  // top (and may override, since this runs first).
  for (const auto& [key, value] : util::BuildInfoMap()) {
    report.meta[key] = value;
  }
  return report;
}

std::string RunReport::ToJson() const {
  std::string out;
  out += "{\n  \"meta\": {";
  bool first = true;
  for (const auto& [key, value] : meta) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendEscaped(key, &out);
    out += ": ";
    AppendEscaped(value, &out);
  }
  out += "\n  },\n  \"counters\": {";
  first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendEscaped(name, &out);
    out += ": ";
    AppendU64(value, &out);
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendEscaped(name, &out);
    out += ": ";
    AppendDouble(value, &out);
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendEscaped(name, &out);
    out += ": {\"count\": ";
    AppendU64(h.count, &out);
    out += ", \"sum\": ";
    AppendU64(h.sum, &out);
    out += ", \"min\": ";
    AppendU64(h.min, &out);
    out += ", \"max\": ";
    AppendU64(h.max, &out);
    out += ", \"buckets\": [";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i != 0) out += ", ";
      AppendU64(h.buckets[i], &out);
    }
    out += "]}";
  }
  out += "\n  },\n  \"spans\": [";
  first = true;
  for (const SpanRow& row : spans) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += "{\"path\": ";
    AppendEscaped(row.path, &out);
    out += ", \"machine\": ";
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%d", row.machine);
    out += buf;
    out += ", \"count\": ";
    AppendU64(row.count, &out);
    out += ", \"wall_seconds\": ";
    AppendDouble(row.wall_seconds, &out);
    out += ", \"cpu_seconds\": ";
    AppendDouble(row.cpu_seconds, &out);
    out += "}";
  }
  out += "\n  ],\n  \"machines\": [";
  first = true;
  for (const auto& [machine, stats] : machines) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += "{\"machine\": ";
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%d", machine);
    out += buf;
    for (const auto& [key, value] : stats) {
      out += ", ";
      AppendEscaped(key, &out);
      out += ": ";
      AppendDouble(value, &out);
    }
    out += "}";
  }
  out += "\n  ]";
  if (oom.has_value()) {
    out += ",\n  \"mem.oom\": ";
    AppendOomReport(*oom, "  ", &out);
  }
  if (!fault.empty()) {
    out += ",\n  \"fault\": [";
    first = true;
    for (const Event& event : fault) {
      out += first ? "\n    " : ",\n    ";
      first = false;
      out += "{\"kind\": ";
      AppendEscaped(event.kind, &out);
      out += ", \"machine\": ";
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%d", event.machine);
      out += buf;
      out += ", \"ordinal\": ";
      AppendU64(event.ordinal, &out);
      out += ", \"detail\": ";
      AppendEscaped(event.detail, &out);
      out += "}";
    }
    out += "\n  ]";
  }
  if (prof.has_value()) {
    out += ",\n  \"prof\": {\n    \"samples\": ";
    AppendU64(prof->samples, &out);
    out += ",\n    \"dropped\": ";
    AppendU64(prof->dropped, &out);
    out += ",\n    \"hz\": ";
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%d", prof->hz);
    out += buf;
    out += ",\n    \"frames\": [";
    first = true;
    for (const ProfFrameRow& row : prof->frames) {
      out += first ? "\n      " : ",\n      ";
      first = false;
      out += "{\"phase\": ";
      AppendEscaped(row.phase, &out);
      out += ", \"frame\": ";
      AppendEscaped(row.frame, &out);
      out += ", \"self\": ";
      AppendU64(row.self, &out);
      out += ", \"total\": ";
      AppendU64(row.total, &out);
      out += "}";
    }
    if (!prof->frames.empty()) out += "\n    ";
    out += "]\n  }";
  }
  out += ",\n  \"series\": {";
  first = true;
  for (const auto& [name, ts] : series) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendEscaped(name, &out);
    out += ": {\"interval_seconds\": ";
    AppendDouble(ts.interval_seconds, &out);
    out += ", \"t\": [";
    for (std::size_t i = 0; i < ts.t.size(); ++i) {
      if (i != 0) out += ", ";
      AppendDouble(ts.t[i], &out);
    }
    out += "], \"v\": [";
    for (std::size_t i = 0; i < ts.v.size(); ++i) {
      if (i != 0) out += ", ";
      AppendDouble(ts.v[i], &out);
    }
    out += "]}";
  }
  out += "\n  }\n}\n";
  return out;
}

Status RunReport::FromJson(const std::string& json, RunReport* out) {
  *out = RunReport();
  json::Value doc;
  const Status parsed = json::Parse(json, &doc);
  if (!parsed.ok()) {
    return Status::Corruption("malformed run report JSON: " +
                              parsed.message());
  }
  SchemaReader r;
  for (const auto& [section, value] : r.Object(doc)) {
    if (section == "meta") {
      for (const auto& [key, v] : r.Object(value)) {
        out->meta[key] = r.String(v);
      }
    } else if (section == "counters") {
      for (const auto& [key, v] : r.Object(value)) {
        out->counters[key] = r.U64(v);
      }
    } else if (section == "gauges") {
      for (const auto& [key, v] : r.Object(value)) {
        out->gauges[key] = r.Double(v);
      }
    } else if (section == "histograms") {
      for (const auto& [name, v] : r.Object(value)) {
        HistogramSnapshot& h = out->histograms[name];
        for (const auto& [field, f] : r.Object(v)) {
          if (field == "count") {
            h.count = r.U64(f);
          } else if (field == "sum") {
            h.sum = r.U64(f);
          } else if (field == "min") {
            h.min = r.U64(f);
          } else if (field == "max") {
            h.max = r.U64(f);
          } else if (field == "buckets") {
            for (const json::Value& b : r.Array(f)) {
              h.buckets.push_back(r.U64(b));
            }
          }
        }
      }
    } else if (section == "spans") {
      for (const json::Value& v : r.Array(value)) {
        SpanRow row;
        for (const auto& [field, f] : r.Object(v)) {
          if (field == "path") {
            row.path = r.String(f);
          } else if (field == "machine") {
            row.machine = r.Int(f);
          } else if (field == "count") {
            row.count = r.U64(f);
          } else if (field == "wall_seconds") {
            row.wall_seconds = r.Double(f);
          } else if (field == "cpu_seconds") {
            row.cpu_seconds = r.Double(f);
          }
        }
        out->spans.push_back(std::move(row));
      }
    } else if (section == "machines") {
      for (const json::Value& v : r.Array(value)) {
        int machine = -1;
        std::map<std::string, double> stats;
        for (const auto& [field, f] : r.Object(v)) {
          if (field == "machine") {
            machine = r.Int(f);
          } else {
            stats[field] = r.Double(f);
          }
        }
        out->machines[machine] = std::move(stats);
      }
    } else if (section == "series") {
      for (const auto& [name, v] : r.Object(value)) {
        TimeSeries& ts = out->series[name];
        for (const auto& [field, f] : r.Object(v)) {
          if (field == "interval_seconds") {
            ts.interval_seconds = r.Double(f);
          } else if (field == "t") {
            for (const json::Value& t : r.Array(f)) {
              ts.t.push_back(r.Double(t));
            }
          } else if (field == "v") {
            for (const json::Value& x : r.Array(f)) {
              ts.v.push_back(r.Double(x));
            }
          }
        }
      }
    } else if (section == "mem.oom") {
      OomReport report;
      ReadOomReport(value, r, &report);
      out->oom = std::move(report);
    } else if (section == "prof") {
      ProfSection prof_section;
      for (const auto& [field, f] : r.Object(value)) {
        if (field == "samples") {
          prof_section.samples = r.U64(f);
        } else if (field == "dropped") {
          prof_section.dropped = r.U64(f);
        } else if (field == "hz") {
          prof_section.hz = r.Int(f);
        } else if (field == "frames") {
          for (const json::Value& v : r.Array(f)) {
            ProfFrameRow row;
            for (const auto& [key, x] : r.Object(v)) {
              if (key == "phase") {
                row.phase = r.String(x);
              } else if (key == "frame") {
                row.frame = r.String(x);
              } else if (key == "self") {
                row.self = r.U64(x);
              } else if (key == "total") {
                row.total = r.U64(x);
              }
            }
            prof_section.frames.push_back(std::move(row));
          }
        }
      }
      out->prof = std::move(prof_section);
    } else if (section == "fault") {
      for (const json::Value& v : r.Array(value)) {
        Event event;
        for (const auto& [field, f] : r.Object(v)) {
          if (field == "kind") {
            event.kind = r.String(f);
          } else if (field == "machine") {
            event.machine = r.Int(f);
          } else if (field == "ordinal") {
            event.ordinal = r.U64(f);
          } else if (field == "detail") {
            event.detail = r.String(f);
          }
        }
        out->fault.push_back(std::move(event));
      }
    }
  }
  if (r.failed) return Status::Corruption("malformed run report JSON");
  return Status::Ok();
}

std::string RunReport::ToTable() const {
  std::ostringstream out;
  out << "== run report ==\n";
  if (!meta.empty()) {
    out << "-- meta --\n";
    for (const auto& [key, value] : meta) {
      out << "  " << key << " = " << value << "\n";
    }
  }
  // Pad names to a 34-char column, but never glue a long name (e.g.
  // mem.tag.*.peak_bytes) to its value.
  const auto pad_name = [&out](const std::string& name) {
    out << "  " << name;
    std::size_t spaces = name.size() < 34 ? 34 - name.size() : 1;
    while (spaces-- > 0) out << ' ';
  };
  out << "-- counters --\n";
  for (const auto& [name, value] : counters) {
    pad_name(name);
    out << value << "\n";
  }
  out << "-- gauges --\n";
  for (const auto& [name, value] : gauges) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    pad_name(name);
    out << buf << "\n";
  }
  if (!histograms.empty()) {
    out << "-- histograms (percentiles estimated from log2 buckets) --\n";
    char header[160];
    std::snprintf(header, sizeof(header), "  %-28s %10s %8s %10s %10s %10s %10s %10s\n",
                  "name", "count", "min", "p50", "p90", "p99", "max", "mean");
    out << header;
    for (const auto& [name, h] : histograms) {
      double mean = h.count == 0
                        ? 0.0
                        : static_cast<double>(h.sum) /
                              static_cast<double>(h.count);
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "  %-28s %10" PRIu64 " %8" PRIu64 " %10.1f %10.1f %10.1f %10" PRIu64 " %10.1f\n",
                    name.c_str(), h.count, h.min, h.Quantile(0.50),
                    h.Quantile(0.90), h.Quantile(0.99), h.max, mean);
      out << buf;
    }
  }
  if (!spans.empty()) {
    out << "-- spans (aggregated; wall / cpu seconds) --\n";
    for (const SpanRow& row : spans) {
      out << "  " << row.path;
      if (row.machine >= 0) out << " [m" << row.machine << "]";
      out << "  x" << row.count << "  wall=" << FormatSeconds(row.wall_seconds)
          << "  cpu=" << FormatSeconds(row.cpu_seconds) << "\n";
    }
  }
  if (!machines.empty()) {
    out << "-- machines --\n";
    for (const auto& [machine, stats] : machines) {
      out << "  machine " << machine << ":";
      for (const auto& [key, value] : stats) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), " %s=%.6g", key.c_str(), value);
        out << buf;
      }
      out << "\n";
    }
  }
  if (!fault.empty()) {
    out << "-- fault (injected schedule) --\n";
    for (const Event& event : fault) {
      out << "  " << event.kind << " [m" << event.machine << "] @"
          << event.ordinal;
      if (!event.detail.empty()) out << "  " << event.detail;
      out << "\n";
    }
  }
  if (prof.has_value()) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "-- prof (%" PRIu64 " samples @ %d Hz, %" PRIu64
                  " dropped) --\n",
                  prof->samples, prof->hz, prof->dropped);
    out << buf;
    std::snprintf(buf, sizeof(buf), "  %-14s %8s %8s  %s\n", "phase", "self",
                  "total", "frame");
    out << buf;
    for (const ProfFrameRow& row : prof->frames) {
      std::snprintf(buf, sizeof(buf), "  %-14s %8" PRIu64 " %8" PRIu64 "  ",
                    row.phase.c_str(), row.self, row.total);
      out << buf << row.frame << "\n";
    }
  }
  if (oom.has_value()) {
    out << "-- mem.oom --\n";
    std::istringstream lines(oom->ToString());
    std::string line;
    while (std::getline(lines, line)) {
      out << "  " << line << "\n";
    }
  }
  if (!series.empty()) {
    out << "-- sampled series --\n";
    for (const auto& [name, ts] : series) {
      char buf[160];
      double last_t = ts.t.empty() ? 0.0 : ts.t.back();
      double first_v = ts.v.empty() ? 0.0 : ts.v.front();
      double last_v = ts.v.empty() ? 0.0 : ts.v.back();
      std::snprintf(buf, sizeof(buf),
                    "  %-28s %4zu points over %.2fs  %.6g -> %.6g\n",
                    name.c_str(), ts.size(), last_t, first_v, last_v);
      out << buf;
    }
  }
  return out.str();
}

Status RunReport::WriteJsonFile(const std::string& path) const {
  Status made = storage::EnsureParentDirectory(path);
  if (!made.ok()) return made;
  storage::FileWriter writer;
  Status s = writer.Open(path);
  if (!s.ok()) return s;
  std::string json = ToJson();
  writer.Append(json.data(), json.size());
  return writer.Close();
}

std::string OomReportToJson(const OomReport& report) {
  std::string out;
  AppendOomReport(report, "", &out);
  out += "\n";
  return out;
}

Status WriteOomReportFile(const OomReport& report, const std::string& path) {
  Status made = storage::EnsureParentDirectory(path);
  if (!made.ok()) return made;
  storage::FileWriter writer;
  Status s = writer.Open(path);
  if (!s.ok()) return s;
  std::string json = OomReportToJson(report);
  writer.Append(json.data(), json.size());
  return writer.Close();
}

}  // namespace tg::obs
