#include "obs/serve/prometheus.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <vector>


namespace tg::obs::serve {

namespace {

/// One exposed sample: an optional {label="value"} block plus the rendered
/// number. Samples of one family share a TYPE line.
struct Sample {
  std::string labels;  ///< "" or "{machine=\"m0\"}"
  std::string value;
};

struct Family {
  const char* type = "gauge";  ///< "counter" | "gauge" | "histogram"
  std::vector<Sample> samples;
};

std::string Sanitize(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string FormatU64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

std::string FormatDouble(double v) {
  char buf[40];
  // %.17g round-trips doubles; Prometheus accepts scientific notation.
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Splits a registry name into (family, labels). The structured mem.*
/// namespaces (see header) become labeled samples of one shared family so a
/// scraper can aggregate across machines/tags; everything else maps 1:1.
void FamilyAndLabels(const std::string& name, std::string* family,
                     std::string* labels) {
  labels->clear();
  // mem.m<digits>.<stat> -> tg_mem_<stat>{machine="m<digits>"}
  if (name.rfind("mem.m", 0) == 0) {
    std::size_t i = 5;
    while (i < name.size() && std::isdigit(static_cast<unsigned char>(name[i]))) {
      ++i;
    }
    if (i > 5 && i < name.size() && name[i] == '.') {
      *family = "tg_mem_" + Sanitize(name.substr(i + 1));
      *labels = "{machine=\"" + name.substr(4, i - 4) + "\"}";
      return;
    }
  }
  // mem.tag.<tag>.peak_bytes -> tg_mem_tag_peak_bytes{tag="<tag>"}
  const std::string tag_prefix = "mem.tag.";
  const std::string tag_suffix = ".peak_bytes";
  if (name.rfind(tag_prefix, 0) == 0 && name.size() > tag_prefix.size() + tag_suffix.size() &&
      name.compare(name.size() - tag_suffix.size(), tag_suffix.size(),
                   tag_suffix) == 0) {
    const std::string tag = name.substr(
        tag_prefix.size(), name.size() - tag_prefix.size() - tag_suffix.size());
    *family = "tg_mem_tag_peak_bytes";
    *labels = "{tag=\"" + EscapeLabelValue(tag) + "\"}";
    return;
  }
  *family = "tg_" + Sanitize(name);
}

void AddSample(std::map<std::string, Family>* families,
               const std::string& name, const char* type,
               const std::string& value) {
  std::string family, labels;
  FamilyAndLabels(name, &family, &labels);
  Family& slot = (*families)[family];
  slot.type = type;
  slot.samples.push_back({labels, value});
}

/// Emits one histogram family: cumulative buckets with exact integer upper
/// bounds (bucket i of the log2 histogram holds values in [2^(i-1), 2^i),
/// all <= 2^i - 1; bucket 0 holds exactly the zeros), then +Inf, _sum and
/// _count per the exposition format.
void AppendHistogram(const std::string& family, const HistogramSnapshot& h,
                     std::string* out) {
  *out += "# TYPE " + family + " histogram\n";
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    cumulative += h.buckets[i];
    const std::uint64_t le =
        i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
    *out += family + "_bucket{le=\"" + FormatU64(le) + "\"} " +
            FormatU64(cumulative) + "\n";
  }
  *out += family + "_bucket{le=\"+Inf\"} " + FormatU64(h.count) + "\n";
  *out += family + "_sum " + FormatU64(h.sum) + "\n";
  *out += family + "_count " + FormatU64(h.count) + "\n";
}

}  // namespace

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"':  out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default:   out.push_back(c);
    }
  }
  return out;
}

std::string RenderPrometheus(const Registry& registry) {
  // Counters, gauges and machine stats are grouped into families first so
  // each family gets exactly one TYPE line even when its samples come from
  // several registry names (the per-machine mem.* gauges).
  std::map<std::string, Family> families;
  for (const auto& [name, value] : registry.CounterValues()) {
    AddSample(&families, name, "counter", FormatU64(value));
  }
  for (const auto& [name, value] : registry.GaugeValues()) {
    AddSample(&families, name, "gauge", FormatDouble(value));
  }
  for (const auto& [machine, stats] : registry.MachineStats()) {
    for (const auto& [key, value] : stats) {
      Family& slot = families["tg_machine_" + Sanitize(key)];
      slot.type = "gauge";
      slot.samples.push_back(
          {"{machine=\"m" + std::to_string(machine) + "\"}",
           FormatDouble(value)});
    }
  }

  std::string out;
  for (const auto& [family, data] : families) {
    out += "# TYPE " + family + " " + data.type + "\n";
    for (const Sample& sample : data.samples) {
      out += family + sample.labels + " " + sample.value + "\n";
    }
  }
  // Histograms last, each a self-contained family (registry names are
  // unique across kinds, so no family collides with the scalar ones).
  for (const auto& [name, snapshot] : registry.HistogramValues()) {
    std::string family, labels;
    FamilyAndLabels(name, &family, &labels);
    AppendHistogram(family, snapshot, &out);
  }
  return out;
}

}  // namespace tg::obs::serve
