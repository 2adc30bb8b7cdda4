// Chrome Trace Event Format export of a TraceSnapshot. Reference:
// "Trace Event Format" (Google, docs.google.com/document/d/1CvAClvFfyA5R-
// PhYUmn5OOQtYMH4h6I0nSsKchNAySU) — the JSON flavor both Perfetto's legacy
// importer and chrome://tracing accept.
//
// Track mapping:
//   pid 0               "driver"             untagged threads (machine -1)
//   pid 1               "simulated network"  kWire slices + wire counter
//   pid 100 + m         "machine m"          threads tagged ScopedMachine(m)
// Within a process, tid is the emitting thread's stable trace id, so one
// worker thread is one timeline row. Wire slices are "X" complete events
// whose *duration* is the simulated NetworkModel charge — real timestamps,
// simulated extents, so both clocks are visible side by side.

#include <cinttypes>
#include <cstdio>
#include <set>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/json.h"

namespace tg::obs {

namespace {

constexpr int kDriverPid = 0;
constexpr int kWirePid = 1;
constexpr int kMachinePidBase = 100;
constexpr int kWireTid = 0;

int PidOf(const TraceEvent& event) {
  if (event.type == TraceEventType::kWire) return kWirePid;
  return event.machine < 0 ? kDriverPid : kMachinePidBase + event.machine;
}

void AppendMicros(std::int64_t ns, std::string* out) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1000.0);
  *out += buf;
}

/// Emits one metadata record ({"ph":"M"}) naming a process or thread.
void AppendMetadata(const char* what, int pid, int tid, bool with_tid,
                    const std::string& label, bool* first, std::string* out) {
  *out += *first ? "\n  " : ",\n  ";
  *first = false;
  *out += "{\"name\": ";
  json::AppendString(what, out);
  *out += ", \"ph\": \"M\", \"pid\": ";
  *out += std::to_string(pid);
  if (with_tid) {
    *out += ", \"tid\": ";
    *out += std::to_string(tid);
  }
  *out += ", \"args\": {\"name\": ";
  json::AppendString(label, out);
  *out += "}}";
}

}  // namespace

std::string TraceToChromeJson(const TraceSnapshot& snapshot) {
  std::string out;
  out += "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [";
  bool first = true;

  // --- Metadata: name every process and thread that appears, plus the wire
  // process, which is always present (an empty wire track on a shuffle-free
  // run is the paper's point, not an omission).
  std::set<int> pids = {kWirePid};
  std::set<std::pair<int, int>> pid_tids = {{kWirePid, kWireTid}};
  for (const TraceSnapshot::Row& row : snapshot.rows) {
    int pid = PidOf(row.event);
    pids.insert(pid);
    pid_tids.insert({pid, row.event.type == TraceEventType::kWire
                              ? kWireTid
                              : row.tid});
  }
  for (int pid : pids) {
    std::string label;
    if (pid == kDriverPid) {
      label = "driver";
    } else if (pid == kWirePid) {
      label = "simulated network";
    } else {
      label = "machine " + std::to_string(pid - kMachinePidBase);
    }
    AppendMetadata("process_name", pid, 0, false, label, &first, &out);
  }
  for (const auto& [pid, tid] : pid_tids) {
    std::string label = pid == kWirePid ? "wire (simulated time)"
                                        : "thread " + std::to_string(tid);
    AppendMetadata("thread_name", pid, tid, true, label, &first, &out);
  }

  // --- Events.
  double cumulative_wire_seconds = 0.0;
  std::int64_t last_ts_ns = 0;
  for (const TraceSnapshot::Row& row : snapshot.rows) {
    const TraceEvent& event = row.event;
    last_ts_ns = event.ts_ns;
    out += first ? "\n  " : ",\n  ";
    first = false;
    out += "{\"name\": ";
    json::AppendString(event.name == nullptr ? "?" : event.name, &out);
    out += ", \"pid\": ";
    out += std::to_string(PidOf(event));
    out += ", \"tid\": ";
    out += std::to_string(event.type == TraceEventType::kWire ? kWireTid
                                                              : row.tid);
    out += ", \"ts\": ";
    AppendMicros(event.ts_ns, &out);
    switch (event.type) {
      case TraceEventType::kBegin:
        out += ", \"ph\": \"B\"}";
        break;
      case TraceEventType::kEnd:
        out += ", \"ph\": \"E\"}";
        break;
      case TraceEventType::kInstant:
        out += ", \"ph\": \"i\", \"s\": \"t\"}";
        break;
      case TraceEventType::kCounter:
        out += ", \"ph\": \"C\", \"args\": {\"value\": ";
        json::AppendDouble(event.value, &out);
        out += "}}";
        break;
      case TraceEventType::kWire: {
        // Simulated charge: a complete slice whose duration is the
        // *simulated* transfer time, plus a running total on a counter
        // track of the same process.
        out += ", \"ph\": \"X\", \"dur\": ";
        AppendMicros(static_cast<std::int64_t>(event.value * 1e9), &out);
        out += ", \"args\": {\"simulated_seconds\": ";
        json::AppendDouble(event.value, &out);
        out += "}}";
        cumulative_wire_seconds += event.value;
        out += ",\n  {\"name\": \"net.simulated_seconds\", \"pid\": ";
        out += std::to_string(kWirePid);
        out += ", \"tid\": ";
        out += std::to_string(kWireTid);
        out += ", \"ts\": ";
        AppendMicros(event.ts_ns, &out);
        out += ", \"ph\": \"C\", \"args\": {\"value\": ";
        json::AppendDouble(cumulative_wire_seconds, &out);
        out += "}}";
        break;
      }
    }
  }

  // Close the wire counter track with the registry's final total so runs
  // whose charges happened before tracing was enabled (or with no charges at
  // all) still render a track, pinned at the true end-of-run value.
  out += first ? "\n  " : ",\n  ";
  out += "{\"name\": \"net.simulated_seconds\", \"pid\": ";
  out += std::to_string(kWirePid);
  out += ", \"tid\": ";
  out += std::to_string(kWireTid);
  out += ", \"ts\": ";
  AppendMicros(last_ts_ns, &out);
  out += ", \"ph\": \"C\", \"args\": {\"value\": ";
  json::AppendDouble(GetGauge("net.simulated_seconds")->value(), &out);
  out += "}}";

  out += "\n],\n\"otherData\": {\"dropped_events\": ";
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, snapshot.dropped);
  out += buf;
  out += "}\n}\n";
  return out;
}

}  // namespace tg::obs
