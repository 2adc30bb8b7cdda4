#ifndef TRILLIONG_CLUSTER_SIM_CLUSTER_H_
#define TRILLIONG_CLUSTER_SIM_CLUSTER_H_

#include <algorithm>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "cluster/network_model.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "prof/profiler.h"
#include "util/common.h"
#include "util/memory_budget.h"
#include "util/stopwatch.h"

namespace tg::cluster {

/// Renders a captured worker exception for the failure log.
inline std::string DescribeError(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown exception";
  }
}

/// Simulated cluster: the substitute for the paper's "one master + ten slave
/// PCs" testbed (Section 7.1). Machines are modeled as groups of worker
/// threads sharing a per-machine MemoryBudget; the interconnect is modeled
/// by charging NetworkModel transfer time for every byte a shuffle moves
/// between distinct machines (intra-machine traffic is free). Workers do
/// real work on real threads — only machine boundaries and wire time are
/// simulated.
class SimCluster {
 public:
  struct Options {
    int num_machines = 10;
    int threads_per_machine = 6;
    /// Per-machine memory cap in bytes (0 = unlimited).
    std::uint64_t memory_limit_per_machine = 0;
    NetworkModel network;
  };

  explicit SimCluster(const Options& options) : options_(options) {
    TG_CHECK(options.num_machines >= 1);
    TG_CHECK(options.threads_per_machine >= 1);
    budgets_.reserve(options.num_machines);
    for (int m = 0; m < options.num_machines; ++m) {
      // Each budget carries its machine id so an OOM names the machine and
      // the per-machine mem.m<id>.* pressure gauges line up with spans.
      budgets_.push_back(std::make_unique<MemoryBudget>(
          options.memory_limit_per_machine, /*machine=*/m));
    }
  }

  int num_machines() const { return options_.num_machines; }
  int num_workers() const {
    return options_.num_machines * options_.threads_per_machine;
  }
  int MachineOfWorker(int worker) const {
    return worker / options_.threads_per_machine;
  }
  MemoryBudget* machine_budget(int machine) { return budgets_[machine].get(); }
  MemoryBudget* worker_budget(int worker) {
    return budgets_[MachineOfWorker(worker)].get();
  }
  const NetworkModel& network() const { return options_.network; }

  /// Peak memory over machines (the paper's per-machine peak plots).
  std::uint64_t MaxMachinePeakBytes() const {
    std::uint64_t peak = 0;
    for (const auto& b : budgets_) peak = std::max(peak, b->peak_bytes());
    return peak;
  }

  /// Runs fn(worker) on num_workers() real threads. Every worker failure is
  /// recorded (cluster.worker_failures counter + one log line each) before
  /// the first exception is rethrown with a note of how many others were
  /// suppressed — a 60-worker run that loses 12 workers to the same dead
  /// disk reports all 12, not an arbitrary one. Returns the maximum
  /// per-worker CPU time — the simulated parallel wall-clock of the phase
  /// (on an oversubscribed host, thread CPU time is what each worker would
  /// have taken on its own core).
  double RunParallel(const std::function<void(int)>& fn) const {
    const int n = num_workers();
    std::vector<std::exception_ptr> errors(n);
    std::vector<double> busy(n, 0.0);
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (int w = 0; w < n; ++w) {
      threads.emplace_back([&, w] {
        // Tag the thread with its simulated machine so any spans opened by
        // fn aggregate per machine, and register it with the profiler so
        // its sample ring returns to the pool when the thread exits.
        obs::ScopedMachine machine_tag(MachineOfWorker(w));
        prof::EnsureThreadRegistered(w);
        double start = ThreadCpuSeconds();
        try {
          fn(w);
        } catch (...) {
          errors[w] = std::current_exception();
        }
        busy[w] = ThreadCpuSeconds() - start;
      });
    }
    for (std::thread& t : threads) t.join();
    std::exception_ptr first;
    int failures = 0;
    for (int w = 0; w < n; ++w) {
      if (!errors[w]) continue;
      ++failures;
      if (!first) first = errors[w];
      obs::GetCounter("cluster.worker_failures")->Increment();
      std::fprintf(stderr, "[tg::cluster] worker %d (machine %d) failed: %s\n",
                   w, MachineOfWorker(w), DescribeError(errors[w]).c_str());
    }
    if (first) {
      if (failures > 1) {
        std::fprintf(stderr,
                     "[tg::cluster] rethrowing first of %d worker failures "
                     "(%d suppressed)\n",
                     failures, failures - 1);
      }
      std::rethrow_exception(first);
    }
    double max_busy = 0;
    for (double b : busy) max_busy = std::max(max_busy, b);
    return max_busy;
  }

  /// All-to-all shuffle of POD records. `outbox[src][dst]` holds what worker
  /// src sends to worker dst; the return value is the per-destination
  /// concatenation (in source order). Cross-machine bytes are charged to the
  /// simulated network clock; per-destination-machine received bytes are
  /// registered against that machine's memory budget by the caller (the
  /// records are returned in plain vectors).
  template <typename T>
  std::vector<std::vector<T>> Shuffle(
      std::vector<std::vector<std::vector<T>>>&& outbox) {
    TG_SPAN("cluster.shuffle");
    const int n = num_workers();
    TG_CHECK(static_cast<int>(outbox.size()) == n);
    // Per-machine wire traffic.
    std::vector<std::uint64_t> sent(num_machines(), 0);
    std::vector<std::uint64_t> received(num_machines(), 0);
    std::vector<std::vector<T>> inbox(n);
    for (int dst = 0; dst < n; ++dst) {
      std::size_t total = 0;
      for (int src = 0; src < n; ++src) total += outbox[src][dst].size();
      inbox[dst].reserve(total);
    }
    for (int src = 0; src < n; ++src) {
      TG_CHECK(static_cast<int>(outbox[src].size()) == n);
      for (int dst = 0; dst < n; ++dst) {
        const std::vector<T>& payload = outbox[src][dst];
        if (MachineOfWorker(src) != MachineOfWorker(dst)) {
          std::uint64_t bytes = payload.size() * sizeof(T);
          sent[MachineOfWorker(src)] += bytes;
          received[MachineOfWorker(dst)] += bytes;
        }
        inbox[dst].insert(inbox[dst].end(), payload.begin(), payload.end());
        outbox[src][dst].clear();
        outbox[src][dst].shrink_to_fit();
      }
    }
    // The collective completes when the busiest machine finishes sending and
    // receiving (full-duplex wire).
    double seconds = 0;
    std::uint64_t total_bytes = 0;
    for (int m = 0; m < num_machines(); ++m) {
      seconds = std::max(
          seconds, options_.network.TransferSeconds(
                       std::max(sent[m], received[m]), num_machines() - 1));
      total_bytes += sent[m];
    }
    // Fault model for shuffle-heavy baselines: a machine that crashes during
    // the collective loses its whole inbox, and unlike AVS recomputation the
    // data cannot be regenerated locally — every peer must resend, so the
    // wire is charged a second pass over the victim's received bytes. This
    // is the recovery-cost asymmetry the recursive-vector model predicts
    // (and that bench_fig12's recovery datapoint measures).
    if (fault_injector_ != nullptr && fault_injector_->armed()) {
      for (int m = 0; m < num_machines(); ++m) {
        if (!fault_injector_->OnShuffleBoundary(m)) continue;
        const double retransfer = options_.network.TransferSeconds(
            received[m], num_machines() - 1);
        seconds += retransfer;
        obs::GetCounter("fault.shuffle_retransfers")->Increment();
        obs::GetCounter("fault.retransferred_bytes")->Add(received[m]);
        obs::TraceWire("fault.shuffle_retransfer", retransfer);
      }
    }
    network_seconds_ += seconds;
    shuffled_bytes_ += total_bytes;
    obs::GetCounter("cluster.shuffled_bytes")->Add(total_bytes);
    obs::GetGauge("net.simulated_seconds")->Add(seconds);
    obs::GetCounter("net.transfers")->Increment();
    // Timeline: the collective's simulated duration on the wire track — in
    // a trace of a baseline run this is the shuffle barrier the paper's
    // Figure 11(b) charges against RMAT-merge methods.
    obs::TraceWire("cluster.shuffle", seconds);
    return inbox;
  }

  /// Folds per-machine peaks into the obs registry's machine table and the
  /// `mem.peak_machine_bytes` gauge. Drivers call this once per run, after
  /// the last phase.
  void RecordMachineStats() const {
    obs::Registry& registry = obs::Registry::Global();
    for (int m = 0; m < num_machines(); ++m) {
      registry.MaxMachineStat(
          m, "peak_bytes", static_cast<double>(budgets_[m]->peak_bytes()));
    }
    obs::GetGauge("mem.peak_machine_bytes")
        ->Max(static_cast<double>(MaxMachinePeakBytes()));
  }

  /// Simulated wall-clock spent on the wire so far.
  double network_seconds() const { return network_seconds_; }
  std::uint64_t shuffled_bytes() const { return shuffled_bytes_; }
  void ResetNetworkClock() {
    network_seconds_ = 0;
    shuffled_bytes_ = 0;
  }

  /// Attaches a fault injector (not owned; must outlive the cluster). The
  /// AVS driver passes it through to the scheduler for chunk-level recovery;
  /// Shuffle consults it directly for the baselines' re-transfer charge.
  void set_fault_injector(fault::FaultInjector* injector) {
    fault_injector_ = injector;
  }
  fault::FaultInjector* fault_injector() const { return fault_injector_; }

 private:
  Options options_;
  std::vector<std::unique_ptr<MemoryBudget>> budgets_;
  double network_seconds_ = 0;
  std::uint64_t shuffled_bytes_ = 0;
  fault::FaultInjector* fault_injector_ = nullptr;
};

}  // namespace tg::cluster

#endif  // TRILLIONG_CLUSTER_SIM_CLUSTER_H_
