// fault/fault_injector.h — the runtime interpreter of a FaultPlan. One
// injector is shared by every worker thread of a run; the scheduler consults
// it at each chunk boundary and SimCluster::Shuffle at each collective.
//
// Determinism contract: the decision for (machine, ordinal) is a pure
// function of the plan — probabilistic rules draw from an Rng forked from
// (plan.seed, machine, rule index) at the per-machine boundary ordinal, so
// the injected schedule does not depend on thread interleaving. The chaos
// determinism test in tests/fault_test.cc pins this down.
#ifndef TRILLIONG_FAULT_FAULT_INJECTOR_H_
#define TRILLIONG_FAULT_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "fault/fault_plan.h"

namespace tg::fault {

/// Thrown when a fault plan leaves a run unable to finish (e.g. every
/// simulated machine crashed). Callers that injected faults on purpose —
/// the crash/resume tests, gen_cli under --fault_plan — catch this.
class FaultError : public std::runtime_error {
 public:
  explicit FaultError(const std::string& what) : std::runtime_error(what) {}
};

/// What the injector decided for one chunk boundary.
struct Decision {
  enum class Kind {
    kNone,       ///< proceed normally
    kCrash,      ///< this machine is dead: stop taking work, reassign queues
    kDie,        ///< hard process exit with kKilledExitCode
    kTransient,  ///< this chunk failed transiently: back off and retry
  };
  Kind kind = Kind::kNone;
  double slow_factor = 1.0;  ///< > 1 when a slow rule matched this machine
  int rule = -1;             ///< index of the rule that fired, -1 for none
};

class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, int num_machines);

  /// True when the plan has at least one rule. Fault-free runs construct no
  /// injector at all, but cheap armed() gating lets call sites share code.
  bool armed() const { return !plan_.empty(); }

  const FaultPlan& plan() const { return plan_; }
  int num_machines() const { return static_cast<int>(machines_.size()); }

  /// Consulted by a worker thread of `machine` after finishing each chunk
  /// (and before taking the next). Advances the machine's boundary ordinal
  /// and evaluates every matching rule in plan order; the first triggered
  /// rule wins. Records the decision as an obs event + counter. A machine
  /// already marked dead always gets kCrash back.
  Decision OnChunkBoundary(int machine);

  /// Same contract for shuffle collectives: returns true when a
  /// `crash@shuffle=N` rule fires for this machine's Nth shuffle, in which
  /// case the caller charges NetworkModel re-transfer cost.
  bool OnShuffleBoundary(int machine);

  /// Retries a transient (flaky) failure: exponential backoff starting at
  /// `kBackoffBaseMicros`, doubling per attempt, capped at kMaxRetries —
  /// after which the failure is promoted to a crash. Sleeps for real.
  static constexpr int kMaxRetries = 16;
  static constexpr int kBackoffBaseMicros = 100;
  void BackoffBeforeRetry(int attempt) const;

  bool machine_dead(int machine) const {
    return machines_[machine].dead.load(std::memory_order_acquire);
  }
  void MarkDead(int machine) {
    machines_[machine].dead.store(true, std::memory_order_release);
  }
  int machines_alive() const;

  /// True once an iofail rule has fired for this machine: the storage-layer
  /// failure hook (storage/file_io.h) makes every subsequent write to a file
  /// this machine owns return a sticky IoError, whichever thread writes.
  bool io_failing(int machine) const {
    return machines_[machine].io_failing.load(std::memory_order_acquire);
  }

  /// Installs this injector as the process-wide storage failure hook
  /// (consulted via obs::CurrentMachine(), which the writer sets to the
  /// file's owning machine). Uninstalls on destruction.
  void InstallIoHook();

  ~FaultInjector();

  /// Builds an injector from TG_FAULT_PLAN, or returns null when the
  /// variable is unset/empty. A malformed plan is reported to stderr and
  /// ignored (chaos hooks must never break a production run).
  static std::unique_ptr<FaultInjector> FromEnvOrNull(int num_machines);

 private:
  struct MachineState {
    std::atomic<bool> dead{false};
    std::atomic<bool> io_failing{false};
    std::atomic<std::uint64_t> chunk_ordinal{0};
    std::atomic<std::uint64_t> shuffle_ordinal{0};
  };

  /// Deterministic per-(machine, rule, ordinal) uniform draw in [0, 1).
  double Draw(int machine, int rule, std::uint64_t ordinal) const;
  void RecordInjection(const char* kind, int machine, std::uint64_t ordinal,
                       int rule);

  FaultPlan plan_;
  std::vector<MachineState> machines_;
  bool io_hook_installed_ = false;
};

}  // namespace tg::fault

#endif  // TRILLIONG_FAULT_FAULT_INJECTOR_H_
