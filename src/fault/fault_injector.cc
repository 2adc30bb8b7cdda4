#include "fault/fault_injector.h"

#include <chrono>
#include <cstdio>
#include <thread>

#include "obs/metrics.h"
#include "obs/span.h"
#include "rng/random.h"
#include "storage/file_io.h"

namespace tg::fault {

FaultInjector::FaultInjector(FaultPlan plan, int num_machines)
    : plan_(std::move(plan)), machines_(static_cast<std::size_t>(
                                  num_machines > 0 ? num_machines : 1)) {
  // Plans with I/O faults need the storage hook; install it eagerly so
  // every construction path (explicit, TG_FAULT_PLAN) gets it. Fault-free
  // runs construct no injector, so their write path stays hook-free.
  for (const FaultRule& rule : plan_.rules) {
    if (rule.action == FaultAction::kIoFail) {
      InstallIoHook();
      break;
    }
  }
}

FaultInjector::~FaultInjector() {
  if (io_hook_installed_) storage::IoFailureHookRef() = nullptr;
}

int FaultInjector::machines_alive() const {
  int alive = 0;
  for (const MachineState& m : machines_) {
    if (!m.dead.load(std::memory_order_acquire)) ++alive;
  }
  return alive;
}

double FaultInjector::Draw(int machine, int rule,
                           std::uint64_t ordinal) const {
  // Keyed so that each (machine, rule) pair owns an independent stream and
  // each boundary ordinal forks its own child: the draw depends only on the
  // plan, never on which thread reached the boundary first.
  rng::Rng stream(plan_.seed,
                  rng::MixSeeds(static_cast<std::uint64_t>(machine) + 1,
                                static_cast<std::uint64_t>(rule) + 1));
  return stream.Fork(ordinal).NextDouble();
}

void FaultInjector::RecordInjection(const char* kind, int machine,
                                    std::uint64_t ordinal, int rule) {
  obs::GetCounter("fault.injected")->Increment();
  obs::Event event;
  event.kind = std::string("fault.") + kind;
  event.machine = machine;
  event.ordinal = ordinal;
  event.detail = rule >= 0 && rule < static_cast<int>(plan_.rules.size())
                     ? plan_.rules[rule].ToString()
                     : std::string();
  obs::Registry::Global().RecordEvent(std::move(event));
}

Decision FaultInjector::OnChunkBoundary(int machine) {
  Decision decision;
  if (machine < 0 || machine >= num_machines()) return decision;
  MachineState& state = machines_[machine];
  if (state.dead.load(std::memory_order_acquire)) {
    decision.kind = Decision::Kind::kCrash;
    return decision;
  }
  const std::uint64_t ordinal =
      state.chunk_ordinal.fetch_add(1, std::memory_order_relaxed) + 1;

  for (std::size_t r = 0; r < plan_.rules.size(); ++r) {
    const FaultRule& rule = plan_.rules[r];
    if (!rule.Matches(machine)) continue;

    if (rule.action == FaultAction::kSlow) {
      // Slow rules do not consume the boundary; they annotate it.
      if (rule.slow_factor > decision.slow_factor) {
        decision.slow_factor = rule.slow_factor;
        if (decision.rule < 0) decision.rule = static_cast<int>(r);
      }
      continue;
    }

    bool fires = false;
    if (rule.at_chunk > 0) {
      fires = ordinal == rule.at_chunk;
    } else if (rule.probability > 0.0) {
      fires = Draw(machine, static_cast<int>(r), ordinal) < rule.probability;
    }
    if (!fires) continue;

    switch (rule.action) {
      case FaultAction::kCrash:
        state.dead.store(true, std::memory_order_release);
        decision.kind = Decision::Kind::kCrash;
        decision.rule = static_cast<int>(r);
        obs::GetCounter("fault.injected_crashes")->Increment();
        obs::GetCounter("fault.machines_lost")->Increment();
        RecordInjection("crash", machine, ordinal, decision.rule);
        return decision;
      case FaultAction::kDie:
        decision.kind = Decision::Kind::kDie;
        decision.rule = static_cast<int>(r);
        obs::GetCounter("fault.injected_crashes")->Increment();
        RecordInjection("die", machine, ordinal, decision.rule);
        return decision;
      case FaultAction::kFlaky:
        decision.kind = Decision::Kind::kTransient;
        decision.rule = static_cast<int>(r);
        RecordInjection("transient", machine, ordinal, decision.rule);
        return decision;
      case FaultAction::kIoFail:
        if (!state.io_failing.exchange(true, std::memory_order_acq_rel)) {
          obs::GetCounter("fault.injected_io_failures")->Increment();
          RecordInjection("iofail", machine, ordinal, static_cast<int>(r));
        }
        continue;  // the machine keeps running; its writes fail
      case FaultAction::kSlow:
        break;  // handled above
    }
  }

  if (decision.slow_factor > 1.0) {
    obs::GetCounter("fault.injected_delays")->Increment();
  }
  return decision;
}

bool FaultInjector::OnShuffleBoundary(int machine) {
  if (machine < 0 || machine >= num_machines()) return false;
  MachineState& state = machines_[machine];
  const std::uint64_t ordinal =
      state.shuffle_ordinal.fetch_add(1, std::memory_order_relaxed) + 1;
  for (std::size_t r = 0; r < plan_.rules.size(); ++r) {
    const FaultRule& rule = plan_.rules[r];
    if (rule.action != FaultAction::kCrash || rule.at_shuffle == 0 ||
        !rule.Matches(machine)) {
      continue;
    }
    if (ordinal == rule.at_shuffle) {
      obs::GetCounter("fault.injected_crashes")->Increment();
      RecordInjection("shuffle_crash", machine, ordinal,
                      static_cast<int>(r));
      return true;
    }
  }
  return false;
}

void FaultInjector::BackoffBeforeRetry(int attempt) const {
  obs::GetCounter("fault.retries")->Increment();
  int shift = attempt < 10 ? attempt : 10;
  std::this_thread::sleep_for(
      std::chrono::microseconds(kBackoffBaseMicros << shift));
}

void FaultInjector::InstallIoHook() {
  storage::IoFailureHookRef() = [this](const std::string&) {
    int machine = obs::CurrentMachine();
    if (machine < 0) machine = 0;  // untagged files belong to machine 0
    return machine < num_machines() && io_failing(machine);
  };
  io_hook_installed_ = true;
}

std::unique_ptr<FaultInjector> FaultInjector::FromEnvOrNull(
    int num_machines) {
  FaultPlan plan;
  Status s = FaultPlan::FromEnv(&plan);
  if (!s.ok()) {
    std::fprintf(stderr, "[tg::fault] ignoring TG_FAULT_PLAN: %s\n",
                 s.ToString().c_str());
    return nullptr;
  }
  if (plan.empty()) return nullptr;
  return std::make_unique<FaultInjector>(std::move(plan), num_machines);
}

}  // namespace tg::fault
