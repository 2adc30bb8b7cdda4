// fault/fault_plan.h — the declarative description of the faults a run must
// survive. A FaultPlan is parsed from `gen_cli --fault_plan` (or the
// TG_FAULT_PLAN environment hook used by CI's TSan job) and interpreted
// at runtime by fault::FaultInjector. The grammar is deliberately tiny:
//
//   plan    := clause (',' clause)*
//   clause  := 'seed=' N | target ':' action
//   target  := 'm' N                    one simulated machine
//            | '*'                      every machine
//   action  := 'crash@chunk=' N        kill the machine at its Nth chunk
//                                      boundary (its threads stop; queued
//                                      chunks are reassigned to survivors)
//            | 'crash@p=' F            seeded per-boundary crash probability
//            | 'crash@shuffle=' N      die during the machine's Nth shuffle
//                                      collective (re-transfer is charged)
//            | 'die@chunk=' N          hard process exit (simulates kill -9;
//                                      buffered output is lost, the commit
//                                      journal survives — see journal.h)
//            | 'slow@' F 'x'           run the machine F× slower
//            | 'flaky@p=' F            transient chunk failures, retried
//                                      with exponential backoff
//            | 'iofail@chunk=' N       all writes on the machine start
//                                      failing at its Nth chunk boundary
//
// Examples: "m3:crash@chunk=120", "m1:slow@2x",
//           "seed=7,*:crash@p=0.001", "m0:die@chunk=40".
//
// Probabilistic clauses draw from a splittable RNG keyed by
// (seed, machine, boundary ordinal, rule), so the injected schedule is a
// pure function of the plan — chaos runs are reproducible.
#ifndef TRILLIONG_FAULT_FAULT_PLAN_H_
#define TRILLIONG_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace tg::fault {

/// Exit code used by `die` clauses (a hard std::_Exit, as close to kill -9
/// as a single process can simulate). Distinctive so tests and the
/// chaos.resume.* equivalence rows can assert the run died by injection,
/// not by accident.
inline constexpr int kKilledExitCode = 86;

enum class FaultAction {
  kCrash,   ///< machine stops taking chunks; its queue is reassigned
  kDie,     ///< hard process exit (resume-from-journal test path)
  kSlow,    ///< machine runs slow_factor× slower
  kFlaky,   ///< transient chunk failure; retried with backoff
  kIoFail,  ///< the machine's writes start failing (sticky writer status)
};

const char* FaultActionName(FaultAction action);

struct FaultRule {
  int machine = -1;             ///< -1: any machine ('*')
  FaultAction action = FaultAction::kCrash;
  std::uint64_t at_chunk = 0;   ///< fire at this per-machine chunk boundary
                                ///  ordinal (1-based); 0 = not chunk-triggered
  std::uint64_t at_shuffle = 0; ///< fire at this per-machine shuffle ordinal
  double probability = 0.0;     ///< per-boundary probability when > 0
  double slow_factor = 1.0;     ///< kSlow only

  bool Matches(int m) const { return machine < 0 || machine == m; }
  std::string ToString() const;
};

struct FaultPlan {
  std::uint64_t seed = 0x5EEDFA17ULL;  ///< probabilistic-draw seed
  std::vector<FaultRule> rules;

  bool empty() const { return rules.empty(); }
  std::string ToString() const;

  /// Parses the grammar above. On error returns InvalidArgument naming the
  /// offending clause and leaves *out untouched.
  static Status Parse(const std::string& text, FaultPlan* out);

  /// Parses TG_FAULT_PLAN. Returns Ok with an empty plan when the variable
  /// is unset or empty.
  static Status FromEnv(FaultPlan* out);
};

}  // namespace tg::fault

#endif  // TRILLIONG_FAULT_FAULT_PLAN_H_
