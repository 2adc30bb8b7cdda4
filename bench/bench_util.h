#ifndef TRILLIONG_BENCH_BENCH_UTIL_H_
#define TRILLIONG_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>

#include "obs/mem.h"
#include "obs/session.h"
#include "util/common.h"
#include "util/flags.h"
#include "util/stopwatch.h"

namespace tg::bench {

/// Prints a figure/table banner so the bench output reads like the paper's
/// evaluation section.
inline void Banner(const std::string& title, const std::string& paper_ref,
                   const std::string& expectation) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("expected shape: %s\n", expectation.c_str());
  std::printf("================================================================\n");
}

/// Runs `fn`, returning formatted elapsed seconds — or "O.O.M" if the run
/// exceeded its memory budget (exactly how the paper's figures annotate
/// methods that die; Figures 11 and 14). The caught OomError's forensics are
/// recorded via obs::RecordOom, so a later RunReport carries the mem.oom
/// section naming the failing machine/tag (PrintLastOom shows it inline).
inline std::string TimeOrOom(const std::function<void()>& fn) {
  Stopwatch watch;
  try {
    fn();
  } catch (const OomError& e) {
    obs::RecordOom(e.report());
    return "O.O.M";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", watch.ElapsedSeconds());
  return buf;
}

/// Prints the forensics of the most recent O.O.M (no-op when none): which
/// machine and tag tripped, plus the per-tag byte breakdown at death.
inline void PrintLastOom() {
  if (auto oom = obs::LastOom()) {
    std::printf("\nlast O.O.M forensics:\n%s", oom->ToString().c_str());
  }
}

/// Byte budget for the figure benches, overridable with a human-readable
/// TG_MEM_BUDGET ("48m", "2g", ...) so one env var re-runs a whole sweep at
/// a different simulated machine size.
inline std::uint64_t BudgetBytesFromEnv(std::uint64_t default_bytes) {
  const char* text = std::getenv("TG_MEM_BUDGET");
  if (text == nullptr || text[0] == '\0') return default_bytes;
  std::uint64_t bytes = 0;
  if (!ParseByteSize(text, &bytes)) {
    std::fprintf(stderr, "warning: TG_MEM_BUDGET: unparseable byte size \"%s\"\n",
                 text);
    return default_bytes;
  }
  return bytes;
}

/// Human-readable byte count.
inline std::string HumanBytes(std::uint64_t bytes) {
  char buf[32];
  if (bytes >= (1ULL << 30)) {
    std::snprintf(buf, sizeof(buf), "%.2f GiB", bytes / 1073741824.0);
  } else if (bytes >= (1ULL << 20)) {
    std::snprintf(buf, sizeof(buf), "%.2f MiB", bytes / 1048576.0);
  } else if (bytes >= (1ULL << 10)) {
    std::snprintf(buf, sizeof(buf), "%.2f KiB", bytes / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

}  // namespace tg::bench

#endif  // TRILLIONG_BENCH_BENCH_UTIL_H_
