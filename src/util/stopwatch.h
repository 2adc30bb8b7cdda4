#ifndef TRILLIONG_UTIL_STOPWATCH_H_
#define TRILLIONG_UTIL_STOPWATCH_H_

#include <ctime>

#include <chrono>

namespace tg {

/// CPU time consumed by the calling thread. Used by the cluster simulation:
/// on an oversubscribed host, per-worker CPU time is the faithful stand-in
/// for the wall time the worker would take on its own machine.
inline double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

/// Wall-clock stopwatch used by the bench harnesses.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace tg

#endif  // TRILLIONG_UTIL_STOPWATCH_H_
