// Wall-clock timing for the experiment harness.

#ifndef ISA_COMMON_STOPWATCH_H_
#define ISA_COMMON_STOPWATCH_H_

#include <chrono>

namespace isa {

/// Monotonic wall-clock stopwatch. Started on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace isa

#endif  // ISA_COMMON_STOPWATCH_H_
