#pragma once

#include <algorithm>
#include <chrono>
#include <vector>

namespace cyclone {

/// Simple wall-clock stopwatch used for measured (as opposed to modeled)
/// timings in benches and the tuning harness.
class WallTimer {
 public:
  WallTimer() { reset(); }

  void reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Wall time of `reps` repeated calls: the median and the spread.
struct Timing {
  int reps;
  double median, min, max;

  /// The same timing per unit when every call did `units` units of work.
  [[nodiscard]] Timing per(int units) const {
    return {reps, median / units, min / units, max / units};
  }
};

/// Call `body` once untimed (executor caches, JIT kernels, temporary arenas
/// and first-touch page faults), then `reps` (>= 1) timed times.
template <class F>
Timing time_reps(int reps, F&& body) {
  body();
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    body();
    samples.push_back(timer.seconds());
  }
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  const double median =
      samples.size() % 2 == 1 ? samples[mid] : 0.5 * (samples[mid - 1] + samples[mid]);
  return {reps, median, samples.front(), samples.back()};
}

}  // namespace cyclone
