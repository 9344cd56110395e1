// The pace of the machine the benchmark runs on, measured next to the
// program's operations so their latencies can be stated at a fixed
// reference pace.
//
// On a shared host the same code runs a quarter faster or slower from
// one ten-second stretch to the next, and every operation of a run
// moves with it (see README, "Reference pace"). A probe is a fixed
// piece of work owned by the benchmark, about 0.1 ms: a pointer chase
// within L1 plus integer arithmetic, which no state the program leaves
// behind can speed up or slow down. The timed loops run one after an
// operation whenever 20 ms have passed since the last, so probes cost
// about 0.5% of a run. Factor() is the reference probe time over the
// median of the latest probes: a latency multiplied by it is what the
// operation would have taken at the reference pace. A slower program
// does not slow the probe, so it still shows in full.
#ifndef E2EBENCH_PACE_H_
#define E2EBENCH_PACE_H_

#include <cstdint>
#include <vector>

namespace e2e {

class Pace {
 public:
  /// Median probe time at the reference pace, in nanoseconds.
  static constexpr double kReferenceNs = 100000;

  /// Builds the probe's data and runs a few probes to warm it.
  Pace();

  /// Runs one probe and records its time.
  void Probe();
  /// Runs one probe if 20 ms have passed since the last.
  void MaybeProbe();
  /// Runs 9 probes back to back, so Factor() is the pace of this moment
  /// (used around the set-up, a single call too long to interleave).
  void Burst();
  /// kReferenceNs over the median of the latest 9 probes; 1 before the
  /// first.
  double Factor() const { return factor_; }
  /// Prints the probe count and median time on standard error.
  void Log() const;

 private:
  std::vector<uint32_t> next_;
  uint32_t at_ = 0;
  uint64_t sink_ = 0;
  int64_t last_ns_ = 0;
  double factor_ = 1;
  std::vector<double> probe_ns_;
};

}  // namespace e2e

#endif  // E2EBENCH_PACE_H_
