// A fixed reference kernel, timed between a workload's inputs, that
// measures how fast the host is running at the moment.
//
// On a shared host the machine's speed changes by a fifth or more in spells
// of a fraction of a second to minutes (other tenants loading the shared
// caches and memory), and a slow spell slows every timing of a run alike.
// The kernel pops and pushes on a binary heap of timestamps, each with a
// random read-modify-write into a 1 MiB table -- the memory pattern of the
// event loop -- in code that no change to the library under test can touch.
//
// Timings are adjusted by the square root of the kernel's slowdown in the
// same round (adjustment()).  Timing each workload input between two kernel
// runs showed the kernel slowing about twice as much as the workloads when
// the host slowed (log-log slopes of workload time on kernel time 0.4 to
// 0.8); dividing by the full slowdown overcorrected, its square root
// cancelled most of a slow spell.
#pragma once

#include <cstdint>
#include <vector>

#include "trace.hpp"

namespace perfbench {

class ReferenceKernel {
 public:
  /// The kernel's time at the host speed adjusted timings refer to: about
  /// its time on an unloaded 4-vCPU Xeon VM.
  static constexpr double kNominalSeconds = 0.025;

  /// Starts a round: the next sample() runs the kernel.
  void beginRound();

  /// Runs the kernel if the round has no sample yet or kSampleEvery seconds
  /// have passed since the last one.  Call it between inputs, outside every
  /// timed region.
  void sample();

  /// Factor for the current round's timings: the square root of
  /// kNominalSeconds over the mean kernel time of the round's samples.
  [[nodiscard]] double adjustment() const;

  /// Every sample of the run.
  [[nodiscard]] const std::vector<double>& samples() const { return all_; }

  /// False if two runs of the kernel computed different results.
  [[nodiscard]] bool consistent() const { return consistent_; }

 private:
  static constexpr double kSampleEvery = 0.25;

  std::vector<double> round_;
  std::vector<double> all_;
  Clock::time_point last_end_{};
  std::uint64_t checksum_ = 0;
  bool consistent_ = true;
};

}  // namespace perfbench
