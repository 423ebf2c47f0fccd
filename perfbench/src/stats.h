#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
double Seconds(Clock::time_point from, Clock::time_point to);

/// Nearest-rank percentile of an ascending sample: the value at rank
/// ceil(q·n) (1-based). 0 for an empty sample.
double NearestRank(const std::vector<double>& sorted, double q);

/// Samples strictly beyond the q-th nearest-rank percentile: n − ceil(q·n).
std::size_t SamplesBeyond(std::size_t n, double q);

/// The reporting rule: a percentile is reported only when at least ten
/// samples lie beyond it.
bool PercentileSupported(std::size_t n, double q);

/// Highest percentile of the ladder 50, 90, 95, 99, 99.9, 99.99 that the
/// rule supports for `n` samples; 0 when not even the median is.
double HighestSupportedPercentile(std::size_t n);

/// A latency sample reduced to the figures the report prints.
struct LatencySummary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  bool p99_supported = false;
};

/// Sorts `values` in place and summarizes them.
LatencySummary Summarize(std::vector<double>* values);

/// Window figures are taken per time slice and reported as the median over
/// slices, which keeps a short burst of outside load from moving a run's
/// figure. A window is cut into at most kMaxSlices equal slices by
/// completion time, as many as leave each slice kSliceBeyond samples beyond
/// the percentile on average (kSliceBeyond samples in all, for a rate).
constexpr std::size_t kSliceBeyond = 20;
constexpr int kMaxSlices = 20;
int SliceCount(std::size_t n, double q);

/// A sliced figure and what it rests on.
struct SlicedValue {
  double value = 0.0;
  std::size_t n = 0;  ///< samples in the window
  int slices = 0;     ///< slices the median was taken over (1 = whole window)
  std::vector<double> per_slice;  ///< the slice figures, in time order
};

/// Median over slices of the per-slice q-th percentile of `values`, where
/// `done_s[i]` is when sample i completed (seconds from the window start;
/// completions after `seconds` fall in the last slice). Falls back to the
/// whole-window percentile when any slice is too small for the rule.
SlicedValue SlicedPercentile(const std::vector<double>& done_s,
                             const std::vector<double>& values, double seconds,
                             double q);

/// Median over slices of completions per second; the last slice stretches
/// to the last completion.
SlicedValue SlicedRate(const std::vector<double>& done_s, double seconds);

/// Median of a sample (mean of the two middle values for even n).
double Median(std::vector<double> values);

/// Mean of a sample; 0 when empty.
double Mean(const std::vector<double>& values);

/// Splittable seed derivation (SplitMix64 finalizer over seed ⊕ stream):
/// every generated input in a run is a pure function of the run seed and a
/// fixed stream number.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// CPU time used so far by this process (all threads) and by the calling
/// thread, in seconds. On a paravirtualized guest the scheduler clock
/// behind both leaves out time stolen by the host.
double ProcessCpuSeconds();
double ThreadCpuSeconds();

/// Peak and current resident set size of this process, in MiB, from
/// /proc/self/status (VmHWM / VmRSS); 0 when unavailable.
double PeakRssMb();
double CurrentRssMb();

}  // namespace perfbench
