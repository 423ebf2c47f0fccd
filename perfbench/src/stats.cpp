#include "stats.h"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <fstream>
#include <numeric>

namespace perfbench {

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

namespace {

std::size_t Rank(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

double StatusField(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stod(line.substr(prefix.size())) / 1024.0;  // kB → MiB
    }
  }
  return 0.0;
}

}  // namespace

double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[Rank(sorted.size(), q) - 1];
}

std::size_t SamplesBeyond(std::size_t n, double q) {
  if (n == 0) return 0;
  return n - Rank(n, q);
}

bool PercentileSupported(std::size_t n, double q) {
  return SamplesBeyond(n, q) >= 10;
}

double HighestSupportedPercentile(std::size_t n) {
  double best = 0.0;
  for (double q : {0.5, 0.9, 0.95, 0.99, 0.999, 0.9999}) {
    if (PercentileSupported(n, q)) best = q;
  }
  return best;
}

LatencySummary Summarize(std::vector<double>* values) {
  std::sort(values->begin(), values->end());
  LatencySummary s;
  s.n = values->size();
  s.p50 = NearestRank(*values, 0.50);
  s.p99 = NearestRank(*values, 0.99);
  s.p99_supported = PercentileSupported(s.n, 0.99);
  return s;
}

int SliceCount(std::size_t n, double q) {
  const auto beyond =
      static_cast<std::size_t>(static_cast<double>(n) * (1 - q));
  return static_cast<int>(
      std::clamp<std::size_t>(beyond / kSliceBeyond, 1, kMaxSlices));
}

namespace {

int SliceOf(double done_s, double seconds, int slices) {
  const auto s = static_cast<int>(std::floor(done_s / seconds * slices));
  return std::clamp(s, 0, slices - 1);
}

}  // namespace

SlicedValue SlicedPercentile(const std::vector<double>& done_s,
                             const std::vector<double>& values, double seconds,
                             double q) {
  SlicedValue out;
  out.n = values.size();
  const int slices = SliceCount(values.size(), q);
  std::vector<std::vector<double>> parts(slices);
  for (std::size_t i = 0; i < values.size(); ++i) {
    parts[SliceOf(done_s[i], seconds, slices)].push_back(values[i]);
  }
  std::vector<double> per_slice;
  for (std::vector<double>& part : parts) {
    if (!PercentileSupported(part.size(), q)) break;
    std::sort(part.begin(), part.end());
    per_slice.push_back(NearestRank(part, q));
  }
  if (slices > 1 && per_slice.size() == parts.size()) {
    out.value = Median(per_slice);
    out.slices = slices;
    out.per_slice = std::move(per_slice);
    return out;
  }
  std::vector<double> all = values;
  std::sort(all.begin(), all.end());
  out.value = NearestRank(all, q);
  out.slices = 1;
  return out;
}

SlicedValue SlicedRate(const std::vector<double>& done_s, double seconds) {
  SlicedValue out;
  out.n = done_s.size();
  const int slices = SliceCount(done_s.size(), 0.0);
  std::vector<double> counts(slices, 0.0);
  double last = seconds;
  for (double t : done_s) {
    counts[SliceOf(t, seconds, slices)] += 1;
    last = std::max(last, t);
  }
  const double width = seconds / slices;
  std::vector<double> rates;
  for (int s = 0; s < slices; ++s) {
    const double len = s + 1 < slices ? width : last - width * (slices - 1);
    rates.push_back(counts[s] / len);
  }
  out.value = Median(rates);
  out.slices = slices;
  out.per_slice = std::move(rates);
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed ^ (stream * 0x9E3779B97F4A7C15ULL + 0x632BE59BD9B4E019ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double ProcessCpuSeconds() { return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return CpuSeconds(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMb() { return StatusField("VmHWM"); }
double CurrentRssMb() { return StatusField("VmRSS"); }

}  // namespace perfbench
