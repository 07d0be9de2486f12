// Small statistics helpers shared by the workloads and the self-test.
#ifndef EBLOCKS_PERFBENCH_STATS_H_
#define EBLOCKS_PERFBENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock every span and latency uses.
inline double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank index of quantile `percent` (0..100) among n sorted
/// samples: the smallest index i such that at least percent% of the
/// samples are <= sorted[i].  Integer arithmetic, so p99 of 1000 samples
/// is exactly index 989.
inline std::size_t rankIndex(std::size_t n, unsigned percent) {
  if (n == 0) return 0;
  const std::size_t rank = (n * percent + 99) / 100;  // ceil(n*p/100)
  return rank == 0 ? 0 : rank - 1;
}

/// Samples strictly beyond the nearest-rank `percent` quantile.
inline std::size_t samplesBeyond(std::size_t n, unsigned percent) {
  return n == 0 ? 0 : n - 1 - rankIndex(n, percent);
}

/// The reporting rule for tail percentiles: a percentile is only
/// reported as measured when at least ten samples lie beyond it.
inline bool percentileSupported(std::size_t n, unsigned percent) {
  return samplesBeyond(n, percent) >= 10;
}

/// Nearest-rank quantile of an unsorted sample (0 when empty).
inline double percentile(std::vector<double> v, unsigned percent) {
  if (v.empty()) return 0.0;
  const std::size_t i = rankIndex(v.size(), percent);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(i),
                   v.end());
  return v[i];
}

inline double median(std::vector<double> v) { return percentile(v, 50); }

inline double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Every latency of a run, in log-spaced buckets: percentiles over the
/// whole run in constant memory.  Keeping each sample would make
/// peak_rss_mb count the benchmark's own samples and grow with the speed
/// of the program under test.  Buckets are 1/512 of an octave wide
/// (0.14%) from 100 ns to over 20 minutes; a percentile is interpolated
/// geometrically by rank within its bucket.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kOctaves * kPerOctave, 0) {}

  /// One operation: its latency and, at its completion, the clock that
  /// throughput is taken over, both in seconds.
  void add(double latency, double clock) {
    const double octaves = std::log2(std::max(latency, kFloor) / kFloor);
    const auto i = static_cast<std::size_t>(octaves * kPerOctave);
    ++counts_[std::min(i, counts_.size() - 1)];
    ++samples_;
    clock_ = clock;
  }

  std::size_t samples() const { return samples_; }

  /// Operations per second of the clock passed to add().
  double ratePerSecond() const {
    return clock_ > 0.0 ? static_cast<double>(samples_) / clock_ : 0.0;
  }

  /// Nearest-rank percentile (0..100) of every latency added, in
  /// milliseconds; 0 when empty.
  double percentileMs(unsigned percent) const {
    if (samples_ == 0) return 0.0;
    const std::size_t rank = rankIndex(samples_, percent);
    std::size_t before = 0;
    std::size_t i = 0;
    while (before + counts_[i] <= rank) before += counts_[i++];
    const double within =
        (static_cast<double>(rank - before) + 0.5) / counts_[i];
    return 1e3 * kFloor * std::exp2((i + within) / kPerOctave);
  }

 private:
  static constexpr double kFloor = 1e-7;
  static constexpr std::size_t kOctaves = 34;
  static constexpr double kPerOctave = 512;

  std::vector<std::uint64_t> counts_;
  std::size_t samples_ = 0;
  double clock_ = 0.0;
};

/// Little's law, L = lambda * W, solved for the mean wait: a queue whose
/// mean depth is `meanDepth` jobs while jobs enter it at
/// `arrivalsPerSecond` holds each job for meanDepth / lambda seconds.
/// Returned in milliseconds; 0 when nothing arrived.
inline double littleWaitMs(double meanDepth, double arrivalsPerSecond) {
  return arrivalsPerSecond > 0.0 ? 1e3 * meanDepth / arrivalsPerSecond : 0.0;
}

/// SplitMix64: the benchmark's one seed-derivation function, so every
/// generated input follows from --seed through a documented chain.
inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// A 32-bit generator seed for item `index` of stream `stream` under the
/// run seed.
inline std::uint32_t deriveSeed(std::uint64_t runSeed, std::uint64_t stream,
                                std::uint64_t index) {
  return static_cast<std::uint32_t>(
      mix(mix(runSeed * 0x100000001B3ull + stream) + index));
}

}  // namespace perfbench

#endif  // EBLOCKS_PERFBENCH_STATS_H_
