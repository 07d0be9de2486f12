// The host-speed reference: a fixed piece of work, built only from the C++
// standard library, that the benchmark times on the measuring thread
// between operations.  The host this benchmark runs on changes speed by
// up to ~1.45x for minutes at a time, and by less from one second to the
// next (contention from other tenants for the shared caches and memory
// of the core), which moves every timing alike.  Scaling each timing by
// the speed the reference saw around it takes most of that out, while a
// change to the library cannot change the reference.
#ifndef EBLOCKS_PERFBENCH_REFERENCE_H_
#define EBLOCKS_PERFBENCH_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "stats.h"

namespace perfbench {

/// Nominal reference passes per second, frozen so that every commit is
/// scaled to the same host speed.  The 4-core reference container ran
/// ~98 passes/s in its slow periods and ~130 in its fast ones.
constexpr double kNominalPassesPerSecond = 115.0;

/// Seconds between reference passes in a timed phase: about 4% of the
/// phase goes to the reference, and a 50 s phase times ~200 passes.
constexpr double kReferenceInterval = 0.25;

/// Scales closed-loop latencies to nominal host speed.  Latencies are
/// held until the next reference pass and then scaled by the mean speed
/// of the passes before and after them.
class HostScaler {
 public:
  /// Latencies are added here, scaled, in the order they were held.
  explicit HostScaler(LatencyHistogram& scaled) : scaled_(scaled) {}

  void hold(double latency) { held_.push_back(latency); }

  /// Speed relative to nominal of one reference pass; the first one, and
  /// each one after it, settles the latencies held since the last.
  void passed(double speed);

  /// Mean speed of the passes so far (1 before any).
  double meanSpeed() const {
    return passes_ ? speedSum_ / static_cast<double>(passes_) : 1.0;
  }
  std::size_t passes() const { return passes_; }

 private:
  LatencyHistogram& scaled_;
  std::vector<double> held_;
  double lastSpeed_ = 0.0;
  double speedSum_ = 0.0;
  std::size_t passes_ = 0;
  double scaledBusy_ = 0.0;  ///< throughput clock of scaled_
};

class HostReference {
 public:
  /// Runs one untimed pass, so that the first timed one does not pay for
  /// first-use allocation.
  HostReference() { work(); }

  /// Runs one timed pass of the reference work; returns the host's speed
  /// relative to nominal during it (above 1 when faster).
  double pass();

 private:
  void work();

  // Kept between passes so that a pass reuses the memory of the last one
  // (~0.5 MB) instead of growing the process.
  std::unordered_map<std::uint64_t, std::string> map_;
  std::vector<std::uint64_t> values_;
  std::string text_;
  std::uint64_t sink_ = 0;  ///< keeps the work observable
};

}  // namespace perfbench

#endif  // EBLOCKS_PERFBENCH_REFERENCE_H_
