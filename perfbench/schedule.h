// The open-loop arrival schedule of the `served` workload: a seeded
// Poisson process at a fixed rate with a fixed request mix.  The rate is
// a constant of the benchmark, never derived from the commit under test,
// so every commit is offered the same load.
#ifndef EBLOCKS_PERFBENCH_SCHEDULE_H_
#define EBLOCKS_PERFBENCH_SCHEDULE_H_

#include <cstdint>
#include <vector>

namespace perfbench {

struct Arrival {
  enum class Kind : std::uint8_t {
    kRenamed,  ///< a renamed copy of a Table-1 design (cache read)
    kFresh,    ///< a never-seen generated design (cache miss + insert)
    kResend,   ///< a verbatim resend of an earlier request (replay)
  };
  double due = 0.0;  ///< seconds after the schedule starts
  Kind kind = Kind::kFresh;
  /// kRenamed/kFresh: ordinal within its kind (the workload derives the
  /// design from it); kResend: index of the arrival being resent.
  std::uint32_t item = 0;
};

struct ScheduleSpec {
  double rate = 1.0;        ///< mean arrivals per second
  std::uint32_t count = 0;  ///< arrivals in the schedule
};

/// The request mix: exact shares of renamed copies and resends; the rest
/// are fresh designs.  A resend repeats an original request due
/// kResendMinAge..kResendMaxAge seconds before it, so its first answer
/// has normally completed and is still remembered.  These four values
/// are assumptions of the benchmark, not measured from any real traffic;
/// the served per-layer figures (hit ratio, replay ratio, cache span
/// medians) depend on them.
constexpr double kRenamedShare = 0.5;
constexpr double kResendShare = 0.15;
constexpr double kResendMinAge = 0.2;
constexpr double kResendMaxAge = 2.0;

/// Exponential inter-arrival gaps with mean 1/rate, and the mix shuffled
/// with exact per-kind counts.  A resend with no original in its age
/// window (early in the schedule) becomes a renamed copy.  The same seed
/// always yields the same schedule.
std::vector<Arrival> poissonSchedule(std::uint64_t seed,
                                     const ScheduleSpec& spec);

}  // namespace perfbench

#endif  // EBLOCKS_PERFBENCH_SCHEDULE_H_
