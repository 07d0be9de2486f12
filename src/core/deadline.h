// Wall-clock deadlines from caller-supplied time limits.
//
// Every anytime search (the exact branch-and-bound, LNS, the physical
// mapper) takes a `timeLimitSeconds` double and turns it into a
// steady_clock deadline.  A plain duration_cast of the double into the
// clock's int64 ticks is undefined behaviour once the limit exceeds the
// representable range (about 292 years of nanoseconds), and in practice
// wraps the deadline into the past -- a "generous" limit such as 1e12 or
// +inf would stop the search at its first clock poll.  deadlineAfter()
// saturates instead: any limit that is not a positive number, or that
// reaches past the clock's range, means "no deadline".
#ifndef EBLOCKS_CORE_DEADLINE_H_
#define EBLOCKS_CORE_DEADLINE_H_

#include <chrono>
#include <cstdint>

namespace eblocks {

/// The steady_clock time point `seconds` after `start`, or
/// time_point::max() (no deadline) when `seconds` is not positive, is
/// NaN, or lands at or beyond the clock's last representable tick.
inline std::chrono::steady_clock::time_point deadlineAfter(
    std::chrono::steady_clock::time_point start, double seconds) {
  using Clock = std::chrono::steady_clock;
  constexpr Clock::time_point kNever = Clock::time_point::max();
  if (!(seconds > 0)) return kNever;  // also NaN
  const Clock::rep room = (kNever - start).count();
  const double ticks =
      std::chrono::duration<double, Clock::period>(
          std::chrono::duration<double>(seconds))
          .count();
  // Compared as doubles first so the integer conversion below is always
  // in range; the integer check then catches the rounding at the edge.
  if (!(ticks < static_cast<double>(room))) return kNever;
  const auto whole = static_cast<Clock::rep>(ticks);
  if (whole >= room) return kNever;
  return start + Clock::duration(whole);
}

}  // namespace eblocks

#endif  // EBLOCKS_CORE_DEADLINE_H_
