#include "core/deadline.h"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>

namespace eblocks {
namespace {

using Clock = std::chrono::steady_clock;
constexpr Clock::time_point kNever = Clock::time_point::max();

TEST(Deadline, NonPositiveOrNanMeansNone) {
  const Clock::time_point start = Clock::now();
  EXPECT_EQ(deadlineAfter(start, 0.0), kNever);
  EXPECT_EQ(deadlineAfter(start, -1.0), kNever);
  EXPECT_EQ(deadlineAfter(start, -std::numeric_limits<double>::infinity()),
            kNever);
  EXPECT_EQ(deadlineAfter(start, std::numeric_limits<double>::quiet_NaN()),
            kNever);
}

TEST(Deadline, UnrepresentableLimitSaturates) {
  const Clock::time_point start = Clock::now();
  EXPECT_EQ(deadlineAfter(start, std::numeric_limits<double>::infinity()),
            kNever);
  EXPECT_EQ(deadlineAfter(start, 1e12), kNever);  // > int64 nanoseconds
  EXPECT_EQ(deadlineAfter(start, std::numeric_limits<double>::max()), kNever);
  // Just past the clock's range from `start`, and exactly at its end.
  const double room =
      std::chrono::duration<double>(kNever - start).count();
  EXPECT_EQ(deadlineAfter(start, room * 1.5), kNever);
  EXPECT_EQ(deadlineAfter(Clock::time_point{}, room * 2), kNever);
}

TEST(Deadline, OrdinaryLimitIsStartPlusLimit) {
  const Clock::time_point start = Clock::now();
  EXPECT_EQ(deadlineAfter(start, 2.5) - start,
            std::chrono::milliseconds(2500));
  EXPECT_EQ(deadlineAfter(start, 60.0) - start, std::chrono::seconds(60));
  // A century is still representable: a real deadline, not "none".
  const double century = 100.0 * 365 * 24 * 3600;
  EXPECT_LT(deadlineAfter(start, century), kNever);
  EXPECT_GT(deadlineAfter(start, century), start);
}

}  // namespace
}  // namespace eblocks
