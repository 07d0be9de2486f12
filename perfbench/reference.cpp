#include "reference.h"

#include <algorithm>

#include "stats.h"

namespace perfbench {

double HostReference::pass() {
  const double start = now();
  work();
  return 1.0 / ((now() - start) * kNominalPassesPerSecond);
}

void HostReference::work() {
  // Hashing, node allocation, number formatting, sorting and string
  // building: the kinds of work the library's calls are made of.  The
  // same work every pass (fixed xorshift seed).
  for (int round = 0; round < 4; ++round) {
    std::uint64_t x = 88172645463325252ull;
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    map_.clear();
    values_.clear();
    text_.clear();
    for (int i = 0; i < 4096; ++i) map_[next() % 8192] = std::to_string(next());
    for (int i = 0; i < 16384; ++i) values_.push_back(next());
    std::sort(values_.begin(), values_.end());
    for (const auto& [key, digits] : map_) {
      text_ += digits;
      if (text_.size() > 16384) text_.clear();
      sink_ += key;
    }
    for (int i = 0; i < 16384; ++i)
      if (const auto it = map_.find(next() % 8192); it != map_.end())
        sink_ += it->second.size();
    sink_ += values_[values_.size() / 2] + text_.size();
  }
}

void HostScaler::passed(double speed) {
  const double around = passes_ ? (lastSpeed_ + speed) / 2.0 : speed;
  for (const double latency : held_) {
    scaledBusy_ += latency * around;
    scaled_.add(latency * around, scaledBusy_);
  }
  held_.clear();
  lastSpeed_ = speed;
  speedSum_ += speed;
  ++passes_;
}

}  // namespace perfbench
