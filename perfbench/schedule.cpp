#include "schedule.h"

#include <algorithm>
#include <cmath>
#include <random>

#include "stats.h"

namespace perfbench {

std::vector<Arrival> poissonSchedule(std::uint64_t seed,
                                     const ScheduleSpec& spec) {
  std::mt19937_64 rng(mix(seed));
  std::exponential_distribution<double> gap(spec.rate);

  const auto n = static_cast<std::size_t>(spec.count);
  const auto renamed = static_cast<std::size_t>(
      std::llround(kRenamedShare * static_cast<double>(n)));
  const auto resend = std::min(
      n - renamed, static_cast<std::size_t>(std::llround(
                       kResendShare * static_cast<double>(n))));
  std::vector<Arrival::Kind> kinds(n, Arrival::Kind::kFresh);
  std::fill_n(kinds.begin(), renamed, Arrival::Kind::kRenamed);
  std::fill_n(kinds.begin() + static_cast<std::ptrdiff_t>(renamed), resend,
              Arrival::Kind::kResend);
  std::shuffle(kinds.begin(), kinds.end(), rng);

  std::vector<Arrival> out(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += gap(rng);
    out[i].due = t;
    out[i].kind = kinds[i];
  }

  std::uint32_t renamedCount = 0, freshCount = 0;
  std::size_t windowBegin = 0;  // first arrival young enough to resend
  for (std::size_t i = 0; i < n; ++i) {
    Arrival& a = out[i];
    if (a.kind == Arrival::Kind::kResend) {
      while (windowBegin < i &&
             a.due - out[windowBegin].due > kResendMaxAge)
        ++windowBegin;
      std::vector<std::uint32_t> originals;
      for (std::size_t j = windowBegin;
           j < i && a.due - out[j].due >= kResendMinAge; ++j)
        if (out[j].kind != Arrival::Kind::kResend)
          originals.push_back(static_cast<std::uint32_t>(j));
      if (!originals.empty()) {
        a.item = originals[std::uniform_int_distribution<std::size_t>(
            0, originals.size() - 1)(rng)];
        continue;
      }
      a.kind = Arrival::Kind::kRenamed;
    }
    a.item = a.kind == Arrival::Kind::kRenamed ? renamedCount++
                                               : freshCount++;
  }
  return out;
}

}  // namespace perfbench
