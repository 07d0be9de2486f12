#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "stats.h"

namespace perfbench {

std::size_t SpanRecorder::open(const char* name, std::uint64_t request) {
  Span s;
  s.name = name;
  s.request = request;
  s.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  spans_.push_back(s);
  stack_.push_back(spans_.size() - 1);
  spans_.back().start = now();
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t index) {
  spans_[index].end = now();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::vector<double> selfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const double a = std::max(s.start, p.start);
    const double b = std::min(s.end, p.end);
    if (b > a) children[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double curStart = 0.0, curEnd = 0.0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= curEnd) {
        curEnd = std::max(curEnd, b);
        continue;
      }
      if (open) covered += curEnd - curStart;
      curStart = a;
      curEnd = b;
      open = true;
    }
    if (open) covered += curEnd - curStart;
    self[i] = (spans[i].end - spans[i].start) - covered;
  }
  return self;
}

std::vector<double> durations(const std::vector<const SpanRecorder*>& recs,
                              const std::string& name, bool self) {
  std::vector<double> out;
  for (const SpanRecorder* r : recs) {
    const std::vector<Span>& spans = r->spans();
    const std::vector<double> selfs = self ? selfTimes(spans)
                                           : std::vector<double>{};
    for (std::size_t i = 0; i < spans.size(); ++i)
      if (name == spans[i].name)
        out.push_back(self ? selfs[i] : spans[i].end - spans[i].start);
  }
  return out;
}

double medianMicros(const std::vector<const SpanRecorder*>& recs,
                    const std::string& name) {
  return median(durations(recs, name)) * 1e6;
}

bool writeSpans(const std::string& path, double origin,
                const std::vector<const SpanRecorder*>& recs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"spans\": [\n");
  bool first = true;
  for (const SpanRecorder* r : recs) {
    for (const Span& s : r->spans()) {
      std::fprintf(f,
                   "%s{\"thread\": \"%s\", \"name\": \"%s\", "
                   "\"start_us\": %.3f, \"end_us\": %.3f, \"parent\": %lld, "
                   "\"request\": %llu}",
                   first ? "" : ",\n", r->thread().c_str(), s.name,
                   (s.start - origin) * 1e6, (s.end - origin) * 1e6,
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
