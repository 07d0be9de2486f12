// Tests of the benchmark's own logic: the p99 sample-count rule, self
// time with overlapping children, per-seed schedule determinism, and
// Little's-law arithmetic.  Exit status 0 when every check holds.
//
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>

#include "reference.h"
#include "schedule.h"
#include "spans.h"
#include "stats.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void percentileRule() {
  using namespace perfbench;
  expect(rankIndex(1000, 99) == 989, "p99 of 1000 samples is index 989");
  expect(samplesBeyond(1000, 99) == 10, "1000 samples leave 10 beyond p99");
  expect(percentileSupported(1000, 99), "p99 is supported at n=1000");
  expect(!percentileSupported(999, 99), "p99 is not supported at n=999");
  expect(samplesBeyond(1099, 99) == 10, "1099 samples leave 10 beyond p99");
  expect(samplesBeyond(1100, 99) == 11, "1100 samples leave 11 beyond p99");
  expect(rankIndex(10, 50) == 4, "median of 10 is the 5th smallest");
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  expect(percentile(v, 99) == 990.0, "p99 of 1..1000 is 990");
  expect(percentile({}, 99) == 0.0, "percentile of nothing is 0");
}

void selfTime() {
  using perfbench::Span;
  // parent [0,10]; children [1,4] and [3,6] overlap; [8,12] overruns
  // the parent and is clipped to [8,10].  Covered: [1,6] + [8,10] = 7.
  std::vector<Span> spans(5);
  spans[0] = {"parent", 0.0, 10.0, -1, 1};
  spans[1] = {"a", 1.0, 4.0, 0, 1};
  spans[2] = {"b", 3.0, 6.0, 0, 1};
  spans[3] = {"c", 8.0, 12.0, 0, 1};
  spans[4] = {"grandchild", 1.5, 2.0, 1, 1};
  const std::vector<double> self = perfbench::selfTimes(spans);
  expect(near(self[0], 3.0), "self time subtracts the union of children");
  expect(near(self[1], 2.5), "a grandchild is charged to its own parent");
  expect(near(self[2], 3.0), "a leaf's self time is its duration");
  expect(near(self[3], 4.0), "clipping applies only when charging the parent");

  perfbench::SpanRecorder rec("test");
  const std::size_t outer = rec.open("outer", 7);
  const std::size_t inner = rec.open("inner", 7);
  rec.close(inner);
  rec.close(outer);
  expect(rec.spans()[inner].parent == static_cast<std::int64_t>(outer),
         "a span opened inside another is its child");
  expect(rec.spans()[outer].parent == -1, "the outermost span is a root");
  expect(rec.spans()[inner].request == 7, "spans keep their request id");
}

void schedule() {
  perfbench::ScheduleSpec spec;
  spec.rate = 1000.0;
  spec.count = 20000;
  const auto a = perfbench::poissonSchedule(42, spec);
  const auto b = perfbench::poissonSchedule(42, spec);
  const auto c = perfbench::poissonSchedule(43, spec);
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i)
    same = a[i].due == b[i].due && a[i].kind == b[i].kind &&
           a[i].item == b[i].item;
  expect(same, "the same seed gives the same schedule");
  bool differ = false;
  for (std::size_t i = 0; !differ && i < a.size(); ++i)
    differ = a[i].due != c[i].due;
  expect(differ, "another seed gives another schedule");

  const double meanGap = a.back().due / static_cast<double>(a.size());
  expect(std::fabs(meanGap - 1e-3) < 0.03e-3,
         "gaps average 1/rate (within 3%)");
  bool increasing = true;
  std::size_t renamed = 0, resend = 0, resendOk = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0 && a[i].due <= a[i - 1].due) increasing = false;
    if (a[i].kind == perfbench::Arrival::Kind::kRenamed) ++renamed;
    if (a[i].kind == perfbench::Arrival::Kind::kResend) {
      ++resend;
      const auto& orig = a[a[i].item];
      const double age = a[i].due - orig.due;
      if (a[i].item < i && orig.kind != perfbench::Arrival::Kind::kResend &&
          age >= perfbench::kResendMinAge &&
          age <= perfbench::kResendMaxAge)
        ++resendOk;
    }
  }
  expect(increasing, "due times increase");
  expect(resend == resendOk, "every resend repeats an original in its window");
  // Early resends with no original in the window become renamed copies,
  // so the renamed count may exceed its share by that handful.
  expect(renamed + resend == 13000 && resend > 2900,
         "the mix keeps its exact shares");
}

void histogram() {
  perfbench::LatencyHistogram h;
  for (int i = 0; i < 2500; ++i)  // 1..100 ms, one per millisecond
    h.add(1e-3 * (1 + i % 100), 1e-3 * (i + 1));
  expect(h.samples() == 2500 &&
             perfbench::samplesBeyond(h.samples(), 99) == 25,
         "every sample of the run counts");
  expect(std::fabs(h.percentileMs(50) / 50.0 - 1) < 0.002 &&
             std::fabs(h.percentileMs(99) / 99.0 - 1) < 0.002,
         "percentiles in milliseconds within a bucket's width");
  expect(near(h.ratePerSecond(), 1000.0),
         "rate over the clock of the last sample");

  perfbench::LatencyHistogram one;
  one.add(42e-6, 1.0);
  expect(std::fabs(one.percentileMs(50) / 0.042 - 1) < 0.002 &&
             one.percentileMs(50) == one.percentileMs(99),
         "a single sample is every percentile");
  expect(perfbench::LatencyHistogram().percentileMs(50) == 0.0,
         "an empty run reads 0");
}

void hostScaling() {
  perfbench::LatencyHistogram scaled;
  perfbench::HostScaler scaler(scaled);
  scaler.passed(1.0);
  scaler.hold(0.010);  // 10 ms each, between passes at 1.0 and 2.0
  scaler.hold(0.010);
  expect(scaled.samples() == 0, "latencies wait for the next pass");
  scaler.passed(2.0);
  expect(scaled.samples() == 2 && near(scaled.ratePerSecond(), 2 / 0.030),
         "scaled by the mean speed of the passes around them");
  expect(std::fabs(scaled.percentileMs(50) / 15.0 - 1) < 0.002,
         "a latency at 1.5x nominal speed reads 1.5x longer");
  expect(scaler.passes() == 2 && near(scaler.meanSpeed(), 1.5),
         "mean speed over the passes");

  perfbench::HostReference r;
  const double speed = r.pass();
  expect(speed > 0.0 && std::isfinite(speed),
         "a reference pass gives a positive speed");
}

void little() {
  using perfbench::littleWaitMs;
  expect(near(littleWaitMs(2.0, 500.0), 4.0), "depth 2 at 500/s waits 4 ms");
  expect(near(littleWaitMs(0.0, 500.0), 0.0), "an empty queue waits 0 ms");
  expect(near(littleWaitMs(3.0, 0.0), 0.0), "no arrivals means no wait");
  expect(near(littleWaitMs(0.5, 2000.0), 0.25),
         "depth 0.5 at 2000/s waits 0.25 ms");
}

}  // namespace

int main() {
  percentileRule();
  selfTime();
  schedule();
  histogram();
  little();
  hostScaling();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
