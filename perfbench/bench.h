// Shared types of the benchmark program: the run configuration, the
// outcome every workload fills in, and the workload interface.
#ifndef EBLOCKS_PERFBENCH_BENCH_H_
#define EBLOCKS_PERFBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spansPath;  ///< where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a run reports: the check verdict, the attempted/failed counts,
/// and the metrics of the run's mode.  Failed checks are explained in
/// `problems` (printed to stderr).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;

  bool correct() const { return problems.empty(); }
  void problem(std::string what) { problems.push_back(std::move(what)); }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Latencies and the operation counts of the timed phase, from which the
/// shared end-to-end metrics are derived.
struct TimedPhase {
  /// Completed operations.  The throughput clock is seconds since the
  /// phase began (open loop) or busy seconds inside the measured call
  /// (closed loop), as of the last operation added.
  LatencyHistogram latencies;  ///< closed loops: scaled to nominal host speed
  LatencyHistogram asMeasured;  ///< the same operations, not scaled
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< errors, rejections, timeouts, wrong outputs
};

/// One workload.  setup() builds everything the timed phase needs;
/// setup_s is the time from process start to its end.  measure() runs
/// the timed phase and the output checks and fills `out` (end-to-end or,
/// when traced, per-layer metrics).
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  virtual void measure(Outcome& out) = 0;
};

std::unique_ptr<Workload> makeTable1(const RunConfig& config);
std::unique_ptr<Workload> makeSearch(const RunConfig& config);
std::unique_ptr<Workload> makeServed(const RunConfig& config);
/// The served open loop as a phase of table1's traced run, which is
/// where the daemon's layers (io, server, cache) are measured.
std::unique_ptr<Workload> makeServedPhase(const RunConfig& config);

/// Appends the end-to-end metrics derived from a timed phase (all but
/// setup_s and peak_rss_mb, which main() adds) and prints the
/// sample counts beside the latency percentiles.  Percentiles and
/// throughput are taken over every operation of the run, from
/// phase.latencies; those of phase.asMeasured are printed beside them.
void addEndToEnd(Outcome& out, TimedPhase& phase, int innerBlocksAfter);

/// The spans the traced run recorded, written at exit by main().
struct Trace {
  std::vector<std::unique_ptr<SpanRecorder>> recorders;
  SpanRecorder* make(const std::string& thread) {
    recorders.push_back(std::make_unique<SpanRecorder>(thread));
    return recorders.back().get();
  }
  std::vector<const SpanRecorder*> all() const {
    std::vector<const SpanRecorder*> v;
    for (const auto& r : recorders) v.push_back(r.get());
    return v;
  }
};

/// Process-wide trace (empty in untraced runs).
Trace& trace();

}  // namespace perfbench

#endif  // EBLOCKS_PERFBENCH_BENCH_H_
