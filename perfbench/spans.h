// The benchmark's span recorder.  Spans are recorded from the benchmark's
// own code around calls into each library module's public functions (the
// library itself is not instrumented).  A span has a name, a start, an
// end, a parent span, and the id of the request it served.  Spans stay in
// memory and are written as JSON when the run ends.
//
// One recorder per thread: open/close are plain vector operations with no
// locking, and parents are tracked with a per-recorder stack.  Only the
// traced run creates recorders; untraced code paths hold a null recorder
// and a ScopedSpan on it does nothing.
#ifndef EBLOCKS_PERFBENCH_SPANS_H_
#define EBLOCKS_PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string: "<module>.<call>"
  double start = 0.0;     ///< seconds, steady clock
  double end = 0.0;
  std::int64_t parent = -1;  ///< index in the same recorder, -1 = root
  std::uint64_t request = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::string thread) : thread_(std::move(thread)) {}

  /// Starts a span now, as a child of the innermost open span.
  std::size_t open(const char* name, std::uint64_t request);
  /// Ends span `index` now; it must be the innermost open span.
  void close(std::size_t index);
  /// Renames a span whose outcome is known only after the call returns
  /// (a cache lookup is a hit or a miss).
  void rename(std::size_t index, const char* name) {
    spans_[index].name = name;
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::string& thread() const { return thread_; }

 private:
  std::string thread_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Opens a span on construction and closes it on destruction.  A null
/// recorder makes it a no-op, which is how untraced runs skip tracing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name,
             std::uint64_t request = 0)
      : recorder_(recorder),
        index_(recorder ? recorder->open(name, request) : 0) {}
  ~ScopedSpan() {
    if (recorder_) recorder_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void rename(const char* name) {
    if (recorder_) recorder_->rename(index_, name);
  }

 private:
  SpanRecorder* recorder_;
  std::size_t index_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children may
/// overlap each other, e.g. when they ran on other threads, and are
/// clipped to the parent's interval).
std::vector<double> selfTimes(const std::vector<Span>& spans);

/// Durations (or, with `self`, self times) in seconds of every span with
/// the given name, over all recorders.
std::vector<double> durations(const std::vector<const SpanRecorder*>& recs,
                              const std::string& name, bool self = false);

/// Median duration in microseconds of the spans with the given name
/// (0 when there are none).
double medianMicros(const std::vector<const SpanRecorder*>& recs,
                    const std::string& name);

/// Writes every recorder's spans to `path` as one JSON document, times
/// relative to `origin` in microseconds; a span's `parent` indexes the
/// spans of the same thread.  Returns false when the file cannot be
/// written.
bool writeSpans(const std::string& path, double origin,
                const std::vector<const SpanRecorder*>& recs);

}  // namespace perfbench

#endif  // EBLOCKS_PERFBENCH_SPANS_H_
