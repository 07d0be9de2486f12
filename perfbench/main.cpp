// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload table1|search|served --seed N --seconds S
//             --trace 0|1 [--spans PATH] [--setup-only 1]
//
// Untraced runs print the end-to-end metrics; traced runs print the
// per-layer metrics and write their spans to PATH.  With --setup-only 1
// the program sets the workload up and prints only {"setup_s": ...}:
// run.py starts several such processes, because set-up is timed once
// per process, from process start to the first timed operation.  The
// last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics": {name: {"value", "unit"}}}.  Exit status 0 means every
// output check passed, 1 that some check failed, 2 a usage or set-up
// error (no result printed).  METRICS.md documents every metric.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>

#include "bench.h"
#include "reference.h"
#include "stats.h"

namespace perfbench {

namespace {

/// Process start as the program observes it: set by a constructor that
/// runs before every other static initializer of the executable (the
/// library is linked in statically), so their work counts as set-up.
double gProcessStart = 0.0;

[[gnu::constructor(101)]] void markProcessStart() { gProcessStart = now(); }

/// Reference passes after set-up, which scale setup_s to nominal host
/// speed (~50 ms, not part of set-up).
constexpr int kSetupPasses = 5;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every workload reports (BENCHMARK.json).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"success_ratio", "ratio"},
    {"peak_rss_mb", "MiB"},
    {"inner_blocks_after", "blocks"},
};

/// The per-layer metrics of the traced run (BENCHMARK.json).  A metric
/// whose layer the workload does not exercise reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"core.validate_us", "us"},
    {"partition.problem_us", "us"},
    {"partition.verify_us", "us"},
    {"partition.paredown_us", "us"},
    {"partition.fm_us", "us"},
    {"partition.exhaustive_us", "us"},
    {"partition.exhaustive_nodes", "count"},
    {"partition.exhaustive_nodes_per_s", "1/s"},
    {"partition.share", "ratio"},
    {"codegen.merge_us", "us"},
    {"codegen.emitc_us", "us"},
    {"codegen.c_bytes", "bytes"},
    {"synth.rest_us", "us"},
    {"cache.hash_us", "us"},
    {"cache.lookup_hit_us", "us"},
    {"cache.lookup_miss_us", "us"},
    {"cache.insert_us", "us"},
    {"cache.lookups", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.hit_over_cold", "ratio"},
    {"cache.hit_mismatch", "count"},
    {"io.encode_us", "us"},
    {"io.decode_us", "us"},
    {"io.request_bytes", "bytes"},
    {"io.response_bytes", "bytes"},
    {"server.encode_us", "us"},
    {"server.send_us", "us"},
    {"server.decode_us", "us"},
    {"server.overhead_us", "us"},
    {"server.queue_depth", "count"},
    {"server.queue_wait_ms", "ms"},
    {"server.replay_ratio", "ratio"},
    {"server.rejected", "count"},
    {"loadgen.lag_p99_ms", "ms"},
    {"sim.transient_latch", "count"},
    {"sim.transient_other", "count"},
    {"trace.overhead", "ratio"},
};

/// The process's own peak resident set (VmHWM).  getrusage's ru_maxrss
/// is not used: it keeps the peak of the process image before exec, so
/// under run.py it read the Python parent's ~15 MiB instead of table1's
/// ~7 MiB.  0 when /proc is unreadable.
double peakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  return 0.0;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "table1|search|served --seed N --seconds S --trace 0|1 "
               "[--spans PATH] [--setup-only 1]\n",
               why);
  return 2;
}

/// Orders the outcome's metrics as `specs` lists them, filling absent
/// ones with 0 when `fill`; reports unknown or missing names.
bool canonical(Outcome& out, const MetricSpec* begin, const MetricSpec* end,
               bool fill) {
  std::map<std::string, Metric> byName;
  for (Metric& m : out.metrics) byName[m.name] = m;
  std::vector<Metric> ordered;
  bool ok = true;
  for (const MetricSpec* s = begin; s != end; ++s) {
    auto it = byName.find(s->name);
    if (it == byName.end()) {
      if (!fill) {
        std::fprintf(stderr, "perfbench: metric %s missing\n", s->name);
        ok = false;
      }
      ordered.push_back({s->name, 0.0, s->unit});
      continue;
    }
    Metric m = it->second;
    if (m.unit != s->unit) {
      std::fprintf(stderr, "perfbench: metric %s has unit %s\n", s->name,
                   m.unit.c_str());
      ok = false;
    }
    if (!std::isfinite(m.value)) m.value = 0.0;
    ordered.push_back(m);
    byName.erase(it);
  }
  for (const auto& [name, m] : byName) {
    std::fprintf(stderr, "perfbench: unlisted metric %s\n", name.c_str());
    ok = false;
  }
  out.metrics = std::move(ordered);
  return ok;
}

}  // namespace

Trace& trace() {
  static Trace t;
  return t;
}

void addEndToEnd(Outcome& out, TimedPhase& phase, int innerBlocksAfter) {
  const LatencyHistogram& h = phase.latencies;
  const LatencyHistogram& raw = phase.asMeasured;
  out.add("throughput_per_s", h.ratePerSecond(), "1/s");
  out.add("latency_p50_ms", h.percentileMs(50), "ms");
  out.add("latency_p99_ms", h.percentileMs(99), "ms");
  std::printf("as measured: throughput %.6g 1/s, p50 %.6g ms, p99 %.6g ms\n",
              raw.ratePerSecond(), raw.percentileMs(50),
              raw.percentileMs(99));
  std::printf("latency samples: %zu, %zu beyond p99\n", h.samples(),
              samplesBeyond(h.samples(), 99));
  if (!percentileSupported(h.samples(), 99))
    std::fprintf(stderr,
                 "perfbench: warning: fewer than 10 samples beyond p99\n");
  out.add("success_ratio",
          phase.attempted ? static_cast<double>(phase.attempted -
                                                phase.failed) /
                                static_cast<double>(phase.attempted)
                          : 0.0,
          "ratio");
  out.add("inner_blocks_after", innerBlocksAfter, "blocks");
}

int run(int argc, char** argv) {
  RunConfig config;
  bool haveWorkload = false;
  bool setupOnly = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      config.workload = value;
      haveWorkload = true;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      config.trace = std::string(value) == "1";
    } else if (key == "--spans") {
      config.spansPath = value;
    } else if (key == "--setup-only") {
      setupOnly = std::string(value) == "1";
    } else {
      return usage(("unknown option " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("options take one value each");
  if (!haveWorkload) return usage("--workload is required");
  if (!(config.seconds > 0)) return usage("--seconds must be positive");

  std::unique_ptr<Workload> (*make)(const RunConfig&) = nullptr;
  if (config.workload == "table1") make = makeTable1;
  if (config.workload == "search") make = makeSearch;
  if (config.workload == "served") make = makeServed;
  if (!make) return usage("unknown workload");

  Outcome out;
  double setupSeconds = 0.0;
  try {
    const std::unique_ptr<Workload> workload = make(config);
    workload->setup();
    setupSeconds = now() - gProcessStart;
    HostReference reference;
    double speeds[kSetupPasses];
    for (double& speed : speeds) speed = reference.pass();
    std::sort(std::begin(speeds), std::end(speeds));
    setupSeconds *= speeds[kSetupPasses / 2];  // the median
    if (setupOnly) {
      std::printf("{\"setup_s\": %.17g}\n", setupSeconds);
      return 0;
    }
    workload->measure(out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", config.workload.c_str(),
                 e.what());
    return 2;
  }

  bool ok;
  if (config.trace) {
    ok = canonical(out, std::begin(kPerLayer), std::end(kPerLayer), true);
    if (!config.spansPath.empty() &&
        !writeSpans(config.spansPath, gProcessStart, trace().all()))
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   config.spansPath.c_str());
  } else {
    out.add("setup_s", setupSeconds, "s");
    out.add("peak_rss_mb", peakRssMiB(), "MiB");
    ok = canonical(out, std::begin(kEndToEnd), std::end(kEndToEnd), false);
  }
  if (!ok) out.problem("metric set does not match BENCHMARK.json");
  for (const std::string& p : out.problems)
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());

  for (const Metric& m : out.metrics)
    std::printf("%-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct() ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", out.metrics[i].name.c_str(),
                out.metrics[i].value, out.metrics[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
  return out.correct() ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
