// The closed-loop workloads: one caller runs synth::synthesize() on a
// corpus, one call after another, for the run's duration, in cycles
// that each take every job once in an order drawn from --seed.
//
//   table1  the paper's 15 Table-1 designs; paredown,
//           emitC on, no cache.  Behaviour and code generation dominate
//           here (partitioning is ~5% of a call), so a partition change
//           should move nothing.
//   search  Table 2's regime and the only partition-bound load: serial
//           exhaustive search (and PareDown, its Table-2 rival) on
//           pinned largeNetwork designs of 14-20 inner blocks, plus fm
//           on pinned largeNetwork designs of 100-200 inner blocks.
//
// Every result is verified (verifyPartitioning) and byte-compared with
// the first checked output of its job; each job's first output is also
// checked behaviourally against its source.  The traced run alternates
// untraced cycles with traced ones; a traced call is followed by a
// replay of synthesize()'s public calls, each in its own span, whose
// outputs must equal the call's.
#include <algorithm>
#include <exception>
#include <map>
#include <memory>
#include <numeric>
#include <random>

#include "bench.h"
#include "behavior/printer.h"
#include "checks.h"
#include "codegen/c_emitter.h"
#include "codegen/merge_program.h"
#include "designs/library.h"
#include "io/binary.h"
#include "partition/engine.h"
#include "partition/verify.h"
#include "randgen/generator.h"
#include "reference.h"
#include "stats.h"
#include "synth/synthesizer.h"

namespace perfbench {
namespace {

using namespace eblocks;

struct Job {
  std::string label;
  Network net;
  synth::SynthOptions options;
  bool generated = false;  ///< random design (transient-latch class applies)

  // Filled by setup(): the problem for verification and the first
  // checked output every later call must reproduce byte for byte.
  std::unique_ptr<partition::PartitionProblem> problem;
  synth::SynthResult reference;
  std::string refNetwork;
  std::string refRun;
};

/// Span name of the partitioner call for a registry algorithm name.
const char* partitionSpan(const std::string& algorithm) {
  if (algorithm == "paredown") return "partition.paredown";
  if (algorithm == "fm") return "partition.fm";
  if (algorithm == "exhaustive") return "partition.exhaustive";
  return "partition.other";
}

/// Why a result differs from its job's reference ("" when identical).
std::string differs(const Job& job, const synth::SynthResult& r) {
  const auto violations =
      partition::verifyPartitioning(*job.problem, r.run.result);
  if (!violations.empty()) return "verifyPartitioning: " + violations[0];
  if (io::writeNetworkBinary(r.network) != job.refNetwork)
    return "synthesized network differs from the first output";
  if (runBytesModuloTime(r.run) != job.refRun)
    return "partition run differs from the first output";
  if (r.blocks.size() != job.reference.blocks.size())
    return "block count differs from the first output";
  for (std::size_t k = 0; k < r.blocks.size(); ++k)
    if (r.blocks[k].cSource != job.reference.blocks[k].cSource)
      return "generated C differs from the first output";
  return "";
}

class ClosedLoop : public Workload {
 public:
  explicit ClosedLoop(const RunConfig& config) : config_(config) {}

  void setup() override {
    buildCorpus();
    order_.resize(jobs_.size());
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    rng_.seed(mix(config_.seed));
    // Warm-up: one call per job, whose output becomes the reference.
    for (auto& job : jobs_) {
      job->problem = std::make_unique<partition::PartitionProblem>(
          job->net, job->options.spec);
      job->reference = synth::synthesize(job->net, job->options);
      job->refNetwork = io::writeNetworkBinary(job->reference.network);
      job->refRun = runBytesModuloTime(job->reference.run);
    }
  }

  void measure(Outcome& out) override;

 protected:
  virtual void buildCorpus() = 0;

  Job& addJob(std::string label, Network net, synth::SynthOptions options,
              bool generated) {
    auto job = std::make_unique<Job>();
    job->label = std::move(label);
    job->net = std::move(net);
    job->options = std::move(options);
    job->generated = generated;
    jobs_.push_back(std::move(job));
    return *jobs_.back();
  }

  RunConfig config_;
  std::vector<std::unique_ptr<Job>> jobs_;
  std::vector<std::size_t> order_;
  /// Draws each cycle's order.  A call leaves caches and the allocator
  /// in a state the next call inherits, so a run's speed depends on the
  /// order of its jobs; a new order each cycle averages that over the
  /// run instead of letting the seed fix it.
  std::mt19937_64 rng_;

 private:
  /// Replays synthesize()'s public calls for `job` under spans and
  /// checks they reproduce `r`.  Returns synthesize() time minus the
  /// replayed calls' time (the rebuild, toSource and BlockType work).
  double replay(const Job& job, const synth::SynthResult& r,
                double synthSeconds, std::uint64_t id, SpanRecorder* rec,
                Outcome& out);
  void checkOutputs(Outcome& out);

  std::uint64_t replayNodes_ = 0;
};

double ClosedLoop::replay(const Job& job, const synth::SynthResult& r,
                          double synthSeconds, std::uint64_t id,
                          SpanRecorder* rec, Outcome& out) {
  const std::size_t first = rec->spans().size();
  ScopedSpan all(rec, "replay", id);
  {
    ScopedSpan s(rec, "core.validate", id);
    (void)job.net.validate();
  }
  std::unique_ptr<partition::PartitionProblem> problem;
  {
    ScopedSpan s(rec, "partition.problem", id);
    problem = std::make_unique<partition::PartitionProblem>(
        job.net, job.options.spec);
  }
  partition::PartitionRun run;
  {
    ScopedSpan s(rec, partitionSpan(job.options.algorithm), id);
    run = partition::runPartitioner(job.options.algorithm, *problem,
                                    job.options.engine);
  }
  if (job.options.algorithm == "exhaustive") replayNodes_ += run.explored;
  {
    ScopedSpan s(rec, "partition.verify", id);
    (void)partition::verifyPartitioning(*problem, run.result);
  }
  std::vector<codegen::MergedProgram> merged;
  for (const BitSet& p : run.result.partitions) {
    ScopedSpan s(rec, "codegen.merge", id);
    merged.push_back(codegen::mergePartitionProgram(
        job.net, p, problem->levels(), job.options.spec.mode));
  }
  std::vector<std::string> c;
  if (job.options.emitC)
    for (const codegen::MergedProgram& m : merged) {
      ScopedSpan s(rec, "codegen.emitc", id);
      c.push_back(codegen::emitC(m));
    }

  bool same = run.result.partitions == r.run.result.partitions &&
              merged.size() == r.blocks.size();
  for (std::size_t k = 0; same && k < merged.size(); ++k)
    same = behavior::toSource(merged[k].program) ==
               behavior::toSource(r.blocks[k].merged.program) &&
           (!job.options.emitC || c[k] == r.blocks[k].cSource);
  if (!same)
    out.problem(job.label + ": replayed calls differ from synthesize()");

  double replayed = 0.0;  // the replay span's direct children
  const std::vector<Span>& spans = rec->spans();
  for (std::size_t i = first + 1; i < spans.size(); ++i)
    replayed += spans[i].end - spans[i].start;
  return synthSeconds - replayed;
}

void ClosedLoop::checkOutputs(Outcome& out) {
  DivergenceCount divergences;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const Job& job = *jobs_[i];
    if (const auto v = partition::verifyPartitioning(
            *job.problem, job.reference.run.result);
        !v.empty())
      out.problem(job.label + ": verifyPartitioning: " + v[0]);
    const BehaviourVerdict verdict =
        checkBehaviour(job.net, job.reference.network,
                       deriveSeed(config_.seed, 90, i), job.generated);
    if (verdict.kind == BehaviourVerdict::Kind::kDiverged)
      out.problem(job.label + ": behaviour diverges: " + verdict.detail);
    divergences.count(verdict, job.label);
  }
  divergences.print();
  if (config_.trace) {
    out.add("sim.transient_latch", static_cast<double>(divergences.latch),
            "count");
    out.add("sim.transient_other", static_cast<double>(divergences.other),
            "count");
  }
}

void ClosedLoop::measure(Outcome& out) {
  SpanRecorder* rec = config_.trace ? trace().make("caller") : nullptr;
  TimedPhase phase;
  std::vector<double> untraced, traced, rest;
  std::map<std::string, int> failures;  // label -> failed calls
  double busy = 0.0;
  std::uint64_t id = 0;
  HostReference reference;
  HostScaler scaler(phase.latencies);
  scaler.passed(reference.pass());
  double nextPass = now() + kReferenceInterval;
  const double deadline = now() + config_.seconds;
  bool done = false;
  for (std::uint64_t cycle = 0; !done; ++cycle) {
    // The traced run alternates whole cycles, so both halves see every
    // job equally often.
    SpanRecorder* cycleRec = cycle % 2 == 1 ? rec : nullptr;
    std::shuffle(order_.begin(), order_.end(), rng_);
    for (const std::size_t j : order_) {
      if (now() >= nextPass) {
        scaler.passed(reference.pass());
        nextPass = now() + kReferenceInterval;
      }
      const Job& job = *jobs_[j];
      ++id;
      synth::SynthResult r;
      std::string why;
      const double t0 = now();
      try {
        ScopedSpan s(cycleRec, "synth.synthesize", id);
        r = synth::synthesize(job.net, job.options);
      } catch (const std::exception& e) {
        why = std::string("synthesize threw: ") + e.what();
      }
      const double seconds = now() - t0;
      busy += seconds;
      ++phase.attempted;
      phase.asMeasured.add(seconds, busy);
      scaler.hold(seconds);
      if (why.empty()) why = differs(job, r);
      if (!why.empty()) {
        ++phase.failed;
        if (failures[job.label]++ == 0) out.problem(job.label + ": " + why);
      } else if (cycleRec) {
        traced.push_back(seconds);
        rest.push_back(replay(job, r, seconds, id, cycleRec, out));
      } else if (rec) {
        untraced.push_back(seconds);
      }
      if (now() >= deadline) {
        done = true;
        break;
      }
    }
  }
  scaler.passed(reference.pass());
  std::printf("host reference: %zu passes, mean speed %.4g of nominal\n",
              scaler.passes(), scaler.meanSpeed());
  checkOutputs(out);

  int innerAfter = 0;
  std::size_t cBytes = 0;
  std::uint64_t nodes = 0;
  for (const auto& job : jobs_) {
    innerAfter += job->reference.innerAfter;
    for (const auto& b : job->reference.blocks) cBytes += b.cSource.size();
    if (job->options.algorithm == "exhaustive")
      nodes += job->reference.run.explored;
  }
  out.attempted += phase.attempted;
  out.failed += phase.failed;
  if (!config_.trace) {
    addEndToEnd(out, phase, innerAfter);
    return;
  }

  const auto recs = trace().all();
  const auto us = [&](const char* name) { return medianMicros(recs, name); };
  for (const char* name :
       {"core.validate", "partition.problem", "partition.verify",
        "partition.paredown", "partition.fm", "partition.exhaustive",
        "codegen.merge", "codegen.emitc"})
    out.add(std::string(name) + "_us", us(name), "us");
  out.add("synth.rest_us", median(rest) * 1e6, "us");
  out.add("codegen.c_bytes", static_cast<double>(cBytes), "bytes");
  out.add("partition.exhaustive_nodes", static_cast<double>(nodes), "count");
  const double exhaustiveSeconds =
      sum(durations(recs, "partition.exhaustive"));
  out.add("partition.exhaustive_nodes_per_s",
          exhaustiveSeconds > 0 ? static_cast<double>(replayNodes_) /
                                      exhaustiveSeconds
                                : 0.0,
          "1/s");
  double partitionSeconds = 0.0;
  for (const char* name :
       {"partition.problem", "partition.verify", "partition.paredown",
        "partition.fm", "partition.exhaustive"})
    partitionSeconds += sum(durations(recs, name, /*self=*/true));
  out.add("partition.share",
          partitionSeconds / sum(durations(recs, "synth.synthesize")),
          "ratio");
  out.add("trace.overhead", median(traced) / median(untraced) - 1.0, "ratio");
}

/// Length of the served phase of table1's traced run: long enough for
/// stable per-call medians of the daemon's layers.
constexpr double kServedPhaseSeconds = 10.0;

class Table1 : public ClosedLoop {
 public:
  using ClosedLoop::ClosedLoop;

  void measure(Outcome& out) override {
    ClosedLoop::measure(out);
    if (!config_.trace) return;
    RunConfig phase = config_;
    phase.seconds = kServedPhaseSeconds;
    const std::unique_ptr<Workload> served = makeServedPhase(phase);
    served->setup();
    served->measure(out);
  }

 protected:
  void buildCorpus() override {
    synth::SynthOptions options;  // paredown, emitC on, no cache
    for (designs::DesignEntry& e : designs::designLibrary())
      addJob(e.name, std::move(e.network), options, /*generated=*/false);
  }
};

/// Exhaustive-search designs: largeNetwork(inner, seed).  For each size
/// 14..20 the seed is the first of 1000003*inner + s, s = 0, 1, ...,
/// whose serial search explored 60k-300k nodes at the commit that
/// defined this benchmark.  They are pinned, not drawn from --seed:
/// search effort on random designs is heavy-tailed (at 17 inner blocks
/// it spans 2.5k-900k nodes), so seeded draws would make run-to-run
/// spread exceed any usable bound.
constexpr std::pair<int, std::uint32_t> kExhaustiveDesigns[] = {
    {14, 1000003u * 14 + 1}, {15, 1000003u * 15 + 4},
    {16, 1000003u * 16 + 1}, {17, 1000003u * 17 + 2},
    {18, 1000003u * 18 + 0}, {19, 1000003u * 19 + 1},
    {20, 1000003u * 20 + 0}};

/// fm designs: largeNetwork(inner, kFmSeedBase + i), sizes cycling
/// through kFmSizes.  Pinned like the exhaustive designs, so that
/// inner_blocks_after (the quality figure) is the same on every seed and
/// can carry a bound near 0.
constexpr int kFmSizes[] = {100, 125, 150, 175, 200};
constexpr int kFmDesigns = 20;
constexpr std::uint32_t kFmSeedBase = 7000000u;

class Search : public ClosedLoop {
 public:
  using ClosedLoop::ClosedLoop;

 protected:
  void buildCorpus() override {
    for (const auto& [inner, seed] : kExhaustiveDesigns) {
      const Network net = randgen::randomNetwork(
          randgen::GeneratorOptions::largeNetwork(inner, seed));
      for (const char* algorithm : {"exhaustive", "paredown"}) {
        synth::SynthOptions options;
        options.algorithm = algorithm;
        options.engine.threads = 1;  // serial: node counts stay exact
        options.engine.timeLimitSeconds = 600.0;
        addJob(std::string(algorithm) + "/" + std::to_string(inner) + "/" +
                   std::to_string(seed),
               net, options, /*generated=*/true);
      }
    }
    for (int i = 0; i < kFmDesigns; ++i) {
      const int inner = kFmSizes[i % std::size(kFmSizes)];
      const auto seed = kFmSeedBase + static_cast<std::uint32_t>(i);
      synth::SynthOptions options;
      options.algorithm = "fm";
      options.engine.threads = 1;
      addJob("fm/" + std::to_string(inner) + "/" + std::to_string(seed),
             randgen::randomNetwork(
                 randgen::GeneratorOptions::largeNetwork(inner, seed)),
             options, /*generated=*/true);
    }
  }
};

}  // namespace

std::unique_ptr<Workload> makeTable1(const RunConfig& config) {
  return std::make_unique<Table1>(config);
}

std::unique_ptr<Workload> makeSearch(const RunConfig& config) {
  return std::make_unique<Search>(config);
}

}  // namespace perfbench
