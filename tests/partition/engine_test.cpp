// The strategy registry: every partitioner reachable by name, engine
// options forwarded, custom strategies pluggable at runtime.
#include "partition/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>

#include "designs/library.h"
#include "partition/exhaustive.h"
#include "partition/paredown.h"
#include "partition/verify.h"
#include "randgen/generator.h"
#include "synth/synthesizer.h"

namespace eblocks::partition {
namespace {

TEST(Engine, BuiltInsAreRegistered) {
  const auto& registry = PartitionerRegistry::instance();
  EXPECT_EQ(registry.names(),
            (std::vector<std::string>{"aggregation", "exhaustive", "fm",
                                      "greedy", "ladder", "lns", "paredown"}));
  EXPECT_EQ(registry.typedNames(),
            (std::vector<std::string>{"exhaustive", "fm", "paredown"}));
  for (const std::string& name : registry.names()) {
    EXPECT_NE(registry.find(name), nullptr) << name;
    EXPECT_FALSE(registry.describe(name).empty()) << name;
  }
  EXPECT_EQ(registry.find("no-such-strategy"), nullptr);
  EXPECT_EQ(registry.findTyped("aggregation"), nullptr);
}

TEST(Engine, RunPartitionerMatchesDirectCalls) {
  const Network net = designs::figure5();
  const PartitionProblem problem(net, ProgBlockSpec{});
  const PartitionRun direct = pareDown(problem);
  const PartitionRun viaEngine = runPartitioner("paredown", problem);
  EXPECT_EQ(viaEngine.algorithm, "paredown");
  ASSERT_EQ(viaEngine.result.partitions.size(),
            direct.result.partitions.size());
  for (std::size_t i = 0; i < direct.result.partitions.size(); ++i)
    EXPECT_EQ(viaEngine.result.partitions[i].toVector(),
              direct.result.partitions[i].toVector());
}

TEST(Engine, UnknownNameThrowsListingRegistered) {
  const Network net = designs::figure5();
  const PartitionProblem problem(net, ProgBlockSpec{});
  try {
    runPartitioner("kernighan-lin", problem);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("kernighan-lin"), std::string::npos);
    EXPECT_NE(what.find("paredown"), std::string::npos);
    EXPECT_NE(what.find("exhaustive"), std::string::npos);
    EXPECT_NE(what.find("aggregation"), std::string::npos);
  }
}

TEST(Engine, ExhaustiveStrategySeedsFromPareDownByDefault) {
  // The engine's exhaustive run must start from PareDown's bound: it
  // explores exactly what an explicitly-seeded serial search explores
  // and never more than an unseeded one.  (Since the warm-start PR a
  // tying seed no longer displaces the canonical optimum, so on designs
  // whose first DFS dive is already optimal the counts are equal.)
  const Network net = designs::figure5();
  const PartitionProblem problem(net, ProgBlockSpec{});

  EngineOptions engineOptions;
  engineOptions.threads = 1;
  const PartitionRun viaEngine =
      runPartitioner("exhaustive", problem, engineOptions);

  ExhaustiveOptions seeded;
  seeded.threads = 1;
  seeded.timeLimitSeconds = engineOptions.timeLimitSeconds;
  seeded.seed = pareDown(problem).result;
  const PartitionRun direct = exhaustiveSearch(problem, seeded);

  EXPECT_EQ(viaEngine.explored, direct.explored);
  EXPECT_EQ(viaEngine.result.totalAfter(8), 3);

  ExhaustiveOptions unseeded;
  unseeded.threads = 1;
  const PartitionRun plain = exhaustiveSearch(problem, unseeded);
  EXPECT_LE(viaEngine.explored, plain.explored);
  // Seeding is purely an accelerator: the returned optimum is the
  // unseeded search's, bit for bit.
  ASSERT_EQ(viaEngine.result.partitions.size(),
            plain.result.partitions.size());
  for (std::size_t i = 0; i < plain.result.partitions.size(); ++i)
    EXPECT_EQ(viaEngine.result.partitions[i].toVector(),
              plain.result.partitions[i].toVector());

  EngineOptions noSeed = engineOptions;
  noSeed.seedFromPareDown = false;
  const PartitionRun viaEngineUnseeded =
      runPartitioner("exhaustive", problem, noSeed);
  EXPECT_EQ(viaEngineUnseeded.explored, plain.explored);
}

TEST(Engine, TypedStrategiesRunTheCostModel) {
  const Network net = designs::figure5();
  const ProgCostModel model = ProgCostModel::paperDefault();
  const TypedPartitionRun heuristic =
      runTypedPartitioner("paredown", net, model);
  EXPECT_EQ(heuristic.algorithm, "multitype-paredown");
  EXPECT_TRUE(verifyTypedPartitioning(net, model, heuristic.result).empty());

  EngineOptions engineOptions;
  engineOptions.threads = 1;
  const TypedPartitionRun exact =
      runTypedPartitioner("exhaustive", net, model, engineOptions);
  EXPECT_EQ(exact.algorithm, "multitype-exhaustive");
  EXPECT_TRUE(exact.optimal);
  EXPECT_LE(exact.result.totalCost(8, model),
            heuristic.result.totalCost(8, model));
}

// A minimal custom strategy: never partitions anything.  Registering it
// makes it reachable through synthesize() with zero further wiring.
class NullPartitioner final : public Partitioner {
 public:
  std::string name() const override { return "null"; }
  std::string description() const override {
    return "leaves every block unpartitioned (registry demo)";
  }
  PartitionRun run(const PartitionProblem&,
                   const EngineOptions&) const override {
    PartitionRun run;
    run.algorithm = "null";
    return run;
  }
};

TEST(Engine, TypedExhaustiveHonoursCancelAndProgress) {
  // Cancelled before it starts: the typed search stops at its first
  // periodic check -- one 4096-node granule, plus the siblings visited
  // while the recursion unwinds -- and returns its seed, feasible.
  const Network net = randgen::randomNetwork({.innerBlocks = 24, .seed = 5});
  const ProgCostModel model = ProgCostModel::paperDefault();
  std::atomic<bool> cancel{true};
  std::atomic<std::uint64_t> progress{0};
  EngineOptions options;
  options.threads = 1;
  options.timeLimitSeconds = 0.0;  // only the cancel flag can stop it
  options.pruningBound = false;
  options.cancel = &cancel;
  options.progressNodes = &progress;
  const TypedPartitionRun run =
      runTypedPartitioner("exhaustive", net, model, options);
  EXPECT_TRUE(run.timedOut);
  EXPECT_FALSE(run.optimal);
  EXPECT_GE(run.explored, 0x1000u);
  EXPECT_LT(run.explored, 2u * 0x1000u);
  EXPECT_EQ(progress.load(), 0x1000u);
  EXPECT_TRUE(verifyTypedPartitioning(net, model, run.result).empty());
  const int n = static_cast<int>(net.innerBlocks().size());
  EXPECT_LE(run.result.totalCost(n, model),
            multiTypePareDown(net, model).result.totalCost(n, model));
}

TEST(Engine, CustomStrategyReachableThroughSynthesize) {
  PartitionerRegistry::instance().add(std::make_unique<NullPartitioner>());
  ASSERT_NE(PartitionerRegistry::instance().find("null"), nullptr);

  synth::SynthOptions options;
  options.algorithm = "null";
  const synth::SynthResult r =
      synth::synthesize(designs::figure5(), options);
  EXPECT_EQ(r.run.algorithm, "null");
  EXPECT_EQ(r.programmableBlocks, 0);
  EXPECT_EQ(r.innerAfter, 8);
}

}  // namespace
}  // namespace eblocks::partition
