// The strategy tables: every partitioner reachable by name, engine
// options forwarded to every search.
#include "partition/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "designs/library.h"
#include "partition/exhaustive.h"
#include "partition/paredown.h"
#include "partition/verify.h"
#include "randgen/generator.h"

namespace eblocks::partition {
namespace {

TEST(Engine, BuiltInsAreRegistered) {
  std::vector<std::string_view> names;
  for (const Strategy& s : strategies()) {
    names.push_back(s.name);
    EXPECT_EQ(findStrategy(s.name), &s) << s.name;
    EXPECT_FALSE(s.description.empty()) << s.name;
  }
  EXPECT_EQ(names, (std::vector<std::string_view>{
                       "aggregation", "exhaustive", "fm", "greedy", "ladder",
                       "lns", "paredown"}));
  std::vector<std::string_view> typedNames;
  for (const TypedStrategy& s : typedStrategies()) {
    typedNames.push_back(s.name);
    EXPECT_EQ(findTypedStrategy(s.name), &s) << s.name;
    EXPECT_FALSE(s.description.empty()) << s.name;
  }
  EXPECT_EQ(typedNames, (std::vector<std::string_view>{"exhaustive", "fm",
                                                         "paredown"}));
  EXPECT_EQ(findStrategy("no-such-strategy"), nullptr);
  EXPECT_EQ(findTypedStrategy("aggregation"), nullptr);
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

// What one engine run reports about the knobs it was given.
struct KnobOutcome {
  bool timedOut = false;
  bool verified = false;
  std::uint64_t pruned = 0;
  std::size_t workers = 0;  // workerExplored.size(): 0 for a serial run
};

KnobOutcome runWithKnobs(std::string_view strategy, bool typed,
                         const Network& net, const EngineOptions& options) {
  if (typed) {
    const ProgCostModel model = ProgCostModel::paperDefault();
    const TypedPartitionRun run =
        runTypedPartitioner(strategy, net, model, options);
    return {run.timedOut,
            verifyTypedPartitioning(net, model, run.result).empty(),
            run.pruned, run.workerExplored.size()};
  }
  const PartitionProblem problem(net, ProgBlockSpec{});
  const PartitionRun run = runPartitioner(strategy, problem, options);
  return {run.timedOut, verifyPartitioning(problem, run.result).empty(),
          run.pruned, run.workerExplored.size()};
}

TEST(Engine, EngineKnobsReachEverySearch) {
  // The knobs EngineOptions shares with the searches must reach every
  // search a strategy runs, whichever path builds its options: the
  // plain and typed `exhaustive`, `lns` (cancel and progress only: its
  // repairs are serial and always pruned) and the `ladder`'s rungs.
  const Network net = randgen::randomNetwork({.innerBlocks = 11, .seed = 3});
  struct Case {
    std::string_view strategy;
    bool typed;
    bool searchKnobs;  // threads and pruningBound apply
  };
  const Case cases[] = {{"exhaustive", false, true},
                        {"lns", false, false},
                        {"ladder", false, true},
                        {"exhaustive", true, true}};
  for (const Case& c : cases) {
    const std::string label =
        std::string(c.typed ? "typed " : "") + std::string(c.strategy);
    EngineOptions base;
    base.timeLimitSeconds = 0.0;  // unlimited: every count is exact
    base.threads = 1;
    // Keep the ladder's lns rung to one tiny round, so the pruned count
    // is the exact rung's alone.
    base.lnsRounds = c.strategy == "ladder" ? 1 : 4;
    if (c.strategy == "ladder") base.lnsPocket = 2;

    if (c.searchKnobs) {
      const KnobOutcome pruning = runWithKnobs(c.strategy, c.typed, net, base);
      EXPECT_GT(pruning.pruned, 0u) << label;
      EngineOptions off = base;
      off.pruningBound = false;
      EXPECT_EQ(runWithKnobs(c.strategy, c.typed, net, off).pruned, 0u)
          << label;

      EXPECT_EQ(pruning.workers, 0u) << label;  // threads = 1: serial
      EngineOptions two = base;
      two.threads = 2;
      EXPECT_EQ(runWithKnobs(c.strategy, c.typed, net, two).workers, 2u)
          << label;
    }

    std::atomic<std::uint64_t> progress{0};
    EngineOptions watched = base;
    watched.progressNodes = &progress;
    EXPECT_TRUE(runWithKnobs(c.strategy, c.typed, net, watched).verified)
        << label;
    EXPECT_GT(progress.load(), 0u) << label;

    std::atomic<bool> cancel{true};
    EngineOptions cancelled = base;
    cancelled.cancel = &cancel;
    const KnobOutcome stopped =
        runWithKnobs(c.strategy, c.typed, net, cancelled);
    EXPECT_TRUE(stopped.timedOut) << label;
    EXPECT_TRUE(stopped.verified) << label;
  }
}

}  // namespace
}  // namespace eblocks::partition
