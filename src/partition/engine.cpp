#include "partition/engine.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "partition/aggregation.h"
#include "partition/fm_refine.h"
#include "partition/greedy_seed.h"
#include "partition/ladder.h"
#include "partition/paredown.h"

namespace eblocks::partition {

namespace {

/// Replaces `seed` with `candidate` when the candidate is strictly
/// cheaper, so on equal cost the earlier candidate is kept.
template <typename Solution, typename Cost>
void keepCheaper(std::optional<Solution>& seed,
                 std::type_identity_t<std::optional<Solution>> candidate,
                 Cost cost) {
  if (candidate && (!seed || cost(*candidate) < cost(*seed)))
    seed = std::move(candidate);
}

PartitionRun runExhaustive(const PartitionProblem& problem,
                           const EngineOptions& options) {
  return exhaustiveSearch(
      problem, exhaustiveOptionsFor(problem, options, options.timeLimitSeconds));
}

PartitionRun runFm(const PartitionProblem& problem, const EngineOptions&) {
  const PartitionRun seed = greedySeed(problem);
  PartitionRun refined = fmRefine(problem, seed.result);
  refined.explored += seed.explored;
  refined.seconds += seed.seconds;
  return refined;
}

PartitionRun runLns(const PartitionProblem& problem,
                    const EngineOptions& options) {
  const PartitionRun seed = greedySeed(problem);
  const PartitionRun refined = fmRefine(problem, seed.result);
  PartitionRun out = lnsSearch(problem, refined.result,
                               lnsOptionsFor(options, options.timeLimitSeconds));
  out.explored += seed.explored + refined.explored;
  out.seconds += seed.seconds + refined.seconds;
  return out;
}

TypedPartitionRun runTypedExhaustive(const Network& net,
                                     const ProgCostModel& model,
                                     const EngineOptions& options) {
  MultiTypeExhaustiveOptions ex;
  static_cast<SearchLimits&>(ex) = options;
  const int n = static_cast<int>(net.innerBlocks().size());
  const auto cost = [&](const TypedPartitioning& p) {
    return p.totalCost(n, model);
  };
  if (options.seedFromPareDown)
    keepCheaper(ex.seed, multiTypePareDown(net, model).result, cost);
  keepCheaper(ex.seed, options.initialTypedIncumbent, cost);
  return multiTypeExhaustive(net, model, ex);
}

TypedPartitionRun runTypedFm(const Network& net, const ProgCostModel& model,
                             const EngineOptions&) {
  const TypedPartitionRun seed = multiTypePareDown(net, model);
  TypedPartitionRun refined = multiTypeFmRefine(net, model, seed.result);
  refined.explored += seed.explored;
  refined.seconds += seed.seconds;
  return refined;
}

constexpr Strategy kStrategies[] = {
    {"aggregation",
     "greedy neighbor aggregation (Section 4.2); fast, no look-ahead",
     [](const PartitionProblem& problem, const EngineOptions&) {
       return aggregation(problem);
     }},
    {"exhaustive",
     "optimal work-stealing branch-and-bound (Section 4.1), "
     "PareDown-seeded, admissible-bound pruned",
     runExhaustive},
    {"fm",
     "FM-style pass-based refinement of the greedy seed (gain "
     "buckets, rollback-to-best-prefix)",
     runFm},
    {"greedy",
     "constructive BFS cluster growth + residual PareDown; "
     "near-linear seed for fm/lns",
     [](const PartitionProblem& problem, const EngineOptions&) {
       return greedySeed(problem);
     }},
    {"ladder",
     "deadline degradation ladder greedy -> fm -> lns -> exact "
     "B&B; always feasible, run.degradedTier reports the rung",
     degradationLadder},
    {"lns",
     "anytime large-neighborhood search over fm's solution "
     "(pocket destroy + exact B&B repair)",
     runLns},
    {"paredown", "border-paring heuristic (Section 4.2); O(n^2), near-optimal",
     [](const PartitionProblem& problem, const EngineOptions&) {
       return pareDown(problem);
     }},
};

constexpr TypedStrategy kTypedStrategies[] = {
    {"exhaustive",
     "optimal work-stealing branch-and-bound over types and "
     "assignments, admissible-bound pruned",
     runTypedExhaustive},
    {"fm",
     "FM-style refinement of the cost-aware PareDown solution "
     "under the option cost model",
     runTypedFm},
    {"paredown", "cost-aware PareDown over multiple programmable block types",
     [](const Network& net, const ProgCostModel& model, const EngineOptions&) {
       return multiTypePareDown(net, model);
     }},
};

// The shell's `algorithms` listing prints the plain table in order.
static_assert(std::ranges::is_sorted(kStrategies, {}, &Strategy::name));
static_assert(std::ranges::is_sorted(kTypedStrategies, {},
                                     &TypedStrategy::name));

template <typename S>
const S* find(std::span<const S> table, std::string_view name) {
  const auto it = std::ranges::find(table, name, &S::name);
  return it == table.end() ? nullptr : &*it;
}

template <typename S>
std::string joinNames(std::span<const S> table) {
  std::string joined;
  for (const S& s : table) {
    if (!joined.empty()) joined += ", ";
    joined += s.name;
  }
  return joined;
}

}  // namespace

std::span<const Strategy> strategies() { return kStrategies; }
std::span<const TypedStrategy> typedStrategies() { return kTypedStrategies; }

const Strategy* findStrategy(std::string_view name) {
  return find(strategies(), name);
}

const TypedStrategy* findTypedStrategy(std::string_view name) {
  return find(typedStrategies(), name);
}

PartitionRun runPartitioner(std::string_view name,
                            const PartitionProblem& problem,
                            const EngineOptions& options) {
  const Strategy* strategy = findStrategy(name);
  if (!strategy)
    throw std::invalid_argument("unknown partitioning algorithm '" +
                                std::string(name) + "' (known: " +
                                joinNames(strategies()) + ")");
  return strategy->run(problem, options);
}

TypedPartitionRun runTypedPartitioner(std::string_view name,
                                      const Network& net,
                                      const ProgCostModel& model,
                                      const EngineOptions& options) {
  const TypedStrategy* strategy = findTypedStrategy(name);
  if (!strategy)
    throw std::invalid_argument("unknown multi-type partitioning algorithm '" +
                                std::string(name) + "' (known: " +
                                joinNames(typedStrategies()) + ")");
  return strategy->run(net, model, options);
}

ExhaustiveOptions exhaustiveOptionsFor(const PartitionProblem& problem,
                                       const EngineOptions& options,
                                       double timeLimitSeconds,
                                       std::optional<Partitioning> incumbent) {
  ExhaustiveOptions ex;
  static_cast<SearchLimits&>(ex) = options;
  ex.timeLimitSeconds = timeLimitSeconds;
  ex.requireConvex = options.requireConvex;
  // Every seed is a pure accelerator (trust-but-verify inside the
  // search), so taking the cheapest never changes the optimum.
  const int n = problem.innerCount();
  const auto cost = [n](const Partitioning& p) { return p.totalAfter(n); };
  ex.seed = std::move(incumbent);
  if (options.seedFromPareDown)
    keepCheaper(ex.seed, pareDown(problem).result, cost);
  keepCheaper(ex.seed, options.initialIncumbent, cost);
  return ex;
}

LnsOptions lnsOptionsFor(const EngineOptions& options,
                         double timeLimitSeconds) {
  LnsOptions lns;
  lns.timeLimitSeconds = timeLimitSeconds;
  lns.pocketSize = options.lnsPocket;
  lns.maxRounds = options.lnsRounds;
  lns.repairNodeBudget = options.lnsRepairNodes;
  lns.rngSeed = options.rngSeed;
  lns.cancel = options.cancel;
  lns.progressNodes = options.progressNodes;
  return lns;
}

}  // namespace eblocks::partition
