// The partition engine: every partitioning strategy, selectable by name.
//
// The paper's tool picks between partitioners by name; so do
// `synthesize()`, the shell and eblocksd.  The engine is that lookup: two
// fixed tables of {name, description, function}, one for the plain
// problem and one for the multi-type one, and the engine-level options
// (time limit, threads, seeding) every strategy receives.
//
// Built-ins -- plain: aggregation, exhaustive, fm, greedy, ladder, lns,
// paredown; multi-type: exhaustive, fm, paredown.  The heuristic chain
// greedy -> fm -> lns is anytime (each stage refines the last, never
// worse); `initialIncumbent` feeds any of their solutions back into the
// exact searches as a warm start; `ladder` climbs the whole chain into
// the exact B&B under one deadline, tagging how far it got (ladder.h).
#ifndef EBLOCKS_PARTITION_ENGINE_H_
#define EBLOCKS_PARTITION_ENGINE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "partition/exhaustive.h"
#include "partition/lns.h"
#include "partition/multitype.h"
#include "partition/problem.h"
#include "partition/result.h"

namespace eblocks::partition {

/// Engine-level knobs forwarded to whichever strategy runs.  Strategies
/// ignore knobs that do not apply to them (the heuristics have no time
/// limit or thread pool, for example).
///
/// The SearchLimits (exhaustive.h) reach the exact searches unchanged,
/// except that the engine's wall-clock budget defaults to 60 s:
///   - timeLimitSeconds: budget of the anytime strategies (plain and
///     multi-type `exhaustive`, `lns`, the `ladder`'s deadline);
///   - threads, pruningBound: the exact searches' (and the ladder's
///     exact rung's);
///   - cancel, progressNodes: honoured by every anytime strategy; when
///     set, they stop at their next periodic check and return the best
///     solution so far with run.timedOut = true.  The fast constructive
///     strategies (paredown, aggregation, greedy, fm) finish in
///     milliseconds and ignore them.  The synthesis daemon (src/server)
///     flips `cancel` when a client cancels or disconnects and reads
///     `progressNodes` for its progress ticks.
struct EngineOptions : SearchLimits {
  EngineOptions() : SearchLimits{.timeLimitSeconds = 60.0} {}

  /// Require convex partitions (classical DAG covering; see validity.h).
  bool requireConvex = false;
  /// Exhaustive strategies seed their branch-and-bound with the PareDown
  /// solution by default -- a pure accelerator that never changes the
  /// optimum.  Disable to measure the unseeded search.
  bool seedFromPareDown = true;
  /// Warm start for the exhaustive strategies: a known-valid solution
  /// (commonly `fm`'s) that seeds the shared atomic incumbent.  A pure
  /// pruning accelerator like seedFromPareDown -- the optimum returned
  /// is bit-identical -- but a tighter incumbent cuts more subtrees; the
  /// exhaustive strategies seed with whichever of PareDown's solution
  /// and this one is cheaper.  Heuristic strategies ignore it.
  std::optional<Partitioning> initialIncumbent;
  /// Multi-type counterpart of initialIncumbent.
  std::optional<TypedPartitioning> initialTypedIncumbent;
  /// `lns` strategy: blocks per destroyed pocket (0 = auto; see lns.h).
  int lnsPocket = 0;
  /// `lns` strategy: destroy/repair rounds (0 = until the time limit).
  int lnsRounds = 0;
  /// `lns` strategy: node budget per repair search.
  std::uint64_t lnsRepairNodes = 200000;
  /// Seed for randomized strategies (`lns`'s destroy step).
  std::uint32_t rngSeed = 1;
};

/// A strategy for the plain (single block type) problem.
struct Strategy {
  /// Lookup key; lowercase, stable across releases.
  std::string_view name;
  /// One-line human description (the shell's `algorithms` listing).
  std::string_view description;
  PartitionRun (*run)(const PartitionProblem& problem,
                      const EngineOptions& options);
};

/// A strategy for the multi-type, cost-aware problem.
struct TypedStrategy {
  std::string_view name;
  std::string_view description;
  TypedPartitionRun (*run)(const Network& net, const ProgCostModel& model,
                           const EngineOptions& options);
};

/// The built-in strategies, sorted by name.  A name may appear in both
/// tables (the paredown/exhaustive/fm pairs do).
std::span<const Strategy> strategies();
std::span<const TypedStrategy> typedStrategies();

/// Lookup by name; nullptr when unknown.
const Strategy* findStrategy(std::string_view name);
const TypedStrategy* findTypedStrategy(std::string_view name);

/// Runs the named strategy.  Throws std::invalid_argument (listing the
/// known names) when unknown.
PartitionRun runPartitioner(std::string_view name,
                            const PartitionProblem& problem,
                            const EngineOptions& options = {});

/// Multi-type counterpart of runPartitioner().
TypedPartitionRun runTypedPartitioner(std::string_view name,
                                      const Network& net,
                                      const ProgCostModel& model,
                                      const EngineOptions& options = {});

/// The exact search that `options` asks for, under `timeLimitSeconds`
/// (the `exhaustive` strategy passes options.timeLimitSeconds, the
/// ladder what its deadline has left).  Warm-started with the cheapest
/// of `incumbent`, PareDown's solution (when options.seedFromPareDown)
/// and options.initialIncumbent, in that order; on equal cost the
/// earlier one is kept.  Seeding never changes a completed search's
/// answer (exhaustive.h).
ExhaustiveOptions exhaustiveOptionsFor(
    const PartitionProblem& problem, const EngineOptions& options,
    double timeLimitSeconds,
    std::optional<Partitioning> incumbent = std::nullopt);

/// The large-neighborhood search that `options` asks for, under
/// `timeLimitSeconds` (see exhaustiveOptionsFor).
LnsOptions lnsOptionsFor(const EngineOptions& options,
                         double timeLimitSeconds);

}  // namespace eblocks::partition

#endif  // EBLOCKS_PARTITION_ENGINE_H_
