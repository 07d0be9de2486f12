// Multi-type, cost-aware partitioning -- the extension Section 6 of the
// paper names as future work: "extend the PareDown heuristic to consider
// multiple types of programmable blocks (having different number of inputs
// and outputs) and varying compute block costs".
//
// The objective generalizes from block count to cost: pre-defined blocks
// have a unit-ish cost, each programmable block option has its own cost
// ("a programmable compute block has slightly higher cost due to the
// programmability hardware, but less cost than two pre-defined compute
// blocks", Section 4), and the partitioner minimizes
//     sum(option cost of each partition) + preDefinedCost * uncovered.
// A partition is only worth forming when its cheapest fitting option costs
// less than the pre-defined blocks it replaces -- the |P| >= 2 rule of the
// base problem falls out as the special case cost(prog) in (1, 2).
#ifndef EBLOCKS_PARTITION_MULTITYPE_H_
#define EBLOCKS_PARTITION_MULTITYPE_H_

#include <optional>
#include <string>
#include <vector>

#include "partition/exhaustive.h"
#include "partition/problem.h"
#include "partition/result.h"

namespace eblocks::partition {

/// One programmable block model the synthesis may instantiate.
struct ProgBlockOption {
  std::string name;   ///< e.g. "prog_2x2"
  int inputs = 2;
  int outputs = 2;
  double cost = 1.5;  ///< relative to ProgCostModel::preDefinedBlockCost
};

/// The cost landscape of the target platform.
struct ProgCostModel {
  double preDefinedBlockCost = 1.0;
  std::vector<ProgBlockOption> options;
  /// Counting mode shared by every option.
  CountingMode mode = CountingMode::kEdges;

  /// The paper's experimental setup: a single 2x2 programmable block whose
  /// cost sits between one and two pre-defined blocks.
  static ProgCostModel paperDefault();
};

/// A partitioning with a chosen block option per partition.
struct TypedPartitioning {
  std::vector<BitSet> partitions;
  std::vector<int> optionIndex;  ///< into ProgCostModel::options, per partition

  int coveredBlocks() const;
  /// Total network cost after replacement.
  double totalCost(int originalInnerCount, const ProgCostModel& model) const;
};

struct TypedPartitionRun {
  std::string algorithm;
  TypedPartitioning result;
  double seconds = 0.0;
  bool optimal = false;
  bool timedOut = false;
  std::uint64_t explored = 0;
  /// Subtrees cut by the admissible lower-bound layer beyond the
  /// baseline cost bound; see PartitionRun::pruned.
  std::uint64_t pruned = 0;
  /// Per-worker explored counts (parallel searches only); see
  /// PartitionRun::workerExplored.
  std::vector<std::uint64_t> workerExplored;
  /// Per-worker counterpart of `pruned` (parallel to workerExplored).
  std::vector<std::uint64_t> workerPruned;
};

/// Index of the cheapest option that fits the subgraph, or nullopt.
std::optional<int> cheapestFittingOption(const Network& net,
                                         const BitSet& members,
                                         const ProgCostModel& model);

/// Same, for a port usage already known (e.g. from an incremental
/// PortCounter) -- O(#options), no rescan of the member set.
std::optional<int> cheapestFittingOption(const IoCount& io,
                                         const ProgCostModel& model);

/// PareDown generalized to the cost model.  Pares while *no* option fits;
/// accepts a candidate when its cheapest fitting option is cheaper than
/// the pre-defined blocks it replaces, otherwise keeps paring.
TypedPartitionRun multiTypePareDown(const Network& net,
                                    const ProgCostModel& model);

/// The search limits of exhaustive.h; there `pruningBound` is
/// generalized to the cost model: each bin's future option cost is
/// floored by the cheapest option fitting its *irreducible* crossing I/O
/// (a bin fitting no option kills the subtree), and remaining blocks no
/// option can ever host each add preDefinedBlockCost.  Bit-identical
/// results on or off; see docs/partitioning.md.
struct MultiTypeExhaustiveOptions : SearchLimits {
  std::optional<TypedPartitioning> seed;
};

/// Exhaustive branch-and-bound over assignments and option choices: the
/// kernel of exhaustiveSearch() (bnb.h) under the option cost model.
TypedPartitionRun multiTypeExhaustive(
    const Network& net, const ProgCostModel& model,
    const MultiTypeExhaustiveOptions& options = {});

/// Constraint check; empty result means valid.
std::vector<std::string> verifyTypedPartitioning(
    const Network& net, const ProgCostModel& model,
    const TypedPartitioning& typed);

}  // namespace eblocks::partition

#endif  // EBLOCKS_PARTITION_MULTITYPE_H_
