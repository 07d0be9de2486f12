// The PareDown decomposition heuristic (Section 4.2, Figure 4).
//
// PareDown starts with *all* inner blocks as one candidate partition and
// pares it down: while the candidate does not fit in a programmable block,
// it removes the border block with the least rank (the net increase or
// decrease of the candidate's combined indegree and outdegree caused by
// the removal).  Rank ties are broken by, in order: greatest indegree,
// greatest outdegree, highest level.  When a candidate fits it becomes a
// partition (unless it is a single block, which brings no reduction), and
// the algorithm repeats on the remaining blocks.  Total work is
// n*(n+1)/2 fit checks in the worst case: O(n^2).
#ifndef EBLOCKS_PARTITION_PAREDOWN_H_
#define EBLOCKS_PARTITION_PAREDOWN_H_

#include <functional>
#include <optional>
#include <vector>

#include "partition/port_counter.h"
#include "partition/problem.h"
#include "partition/result.h"

namespace eblocks::partition {

/// One decision point of the algorithm, for tracing/visualization (the
/// Figure-5 walkthrough test consumes this).
struct PareDownStep {
  BitSet candidate;             ///< candidate partition before the decision
  IoCount io;                   ///< port usage of the candidate
  bool fits = false;            ///< candidate fits the programmable block
  std::vector<BlockId> border;  ///< border blocks considered
  std::vector<int> ranks;       ///< rank of each border block (same order)
  BlockId removed = kNoBlock;   ///< block removed (kNoBlock if accepted)
};

struct PareDownOptions {
  /// Observer invoked at every decision point; keep cheap.
  std::function<void(const PareDownStep&)> trace;

  /// Figure 4's literal pseudocode *returns* when a candidate pares down to
  /// zero blocks, abandoning every block not yet partitioned.  That reading
  /// cannot reproduce the paper's own results (Table 2's smooth averages,
  /// the 465-node run): one unpartitionable block -- e.g. a three-input
  /// gate whose lone self does not fit a 2x2 block -- would zero out whole
  /// designs.  By default we drop just that block and continue (still
  /// O(n^2): every round retires at least one block); set this flag to get
  /// the literal behavior.
  bool strictFigure4 = false;

  /// Pare down only this subset of the problem's inner blocks (the
  /// default is all of them).  greedy_seed.cpp uses this to run PareDown
  /// on the residual its cluster growth left uncovered, without paying
  /// for -- or disturbing -- the blocks already assigned.  Must be a
  /// subset of `problem.innerSet()` over the same universe.
  std::optional<BitSet> restrictTo;
};

/// Chooses the border block to remove: least rank, then greatest
/// indegree, then greatest outdegree, then highest level (paper Section
/// 4.2), then lowest id for full determinism.  `ranks[i]` is the removal
/// rank of `border[i]`; `border` ascends by id.
BlockId chooseRemoval(const Network& net, const std::vector<int>& levels,
                      const std::vector<BlockId>& border,
                      const std::vector<int>& ranks);

namespace detail {

/// The paring loop of pareDown() and multiTypePareDown(): the candidate
/// (every block of `blocks` not yet retired) loses its chooseRemoval()
/// block until `decide(candidate, step)` accepts it -- recording a
/// partition is decide's business -- and is then retired.
/// `observe(step)` sees every decision.  Returns the decision count.
template <typename Decide, typename Observe>
std::uint64_t pareDownRounds(const Network& net, const CompactGraph& graph,
                             CountingMode mode,
                             const std::vector<int>& levels, BitSet blocks,
                             bool strictFigure4, Decide&& decide,
                             Observe&& observe) {
  std::uint64_t decisions = 0;
  // The candidate's port usage, border set, and removal ranks are all
  // maintained incrementally: each paring round removes one block, so the
  // counter update is O(degree) instead of a full countIo() /
  // borderBlocks() / removalRank() rescan of the member set per decision.
  PortCounter candidate(graph, mode, BorderTracking::kOn);
  PareDownStep step;  // reused across rounds; the buffers keep capacity
  while (blocks.any()) {
    candidate.assign(blocks);
    bool accepted = false;
    BlockId lastRemoved = kNoBlock;
    while (candidate.memberCount() > 0) {
      ++decisions;
      step.border.clear();
      step.ranks.clear();
      step.removed = kNoBlock;  // decide() sets step.candidate/io/fits
      if (decide(candidate, step)) {
        blocks.andNot(candidate.members());
        accepted = true;
        observe(step);
        break;
      }
      candidate.border().forEach([&](std::size_t b) {
        step.border.push_back(static_cast<BlockId>(b));
        step.ranks.push_back(candidate.rank(static_cast<BlockId>(b)));
      });
      if (step.border.empty()) {
        // Cannot happen on DAGs (a maximal-level member is always border),
        // but guard against pathological inputs: abandon this candidate.
        blocks.andNot(candidate.members());
        observe(step);
        break;
      }
      step.removed = chooseRemoval(net, levels, step.border, step.ranks);
      lastRemoved = step.removed;
      candidate.remove(step.removed);
      observe(step);
    }
    if (!accepted && candidate.memberCount() == 0) {
      // The candidate pared away entirely without ever fitting ("partition
      // contains zero blocks").
      if (strictFigure4) break;  // Figure 4 literally returns here
      // Robust default: the last surviving block is unpartitionable on its
      // own; retire it and keep decomposing the rest.
      blocks.reset(lastRemoved);
    }
  }
  return decisions;
}

}  // namespace detail

/// Runs PareDown.  Deterministic: ties beyond the paper's three criteria
/// resolve to the lowest block id.
PartitionRun pareDown(const PartitionProblem& problem,
                      const PareDownOptions& options = {});

}  // namespace eblocks::partition

#endif  // EBLOCKS_PARTITION_PAREDOWN_H_
