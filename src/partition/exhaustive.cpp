#include "partition/exhaustive.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "partition/bnb.h"
#include "partition/validity.h"
#include "partition/verify.h"

namespace eblocks::partition {

namespace {

using detail::Bins;
using detail::Cut;

/// Immutable per-search configuration of the block-count policy.
struct CountContext {
  CountContext(const PartitionProblem& p, const ExhaustiveOptions& o)
      : problem(p),
        options(o),
        spec(p.spec()),
        edgesMode(p.spec().mode == CountingMode::kEdges) {
    // Pre-compute each inner block's irreducible connection counts
    // (edges to non-inner neighbors can never be internalized), indexed
    // by the block's dense inner rank -- the search always knows the
    // rank (its depth), so no per-block-id table is needed.
    for (const BlockId b : p.innerBlocks())
      fixed.push_back(
          irreducibleBlockIo(p.network(), b, CountingMode::kEdges));
    // The admissible-bound layer's unbinnable suffix floor: a block whose
    // own mode-aware irreducible I/O exceeds the budget is coverable by
    // no feasible bin, so every valid completion leaves it uncovered at
    // cost +1.
    if (o.pruningBound)
      suffixUnbinnable = detail::suffixUnbinnable(
          p.network(), p.innerBlocks(), spec.mode,
          [&](const IoCount& own) { return !fits(own, spec); });
  }

  const PartitionProblem& problem;
  const ExhaustiveOptions& options;
  const ProgBlockSpec& spec;
  bool edgesMode;
  // Irreducible in/out connection counts per *inner rank* (not block id).
  std::vector<IoCount> fixed;
  std::vector<int> suffixUnbinnable;  // empty when pruningBound is off
  /// Strict cost bound from the initial incumbent: nodes at or above it
  /// prune.  "Replace nothing" baseline -> n; a cheaper heuristic seed
  /// -> seedCost + 1 (equal-cost solutions must stay reachable so the
  /// returned optimum is bit-identical to the unseeded search's).
  int initialBound = 0;
};

std::uint64_t packKey(int cost, std::uint32_t ordinal) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cost))
          << 32) |
         ordinal;
}

/// The block-count cost policy: cost = open bins + uncovered blocks.
///
/// The shared incumbent is a packed (cost, DFS-ordinal) pair: ordinal 0
/// is the initial seed/baseline incumbent.  A node with ordinal o prunes
/// iff ((costSoFar << 32) | o) >= liveKey, which is exactly the
/// lexicographic rule "worse cost, or equal cost but not earlier in
/// serial DFS order".  This keeps the subtree containing the serial
/// winner alive while still pruning equal-cost subtrees behind it, so
/// the parallel result is bit-identical to the serial one.  Each worker
/// accumulates its best solution under the same key; the reduction takes
/// the smallest key over all workers.
class CountPolicy {
 public:
  CountPolicy(const CountContext& ctx, std::atomic<std::uint64_t>& liveKey)
      : ctx_(ctx),
        liveKey_(liveKey),
        bestKey_(packKey(ctx.initialBound, 0)),
        binFixed_(ctx.fixed.size() + 1) {}

  void startTask(std::size_t liveBins) {
    localBest_ = ctx_.initialBound;
    std::fill_n(binFixed_.begin(), liveBins, IoCount{});
  }

  // Per-bin irreducible connection counts (edges from/to non-inner
  // blocks), for the edges-mode child filter below.
  void added(std::size_t j, std::size_t i) {
    binFixed_[j].inputs += ctx_.fixed[i].inputs;
    binFixed_[j].outputs += ctx_.fixed[i].outputs;
  }
  void removed(std::size_t j, std::size_t i) {
    binFixed_[j].outputs -= ctx_.fixed[i].outputs;
    binFixed_[j].inputs -= ctx_.fixed[i].inputs;
  }

  /// Edges mode: a bin whose connections to non-inner blocks would
  /// overflow the budget can never become valid, so the child is skipped.
  bool joins(std::size_t j, std::size_t i) const {
    return !ctx_.edgesMode ||
           fits({binFixed_[j].inputs + ctx_.fixed[i].inputs,
                 binFixed_[j].outputs + ctx_.fixed[i].outputs},
                ctx_.spec);
  }
  bool opens(std::size_t i) const {
    return !ctx_.edgesMode || fits(ctx_.fixed[i], ctx_.spec);
  }

  Cut bound(Bins bins, std::size_t idx, int uncovered,
            std::uint32_t lo) const {
    // Lower bound on the final cost: every open bin stays a bin, every
    // uncovered block stays uncovered.
    const int costSoFar = static_cast<int>(bins.size()) + uncovered;
    if (prunes(costSoFar, lo)) return Cut::kCut;
    if (ctx_.options.pruningBound) {
      // The admissible layer: remaining unbinnable blocks each add +1 to
      // any valid completion, and a bin whose irreducible I/O already
      // overflows admits no valid completion at all (every completion
      // keeps that I/O crossing).
      const int floor = ctx_.suffixUnbinnable[idx];
      if (floor > 0 && prunes(costSoFar + floor, lo)) return Cut::kPruned;
      for (const PortCounter& bin : bins)
        if (!fits(bin.fixedIo(), ctx_.spec)) return Cut::kPruned;
    }
    return Cut::kOpen;
  }

  void leaf(Bins bins, int uncovered, std::uint32_t lo) {
    const int cost = static_cast<int>(bins.size()) + uncovered;
    if (cost >= localBest_) return;
    for (const PortCounter& bin : bins) {
      if (bin.memberCount() < 2)
        return;  // single-node partitions are invalid
      if (!fits(bin.io(), ctx_.spec)) return;
      if (ctx_.options.requireConvex &&
          !isConvex(ctx_.problem.network(), bin.members()))
        return;
    }
    // Tie handling: within a task only strict cost improvements are
    // recorded, so the first optimum found in DFS order is kept; across
    // tasks the packed (cost, ordinal) key decides.
    localBest_ = cost;
    const std::uint64_t key = packKey(cost, lo);
    if (key < bestKey_) {
      bestKey_ = key;
      best_.partitions.clear();
      for (const PortCounter& bin : bins)
        best_.partitions.push_back(bin.members());
    }
    // Publish to the shared incumbent (monotone lexicographic minimum).
    detail::lowerTo(liveKey_, key);
  }

  std::uint64_t bestKey() const { return bestKey_; }
  Partitioning takeBest() { return std::move(best_); }

 private:
  bool prunes(int costSoFar, std::uint32_t lo) const {
    if (costSoFar >= localBest_) return true;
    return packKey(costSoFar, lo) >=
           liveKey_.load(std::memory_order_relaxed);
  }

  const CountContext& ctx_;
  std::atomic<std::uint64_t>& liveKey_;
  int localBest_ = 0;
  std::uint64_t bestKey_;
  Partitioning best_;
  std::vector<IoCount> binFixed_;  // per live bin
};

}  // namespace

int resolveSearchThreads(int threads) {
  if (threads > 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

PartitionRun exhaustiveSearch(const PartitionProblem& problem,
                              const ExhaustiveOptions& options) {
  PartitionRun out;
  out.algorithm = "exhaustive";
  const auto start = detail::Clock::now();

  CountContext ctx(problem, options);
  const int n = problem.innerCount();

  // Initial incumbent: "no partitions" is always feasible with cost n.
  // A heuristic seed that beats it is installed at ordinal UINT32_MAX --
  // lexicographically *behind* every real DFS node of equal cost -- so
  // the search still rediscovers and returns the canonical (first in
  // serial DFS order) optimum whenever the seed merely ties it, and the
  // result stays bit-identical to the unseeded search's.  The strict
  // bound is seedCost + 1 for the same reason: equal-cost subtrees ahead
  // of the incumbent's ordinal must stay alive.  Unseeded searches keep
  // the historical (n, ordinal 0, bound n) baseline, so their node
  // counts are unchanged.
  std::uint64_t bestKey = packKey(n, 0);
  Partitioning best;
  ctx.initialBound = n;
  // Trust but verify: only use a seed that is actually feasible -- every
  // partition valid on its own AND all pairwise disjoint (overlap would
  // understate totalAfter and over-tighten the bound).
  if (options.seed &&
      verifyPartitioning(problem, *options.seed,
                         {.requireConvex = options.requireConvex})
          .empty()) {
    const int seedCost = options.seed->totalAfter(n);
    if (seedCost < n) {
      bestKey = packKey(seedCost, std::numeric_limits<std::uint32_t>::max());
      best = *options.seed;
      ctx.initialBound = seedCost + 1;
    }
  }

  std::atomic<std::uint64_t> liveKey{bestKey};
  const detail::SearchSpace space(problem.graph(), problem.spec().mode,
                                  options.pruningBound);
  detail::StopControl control(options, options.nodeBudget);
  auto workers = detail::runSearch<CountPolicy>(
      space, control, options, [&] { return CountPolicy(ctx, liveKey); });

  // Deterministic reduction: every worker accumulated its best solution
  // as a packed (cost, DFS-ordinal) key; the smallest key over all
  // workers -- against the initial incumbent -- reproduces the serial
  // result bit for bit.
  for (const auto& worker : workers) {
    if (worker->policy().bestKey() < bestKey) {
      bestKey = worker->policy().bestKey();
      best = worker->policy().takeBest();
    }
  }
  out.result = std::move(best);
  detail::recordEffort(out, workers, control, start);
  return out;
}

}  // namespace eblocks::partition
