// The branch-and-bound kernel behind both exact searches: the plain
// block-count search (exhaustive.cpp, Section 4.1) and the multi-type
// option-cost search (multitype.cpp, Section 6).  They are one search
// under two cost models, so the tree walk, the parallel machinery and the
// stop control live here once; each search supplies a compile-time cost
// Policy.
//
// The tree: inner block `idx` (in inner-rank order) either joins one of
// the open bins, opens a new bin (all empty bins are interchangeable, so
// a single branch suffices -- the paper's symmetry pruning), or stays
// uncovered.  Children are visited in exactly that order.
//
// A Policy is a per-worker object, called inline (nothing virtual):
// startTask(liveBins) resets it for a task; added/removed(j, i) track
// rank i joining/leaving bin j; joins(j, i)/opens(i) filter children;
// bound(bins, idx, uncovered, lo) returns the node's Cut; leaf(bins,
// uncovered, lo) prices a complete assignment.  `bins` are the live
// bins' PortCounters and `lo` the node's DFS ordinal (see Task).  The
// Worker owns the bins, the frozen set (with the per-block owner array
// that routes its updates), the task prefix and the offload; the Policy
// owns costs, incumbents and its best solution.
#ifndef EBLOCKS_PARTITION_BNB_H_
#define EBLOCKS_PARTITION_BNB_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/deadline.h"
#include "partition/exhaustive.h"
#include "partition/port_counter.h"
#include "partition/validity.h"
#include "partition/work_steal.h"

namespace eblocks::partition::detail {

using Clock = std::chrono::steady_clock;

/// The live bins a Policy sees: the first binCount PortCounters.
using Bins = std::span<const PortCounter>;

/// A node's bound verdict.  kCut is the baseline cost bound (not
/// counted); kPruned is the admissible layer beyond it (counted in
/// PartitionRun::pruned).
enum class Cut { kOpen, kCut, kPruned };

constexpr std::int16_t kUncovered = -1;

/// Monotone atomic minimum: the shared incumbents only ever improve.
template <typename T>
void lowerTo(std::atomic<T>& live, T value) {
  T cur = live.load(std::memory_order_relaxed);
  while (value < cur && !live.compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

/// Per-rank count of the blocks at rank >= i that no bin can ever host
/// (`unbinnable(irreducible I/O)` holds): every valid completion leaves
/// them uncovered.  The admissible bound's static suffix floor.
template <typename Unbinnable>
std::vector<int> suffixUnbinnable(const Network& net,
                                  const std::vector<BlockId>& inner,
                                  CountingMode mode, Unbinnable unbinnable) {
  std::vector<int> suffix(inner.size() + 1, 0);
  for (std::size_t i = inner.size(); i-- > 0;)
    suffix[i] = suffix[i + 1] +
                (unbinnable(irreducibleBlockIo(net, inner[i], mode)) ? 1 : 0);
  return suffix;
}

/// Immutable per-search shape every worker walks.
struct SearchSpace {
  SearchSpace(const CompactGraph& g, CountingMode m, bool prune)
      : graph(g), mode(m), inner(g.innerBlocks()), pruning(prune) {
    // The frozen-set root of the admissible layer: non-inner blocks can
    // never join any bin.
    if (pruning) baseFrozen = graph.nonInnerSet();
  }

  const CompactGraph& graph;
  CountingMode mode;
  const std::vector<BlockId>& inner;  // ascending ids; index = rank
  bool pruning;
  BitSet baseFrozen;  // empty when the admissible layer is off
};

/// The shared stop control, built from the caller's SearchLimits:
/// wall-clock deadline (deadlineAfter: a limit that is not positive or
/// too large to represent means none), cooperative cancel
/// (caller-owned, only read here), live progress (caller-owned and
/// zeroed; workers add 4096 per granule) and the node budget (0: none),
/// all polled at one 4096-node cadence per worker.
struct StopControl {
  explicit StopControl(const SearchLimits& limits, std::uint64_t budget = 0)
      : deadline(deadlineAfter(Clock::now(), limits.timeLimitSeconds)),
        cancel(limits.cancel),
        progressNodes(limits.progressNodes),
        nodeBudget(budget) {}

  const Clock::time_point deadline;
  const std::atomic<bool>* const cancel;
  std::atomic<std::uint64_t>* const progressNodes;
  const std::uint64_t nodeBudget;

  std::atomic<bool> timedOut{false};
  /// Nodes charged against nodeBudget, in 4096-node granules (the
  /// counter lags the workers' explored counts by at most one granule
  /// per worker).
  std::atomic<std::uint64_t> budgetUsed{0};

  /// One granule's check; true = stop (and every worker stops too).
  bool poll() {
    if (progressNodes)
      progressNodes->fetch_add(0x1000, std::memory_order_relaxed);
    if (timedOut.load(std::memory_order_relaxed)) return true;
    if (Clock::now() > deadline ||
        (cancel && cancel->load(std::memory_order_relaxed)) ||
        (nodeBudget != 0 &&
         budgetUsed.fetch_add(0x1000, std::memory_order_relaxed) + 0x1000 >=
             nodeBudget)) {
      timedOut.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }
};

/// One unit of parallel work: the assignment of the first `choice.size()`
/// inner blocks (kUncovered, a bin index, or the number of bins open so
/// far meaning "open a new bin"), plus the half-open DFS-ordinal range
/// [ordLo, ordHi) owned by the subtree.
///
/// Ordinals realize the deterministic tie-break: the serial DFS visits
/// subtrees in ordinal order, every leaf reached inside a task carries an
/// ordinal from the task's range, and ranges of distinct tasks are
/// disjoint -- so "earlier in serial DFS order" is exactly "smaller
/// ordinal", no matter which worker runs the subtree or when.  When a
/// range becomes too narrow to subdivide, the whole remaining subtree
/// shares ordLo and runs inline on one worker, whose in-order DFS settles
/// the remaining ties.
struct Task {
  std::vector<std::int16_t> choice;
  std::uint32_t ordLo = 1;
  std::uint32_t ordHi = std::numeric_limits<std::uint32_t>::max();
};

/// Depth-first branch-and-bound below one task's prefix.  One instance
/// per worker thread; reused across tasks.
template <typename Policy>
class Worker {
 public:
  Worker(const SearchSpace& space, StopControl& control,
         WorkStealingPool<Task>* pool, int workerId, Policy policy)
      : space_(space),
        control_(control),
        pool_(pool),
        workerId_(workerId),
        pruning_(space.pruning),
        frozen_(space.baseFrozen),
        policy_(std::move(policy)) {
    bins_.reserve(space.inner.size() + 1);
    choice_.reserve(space.inner.size());
    if (pruning_) owner_.assign(space.graph.blockCount(), kUncovered);
  }
  // The bins point at frozen_, so a Worker never moves.
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Runs `task`, then keeps its frame for future splits (takeFrame).
  void runTask(Task&& task) {
    resetBins();
    choice_ = task.choice;  // copy into retained capacity
    int uncovered = 0;
    for (std::size_t i = 0; i < task.choice.size(); ++i) {
      const std::int16_t c = task.choice[i];
      const BlockId b = space_.inner[i];
      if (c == kUncovered) {
        ++uncovered;
        if (pruning_) freezeAssigned(b, kUncovered);
        continue;
      }
      if (static_cast<std::size_t>(c) == binCount_) openBin();
      join(static_cast<std::size_t>(c), i, b);
    }
    dfs(task.choice.size(), uncovered, task.ordLo, task.ordHi);
    frames_.push_back(std::move(task));
  }

  std::uint64_t explored() const { return explored_; }
  std::uint64_t pruned() const { return pruned_; }
  Policy& policy() { return policy_; }

 private:
  /// A recycled task frame for the next push: its choice vector keeps
  /// the capacity it grew while circulating through the pool, so
  /// steady-state splits copy into existing storage instead of
  /// allocating.  Executed tasks come back as frames (runTask).
  Task takeFrame() {
    if (frames_.empty()) return {};
    Task t = std::move(frames_.back());
    frames_.pop_back();
    return t;
  }

  /// Empties the previous task's state.  Its DFS has unwound back to
  /// its prefix (choice_), so only the prefix blocks can own a bin:
  /// clearing their owner entries is O(prefix), not O(blocks).
  void resetBins() {
    for (std::size_t j = 0; j < binCount_; ++j) bins_[j].clear();
    policy_.startTask(binCount_);
    binCount_ = 0;
    if (pruning_) {
      frozen_ = space_.baseFrozen;
      for (std::size_t i = 0; i < choice_.size(); ++i)
        owner_[space_.inner[i]] = kUncovered;
    }
  }

  void openBin() {
    if (binCount_ == bins_.size())
      bins_.emplace_back(space_.graph, space_.mode, BorderTracking::kOff,
                         pruning_ ? &frozen_ : nullptr);
    ++binCount_;
  }

  /// Puts block `b`, at inner rank `i` (the search depth), into open bin
  /// `j`; leave() is the exact inverse.
  void join(std::size_t j, std::size_t i, BlockId b) {
    bins_[j].add(b);
    policy_.added(j, i);
    if (pruning_) {
      owner_[b] = static_cast<std::int16_t>(j);
      freezeAssigned(b, owner_[b]);
    }
  }

  void leave(std::size_t j, std::size_t i, BlockId b) {
    if (pruning_) {
      unfreezeAssigned(b, owner_[b]);
      owner_[b] = kUncovered;
    }
    policy_.removed(j, i);
    bins_[j].remove(b);
  }

  /// Marks just-assigned block `b` frozen (its fate is fixed for the
  /// whole subtree) and tells the *other* open bins, whose crossing
  /// edges to `b` just turned irreducible.  `own` is the bin `b` joined
  /// (kUncovered when left uncovered).
  void freezeAssigned(BlockId b, std::int16_t own) {
    frozen_.set(b);
    routeArcs<true>(b, own);
  }

  void unfreezeAssigned(BlockId b, std::int16_t own) {
    routeArcs<false>(b, own);
    frozen_.reset(b);
  }

  /// One walk over `b`'s arcs hands each arc to the bin owning its
  /// neighbor as a per-arc (un)freeze step, so a move costs O(degree of
  /// b) however many bins are open.  Arcs to unassigned, uncovered or
  /// non-inner blocks, and to `own` (internal edges), go nowhere.
  template <bool kFreeze>
  void routeArcs(BlockId b, std::int16_t own) {
    for (const CompactArc& a : space_.graph.outArcs(b)) {
      const std::int16_t o = owner_[a.neighbor];  // b -> member: input
      if (o < 0 || o == own) continue;
      PortCounter& bin = bins_[static_cast<std::size_t>(o)];
      if constexpr (kFreeze)
        bin.freezeInput(a.endpoint);
      else
        bin.unfreezeInput(a.endpoint);
    }
    for (const CompactArc& a : space_.graph.inArcs(b)) {
      const std::int16_t o = owner_[a.neighbor];  // member -> b: output
      if (o < 0 || o == own) continue;
      PortCounter& bin = bins_[static_cast<std::size_t>(o)];
      if constexpr (kFreeze)
        bin.freezeOutput(a.endpoint);
      else
        bin.unfreezeOutput(a.endpoint);
    }
  }

  bool stopped() {
    if (!aborted_ && (explored_ & 0xfff) == 0) aborted_ = control_.poll();
    return aborted_;
  }

  void dfs(std::size_t idx, int uncovered, std::uint32_t lo,
           std::uint32_t hi) {
    ++explored_;
    if (stopped()) return;
    const Bins live(bins_.data(), binCount_);
    const Cut cut = policy_.bound(live, idx, uncovered, lo);
    if (cut != Cut::kOpen) {
      if (cut == Cut::kPruned) ++pruned_;
      return;
    }
    if (idx == space_.inner.size()) {
      policy_.leaf(live, uncovered, lo);
      return;
    }
    const BlockId b = space_.inner[idx];
    const std::size_t openBins = binCount_;
    const bool newBin = policy_.opens(idx);
    // Ordinal ranges are split only where a child could be offloaded
    // (parallel pool present, subtree above the leaf margin): everywhere
    // else -- the serial search, and the leaf region that dominates node
    // counts -- children inherit [lo, hi) wholesale and the within-task
    // DFS order settles ties, sparing the hot path the child-count scan
    // and the split arithmetic.
    std::optional<RangeSplitter> ranges;
    if (pool_ != nullptr && space_.inner.size() - idx > kLeafMargin) {
      std::size_t k = 1;  // "leave uncovered" is always a child
      for (std::size_t j = 0; j < openBins; ++j)
        if (policy_.joins(j, idx)) ++k;
      if (newBin) ++k;
      ranges.emplace(lo, hi, k);
    }
    // A child subtree is offloaded to the pool instead of recursed into
    // when peers are starved -- except the first child, which this worker
    // always walks itself (guaranteed progress, and the earliest ordinals
    // stay on the worker that already holds the bins).
    const bool offloadable = ranges && ranges->offloadable();
    bool firstChild = true;
    // Visits child `c` with its ordinal slice: either inline (apply the
    // choice, recurse, undo) or as a pushed task built in a recycled
    // frame (no allocation once frame capacities have warmed up).
    const auto visit = [&](std::int16_t c, int childUncovered, auto&& apply,
                           auto&& undo) {
      std::uint32_t clo = lo, chi = hi;
      if (ranges) std::tie(clo, chi) = ranges->next();
      const bool inlineChild = firstChild;
      firstChild = false;
      if (!inlineChild && offloadable && pool_->hungry() > 0 &&
          pool_->queueDepth(workerId_) < kMaxLocalBacklog) {
        Task t = takeFrame();
        t.choice = choice_;
        t.choice.push_back(c);
        t.ordLo = clo;
        t.ordHi = chi;
        pool_->push(workerId_, std::move(t));
        return;
      }
      apply();
      choice_.push_back(c);
      dfs(idx + 1, childUncovered, clo, chi);
      choice_.pop_back();
      undo();
    };
    for (std::size_t j = 0; j < openBins; ++j) {
      if (!policy_.joins(j, idx)) continue;
      visit(static_cast<std::int16_t>(j), uncovered,
            [&] { join(j, idx, b); }, [&] { leave(j, idx, b); });
    }
    if (newBin) {
      visit(static_cast<std::int16_t>(openBins), uncovered,
            [&] {
              openBin();
              join(openBins, idx, b);
            },
            [&] {
              leave(openBins, idx, b);
              --binCount_;
            });
    }
    visit(kUncovered, uncovered + 1,
          [&] {
            if (pruning_) freezeAssigned(b, kUncovered);
          },
          [&] {
            if (pruning_) unfreezeAssigned(b, kUncovered);
          });
  }

  const SearchSpace& space_;
  StopControl& control_;
  WorkStealingPool<Task>* pool_;  // null = serial, no splitting
  int workerId_ = 0;
  bool pruning_ = false;
  BitSet frozen_;  // non-inner + assigned prefix; bins point at this
  // Per block: the live bin holding it, else kUncovered (unassigned,
  // uncovered or non-inner).  Kept only when pruning_; routes
  // freezeAssigned's per-arc notifications.
  std::vector<std::int16_t> owner_;
  std::vector<PortCounter> bins_;  // pool; first binCount_ entries live
  std::size_t binCount_ = 0;
  std::vector<std::int16_t> choice_;  // live assignment of blocks [0, idx)
  std::vector<Task> frames_;  // recycled task frames (see takeFrame)
  Policy policy_;
  std::uint64_t explored_ = 0;
  std::uint64_t pruned_ = 0;
  bool aborted_ = false;
};

/// Runs the search on `limits.threads` workers (resolveSearchThreads)
/// and returns them, joined, for the caller's reduction over their
/// policies.  The pool is seeded with the whole tree as one task owning
/// the full ordinal range; workers split subtrees on demand when peers
/// are starved and steal half a victim's deque when their own is dry.
/// `makePolicy()` builds each worker's policy.
template <typename Policy, typename MakePolicy>
auto runSearch(const SearchSpace& space, StopControl& control,
               const SearchLimits& limits, MakePolicy&& makePolicy) {
  const int workerCount =
      space.inner.size() >= 2 ? resolveSearchThreads(limits.threads) : 1;
  WorkStealingPool<Task> pool(workerCount);
  pool.push(0, Task{});
  std::vector<std::unique_ptr<Worker<Policy>>> workers(
      static_cast<std::size_t>(workerCount));
  const auto work = [&](int w) {
    auto worker = std::make_unique<Worker<Policy>>(
        space, control, workerCount > 1 ? &pool : nullptr, w, makePolicy());
    Task task;
    while (pool.acquire(w, task, control.timedOut)) {
      worker->runTask(std::move(task));
      pool.release();
    }
    workers[static_cast<std::size_t>(w)] = std::move(worker);
  };
  std::vector<std::thread> helpers;  // worker 0 runs on the calling thread
  for (int w = 1; w < workerCount; ++w) helpers.emplace_back(work, w);
  work(0);
  for (std::thread& helper : helpers) helper.join();
  return workers;
}

/// Fills the effort and status fields every run type shares
/// (PartitionRun, TypedPartitionRun) from the joined workers.
template <typename Run, typename Workers>
void recordEffort(Run& out, const Workers& workers, const StopControl& control,
                  Clock::time_point start) {
  for (const auto& worker : workers) {
    out.explored += worker->explored();
    out.pruned += worker->pruned();
    if (workers.size() > 1) {
      out.workerExplored.push_back(worker->explored());
      out.workerPruned.push_back(worker->pruned());
    }
  }
  out.timedOut = control.timedOut.load(std::memory_order_relaxed);
  out.optimal = !out.timedOut;
  out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace eblocks::partition::detail

#endif  // EBLOCKS_PARTITION_BNB_H_
