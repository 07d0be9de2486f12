#include "partition/multitype.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/levels.h"
#include "partition/bnb.h"
#include "partition/exhaustive.h"
#include "partition/paredown.h"
#include "partition/validity.h"

namespace eblocks::partition {

namespace {

constexpr double kCostSlack = 1e-9;

/// A partition is irrational when its option costs more than the
/// pre-defined blocks it replaces: leaving them uncovered is cheaper.
bool irrational(const BitSet& members, int option,
                const ProgCostModel& model) {
  return model.options[static_cast<std::size_t>(option)].cost >
         model.preDefinedBlockCost * static_cast<double>(members.count()) +
             kCostSlack;
}

using detail::Bins;
using detail::Cut;

/// Immutable per-search configuration of the option-cost policy.
struct OptionContext {
  OptionContext(const Network& n, const ProgCostModel& m,
                const MultiTypeExhaustiveOptions& o)
      : model(m), options(o), graph(n) {
    minOptionCost = std::numeric_limits<double>::infinity();
    for (const ProgBlockOption& opt : m.options)
      minOptionCost = std::min(minOptionCost, opt.cost);
    if (m.options.empty()) minOptionCost = 0;
    // The admissible layer's unbinnable suffix: a block whose own
    // irreducible I/O fits no option stays a pre-defined block in every
    // valid completion.
    if (o.pruningBound)
      suffixUnbinnable = detail::suffixUnbinnable(
          n, graph.innerBlocks(), m.mode, [&](const IoCount& own) {
            return !cheapestFittingOption(own, m).has_value();
          });
  }

  const ProgCostModel& model;
  const MultiTypeExhaustiveOptions& options;
  // The CSR view every bin counter of this search walks (owned: the
  // multi-type entry points take a raw Network, not a PartitionProblem).
  CompactGraph graph;
  double minOptionCost = 0;
  std::vector<int> suffixUnbinnable;  // empty when pruningBound is off
  double initialBound = 0;
};

/// The option-cost policy: cost = the cheapest fitting option of every
/// bin + preDefinedBlockCost per uncovered block.
///
/// The shared incumbent is the best cost discovered anywhere; pruning
/// uses the *strict* comparison `lowerBound > liveCost + slack`, which
/// keeps every subtree that can still tie the optimum alive, so the
/// ordinal-ordered fold in the reduction reproduces the serial result
/// exactly.  (Costs are doubles, so unlike the block-count policy the
/// ordinal cannot be packed into the atomic; ties stay alive globally
/// and are settled per worker.)  Every child is feasible: the option
/// choice is deferred to the leaf.
class OptionPolicy {
 public:
  OptionPolicy(const OptionContext& ctx, std::atomic<double>& liveCost)
      : ctx_(ctx), liveCost_(liveCost), bestCost_(ctx.initialBound) {}

  void startTask(std::size_t) { localBest_ = ctx_.initialBound; }
  void added(std::size_t, std::size_t) {}
  void removed(std::size_t, std::size_t) {}
  bool joins(std::size_t, std::size_t) const { return true; }
  bool opens(std::size_t) const { return true; }

  Cut bound(Bins bins, std::size_t idx, int uncovered, std::uint32_t) const {
    // Baseline bound first (cheap, and cutting here keeps the admissible
    // layer off the node entirely).  The strengthened bound dominates the
    // weak one, so the set of cut nodes is identical either way; only
    // the work per node changes.
    const double weakBound =
        static_cast<double>(bins.size()) * ctx_.minOptionCost +
        ctx_.model.preDefinedBlockCost * uncovered;
    const double live = liveCost_.load(std::memory_order_relaxed);
    if (weakBound + kCostSlack >= localBest_) return Cut::kCut;
    if (weakBound > live + kCostSlack) return Cut::kCut;
    if (ctx_.options.pruningBound) {
      // The admissible layer: each bin's final option must fit its
      // irreducible crossing I/O, so the cheapest such option floors the
      // bin's cost (none fitting kills the subtree outright); remaining
      // unbinnable blocks each stay pre-defined.
      double binFloor = 0;
      for (const PortCounter& bin : bins) {
        const auto opt = cheapestFittingOption(bin.fixedIo(), ctx_.model);
        if (!opt) return Cut::kPruned;
        binFloor += ctx_.model.options[static_cast<std::size_t>(*opt)].cost;
      }
      const double lowerBound =
          binFloor + ctx_.model.preDefinedBlockCost *
                         (uncovered + ctx_.suffixUnbinnable[idx]);
      if (lowerBound + kCostSlack >= localBest_ ||
          lowerBound > live + kCostSlack)
        return Cut::kPruned;
    }
    return Cut::kOpen;
  }

  void leaf(Bins bins, int uncovered, std::uint32_t lo) {
    double cost = ctx_.model.preDefinedBlockCost * uncovered;
    // chosen_ is a pooled scratch: leaf() runs at every surviving leaf,
    // so a fresh vector here would be a per-leaf allocation.
    chosen_.clear();
    for (const PortCounter& bin : bins) {
      const auto option = cheapestFittingOption(bin.io(), ctx_.model);
      if (!option) return;  // some bin fits no block type
      chosen_.push_back(*option);
      cost += ctx_.model.options[static_cast<std::size_t>(*option)].cost;
    }
    // Within a task only strict (beyond-slack) improvements pass, so the
    // first solution of the task's best cost is kept in DFS order; across
    // tasks the worker keeps the better cost (beyond FP slack), then the
    // smaller DFS ordinal among (slack-)equal costs.
    if (cost + kCostSlack >= localBest_) return;
    localBest_ = cost;
    if (cost < bestCost_ - kCostSlack ||
        (cost <= bestCost_ + kCostSlack && lo < bestOrd_)) {
      bestCost_ = cost;
      bestOrd_ = lo;
      best_.partitions.clear();
      for (const PortCounter& bin : bins)
        best_.partitions.push_back(bin.members());
      best_.optionIndex = chosen_;
    }
    detail::lowerTo(liveCost_, cost);
  }

  double bestCost() const { return bestCost_; }
  std::uint32_t bestOrdinal() const { return bestOrd_; }
  TypedPartitioning takeBest() { return std::move(best_); }

 private:
  const OptionContext& ctx_;
  std::atomic<double>& liveCost_;
  double localBest_ = 0;
  double bestCost_;
  std::uint32_t bestOrd_ = 0;
  TypedPartitioning best_;
  std::vector<int> chosen_;  // leaf() scratch (option per bin)
};

}  // namespace

ProgCostModel ProgCostModel::paperDefault() {
  ProgCostModel m;
  m.preDefinedBlockCost = 1.0;
  m.options.push_back(ProgBlockOption{"prog_2x2", 2, 2, 1.5});
  return m;
}

int TypedPartitioning::coveredBlocks() const {
  int covered = 0;
  for (const BitSet& p : partitions) covered += static_cast<int>(p.count());
  return covered;
}

double TypedPartitioning::totalCost(int originalInnerCount,
                                    const ProgCostModel& model) const {
  double cost = model.preDefinedBlockCost *
                (originalInnerCount - coveredBlocks());
  for (int idx : optionIndex)
    cost += model.options.at(static_cast<std::size_t>(idx)).cost;
  return cost;
}

std::optional<int> cheapestFittingOption(const IoCount& io,
                                         const ProgCostModel& model) {
  std::optional<int> best;
  for (std::size_t i = 0; i < model.options.size(); ++i) {
    const ProgBlockOption& o = model.options[i];
    if (io.inputs > o.inputs || io.outputs > o.outputs) continue;
    if (!best ||
        o.cost < model.options[static_cast<std::size_t>(*best)].cost)
      best = static_cast<int>(i);
  }
  return best;
}

std::optional<int> cheapestFittingOption(const Network& net,
                                         const BitSet& members,
                                         const ProgCostModel& model) {
  return cheapestFittingOption(countIo(net, members, model.mode), model);
}

TypedPartitionRun multiTypePareDown(const Network& net,
                                    const ProgCostModel& model) {
  const auto start = std::chrono::steady_clock::now();
  TypedPartitionRun run;
  run.algorithm = "multitype-paredown";
  run.explored = detail::pareDownRounds(
      net, CompactGraph(net), model.mode, computeLevels(net), net.innerSet(),
      false,
      [&](const PortCounter& candidate, PareDownStep&) {
        const auto option = cheapestFittingOption(candidate.io(), model);
        if (!option) return false;
        const double replaceCost =
            model.options[static_cast<std::size_t>(*option)].cost;
        const double keepCost =
            model.preDefinedBlockCost *
            static_cast<double>(candidate.memberCount());
        if (replaceCost + kCostSlack < keepCost) {
          run.result.partitions.push_back(candidate.members());
          run.result.optionIndex.push_back(*option);
        }
        // Not beneficial (e.g. a lone block): retire the candidate either
        // way; paring further can only shrink the benefit.
        return true;
      },
      [](const PareDownStep&) {});

  run.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return run;
}

TypedPartitionRun multiTypeExhaustive(
    const Network& net, const ProgCostModel& model,
    const MultiTypeExhaustiveOptions& options) {
  TypedPartitionRun out;
  out.algorithm = "multitype-exhaustive";
  const auto start = detail::Clock::now();

  OptionContext ctx(net, model, options);
  const int n = static_cast<int>(ctx.graph.innerCount());

  // Initial incumbent: "replace nothing", improved by a feasible seed.
  double bestCost = model.preDefinedBlockCost * n;
  TypedPartitioning best;
  if (options.seed &&
      verifyTypedPartitioning(net, model, *options.seed).empty()) {
    const double c = options.seed->totalCost(n, model);
    if (c < bestCost) {
      bestCost = c;
      best = *options.seed;
    }
  }
  ctx.initialBound = bestCost;

  std::atomic<double> liveCost{bestCost};
  const detail::SearchSpace space(ctx.graph, model.mode, options.pruningBound);
  detail::StopControl control(options);
  auto workers = detail::runSearch<OptionPolicy>(
      space, control, options, [&] { return OptionPolicy(ctx, liveCost); });

  // Deterministic reduction: replay the serial acceptance rule (strict
  // beyond-slack improvement only) over the worker bests in ascending
  // DFS-ordinal order, starting from the initial incumbent at ordinal 0.
  // Scanning in ordinal order -- not worker order -- matters because the
  // slack comparison is not transitive: a fixed scan order makes the
  // fold independent of which worker happened to hold which candidate.
  detail::recordEffort(out, workers, control, start);  // in worker order
  std::sort(workers.begin(), workers.end(), [](const auto& a, const auto& b) {
    return a->policy().bestOrdinal() < b->policy().bestOrdinal();
  });
  for (const auto& worker : workers) {
    if (worker->policy().bestCost() + kCostSlack < bestCost) {
      bestCost = worker->policy().bestCost();
      best = worker->policy().takeBest();
    }
  }
  out.result = std::move(best);
  if (out.timedOut) {
    // A completed search never returns an irrational bin (uncovering its
    // blocks is strictly cheaper), but a stopped one can: it may halt
    // right after a leaf that kept one and before the cheaper sibling
    // that uncovers it.  Uncovering it here only lowers the cost.
    TypedPartitioning rational;
    for (std::size_t i = 0; i < out.result.partitions.size(); ++i) {
      const int option = out.result.optionIndex[i];
      if (irrational(out.result.partitions[i], option, model)) continue;
      rational.partitions.push_back(std::move(out.result.partitions[i]));
      rational.optionIndex.push_back(option);
    }
    out.result = std::move(rational);
  }
  return out;
}

std::vector<std::string> verifyTypedPartitioning(
    const Network& net, const ProgCostModel& model,
    const TypedPartitioning& typed) {
  std::vector<std::string> problems;
  if (typed.partitions.size() != typed.optionIndex.size()) {
    problems.push_back("partition/option count mismatch");
    return problems;
  }
  BitSet seen = net.emptySet();
  for (std::size_t i = 0; i < typed.partitions.size(); ++i) {
    const BitSet& p = typed.partitions[i];
    const std::string label = "partition #" + std::to_string(i);
    const int idx = typed.optionIndex[i];
    if (idx < 0 || idx >= static_cast<int>(model.options.size())) {
      problems.push_back(label + ": option index out of range");
      continue;
    }
    const ProgBlockOption& o = model.options[static_cast<std::size_t>(idx)];
    const IoCount io = countIo(net, p, model.mode);
    if (io.inputs > o.inputs || io.outputs > o.outputs)
      problems.push_back(label + ": does not fit option " + o.name);
    if (p.none()) problems.push_back(label + ": empty");
    p.forEach([&](std::size_t bi) {
      const BlockId b = static_cast<BlockId>(bi);
      if (!net.isInner(b))
        problems.push_back(label + ": member '" + net.block(b).name +
                           "' is not inner");
      if (seen.test(bi))
        problems.push_back(label + ": member '" + net.block(b).name +
                           "' in two partitions");
      seen.set(bi);
    });
    // Cost sanity: a rational result never uses a partition that costs
    // more than the blocks it replaces.
    if (irrational(p, idx, model))
      problems.push_back(label + ": option " + o.name +
                         " costs more than the blocks it replaces");
  }
  return problems;
}

}  // namespace eblocks::partition
