#include "partition/paredown.h"

#include <chrono>

#include "partition/validity.h"

namespace eblocks::partition {

BlockId chooseRemoval(const Network& net, const std::vector<int>& levels,
                      const std::vector<BlockId>& border,
                      const std::vector<int>& ranks) {
  BlockId best = border.front();
  int bestRank = ranks.front();
  for (std::size_t i = 1; i < border.size(); ++i) {
    const BlockId b = border[i];
    const int r = ranks[i];
    if (r != bestRank) {
      if (r < bestRank) { best = b; bestRank = r; }
      continue;
    }
    if (net.indegree(b) != net.indegree(best)) {
      if (net.indegree(b) > net.indegree(best)) best = b;
      continue;
    }
    if (net.outdegree(b) != net.outdegree(best)) {
      if (net.outdegree(b) > net.outdegree(best)) best = b;
      continue;
    }
    if (levels[b] != levels[best]) {
      if (levels[b] > levels[best]) best = b;
      continue;
    }
    // ids ascend during iteration, so `best` is already the lowest id.
  }
  return best;
}

PartitionRun pareDown(const PartitionProblem& problem,
                      const PareDownOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const Network& net = problem.network();
  const ProgBlockSpec& spec = problem.spec();

  PartitionRun run;
  run.algorithm = "paredown";

  run.explored = detail::pareDownRounds(
      net, problem.graph(), spec.mode, problem.levels(),
      options.restrictTo ? *options.restrictTo : problem.innerSet(),
      options.strictFigure4,
      [&](const PortCounter& candidate, PareDownStep& step) {
        step.io = candidate.io();
        step.fits = fits(step.io, spec);
        if (options.trace) step.candidate = candidate.members();
        // A single fitting block is dropped: replacing one pre-defined
        // block with one programmable block brings no reduction.
        if (step.fits && candidate.memberCount() > 1)
          run.result.partitions.push_back(candidate.members());
        return step.fits;
      },
      [&](const PareDownStep& step) {
        if (options.trace) options.trace(step);
      });

  run.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return run;
}

}  // namespace eblocks::partition
