// Search-effort characterization: the serial (threads = 1) explored and
// pruned counts of both exact searches, pinned to the values the kernel
// produced when this table was recorded.  A completed search's answer is
// pinned elsewhere (bit-identity suites); these counts pin *how* it got
// there -- child order, where each prune fires and what it counts -- so a
// refactor of the branch-and-bound that reorders children or moves a
// prune fails here even when every answer survives.
//
// Do not re-record the tables to make a change pass: a count that moves
// is a behaviour change of the search and needs its own justification.
// On a mismatch the test prints the whole recomputed table.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "designs/library.h"
#include "partition/exhaustive.h"
#include "partition/multitype.h"
#include "partition/paredown.h"
#include "randgen/generator.h"

namespace eblocks::partition {
namespace {

struct Effort {
  std::string label;
  std::uint64_t explored = 0;
  std::uint64_t pruned = 0;
};

void expectPinned(const std::vector<Effort>& pinned,
                  const std::vector<Effort>& actual) {
  bool same = pinned.size() == actual.size();
  for (std::size_t i = 0; same && i < pinned.size(); ++i)
    same = pinned[i].label == actual[i].label &&
           pinned[i].explored == actual[i].explored &&
           pinned[i].pruned == actual[i].pruned;
  if (same) return;
  ADD_FAILURE() << "search effort moved; recomputed table follows";
  for (const Effort& e : actual)
    std::cout << "    {\"" << e.label << "\", " << e.explored << ", "
              << e.pruned << "},\n";
}

// Table-1 designs small enough that even the unseeded, unpruned serial
// search finishes in well under a second.
constexpr int kMaxTable1Inner = 10;

std::vector<Effort> plainEfforts() {
  struct Named {
    std::string name;
    Network net;
  };
  std::vector<Named> designs;
  for (const auto& entry : designs::designLibrary())
    if (entry.innerBlocks <= kMaxTable1Inner)
      designs.push_back({entry.name, entry.network});
  for (std::uint32_t seed : {3u, 7u, 11u, 19u})
    designs.push_back(
        {"random" + std::to_string(seed),
         randgen::randomNetwork({.innerBlocks = 11, .seed = seed})});

  std::vector<Effort> out;
  for (const Named& d : designs) {
    for (CountingMode mode : {CountingMode::kEdges, CountingMode::kSignals}) {
      const PartitionProblem problem(
          d.net, ProgBlockSpec{.inputs = 2, .outputs = 2, .mode = mode});
      for (bool seeded : {false, true}) {
        for (bool pruning : {false, true}) {
          ExhaustiveOptions options;
          options.threads = 1;
          options.pruningBound = pruning;
          if (seeded) options.seed = pareDown(problem).result;
          const PartitionRun run = exhaustiveSearch(problem, options);
          EXPECT_TRUE(run.optimal) << d.name;
          out.push_back({d.name + " " + toString(mode) +
                             (seeded ? " seeded" : " unseeded") +
                             (pruning ? " prune" : " no-prune"),
                         run.explored, run.pruned});
        }
      }
    }
  }
  // The stop control's cadence: a node budget aborts a serial search at
  // a machine-independent node (the first 4096-node granule past it).
  const Network big = randgen::randomNetwork({.innerBlocks = 18, .seed = 5});
  const PartitionProblem problem(big, ProgBlockSpec{});
  ExhaustiveOptions budgeted;
  budgeted.threads = 1;
  budgeted.nodeBudget = 20000;
  const PartitionRun run = exhaustiveSearch(problem, budgeted);
  EXPECT_TRUE(run.timedOut);
  out.push_back({"random5x18 budget 20000", run.explored, run.pruned});
  return out;
}

std::vector<Effort> typedEfforts() {
  // ParallelMultiType's population and two-option model.
  ProgCostModel model;
  model.preDefinedBlockCost = 1.0;
  model.options = {ProgBlockOption{"prog_2x2", 2, 2, 1.5},
                   ProgBlockOption{"prog_2x3", 2, 3, 2.0}};
  std::vector<Effort> out;
  for (std::uint32_t seed = 1; seed <= 6; ++seed) {
    const Network net =
        randgen::randomNetwork({.innerBlocks = 8, .seed = seed});
    for (bool seeded : {false, true}) {
      for (bool pruning : {false, true}) {
        MultiTypeExhaustiveOptions options;
        options.threads = 1;
        options.pruningBound = pruning;
        if (seeded) options.seed = multiTypePareDown(net, model).result;
        const TypedPartitionRun run =
            multiTypeExhaustive(net, model, options);
        EXPECT_TRUE(run.optimal) << "seed " << seed;
        out.push_back({"seed" + std::to_string(seed) +
                           (seeded ? " seeded" : " unseeded") +
                           (pruning ? " prune" : " no-prune"),
                       run.explored, run.pruned});
      }
    }
  }
  return out;
}

TEST(SearchEffort, PlainSerialCountsArePinned) {
  const std::vector<Effort> pinned = {
    {"Ignition Illuminator edges unseeded no-prune", 6, 0},
    {"Ignition Illuminator edges unseeded prune", 6, 0},
    {"Ignition Illuminator edges seeded no-prune", 6, 0},
    {"Ignition Illuminator edges seeded prune", 6, 0},
    {"Ignition Illuminator signals unseeded no-prune", 6, 0},
    {"Ignition Illuminator signals unseeded prune", 6, 0},
    {"Ignition Illuminator signals seeded no-prune", 6, 0},
    {"Ignition Illuminator signals seeded prune", 6, 0},
    {"Night Lamp Controller edges unseeded no-prune", 6, 0},
    {"Night Lamp Controller edges unseeded prune", 6, 0},
    {"Night Lamp Controller edges seeded no-prune", 6, 0},
    {"Night Lamp Controller edges seeded prune", 6, 0},
    {"Night Lamp Controller signals unseeded no-prune", 6, 0},
    {"Night Lamp Controller signals unseeded prune", 6, 0},
    {"Night Lamp Controller signals seeded no-prune", 6, 0},
    {"Night Lamp Controller signals seeded prune", 6, 0},
    {"Entry Gate Detector edges unseeded no-prune", 6, 0},
    {"Entry Gate Detector edges unseeded prune", 6, 0},
    {"Entry Gate Detector edges seeded no-prune", 6, 0},
    {"Entry Gate Detector edges seeded prune", 6, 0},
    {"Entry Gate Detector signals unseeded no-prune", 6, 0},
    {"Entry Gate Detector signals unseeded prune", 6, 0},
    {"Entry Gate Detector signals seeded no-prune", 6, 0},
    {"Entry Gate Detector signals seeded prune", 6, 0},
    {"Carpool Alert edges unseeded no-prune", 6, 0},
    {"Carpool Alert edges unseeded prune", 6, 0},
    {"Carpool Alert edges seeded no-prune", 6, 0},
    {"Carpool Alert edges seeded prune", 6, 0},
    {"Carpool Alert signals unseeded no-prune", 6, 0},
    {"Carpool Alert signals unseeded prune", 6, 0},
    {"Carpool Alert signals seeded no-prune", 6, 0},
    {"Carpool Alert signals seeded prune", 6, 0},
    {"Cafeteria Food Alert edges unseeded no-prune", 9, 0},
    {"Cafeteria Food Alert edges unseeded prune", 9, 0},
    {"Cafeteria Food Alert edges seeded no-prune", 9, 0},
    {"Cafeteria Food Alert edges seeded prune", 9, 0},
    {"Cafeteria Food Alert signals unseeded no-prune", 9, 0},
    {"Cafeteria Food Alert signals unseeded prune", 9, 0},
    {"Cafeteria Food Alert signals seeded no-prune", 9, 0},
    {"Cafeteria Food Alert signals seeded prune", 9, 0},
    {"Podium Timer 2 edges unseeded no-prune", 9, 0},
    {"Podium Timer 2 edges unseeded prune", 9, 0},
    {"Podium Timer 2 edges seeded no-prune", 9, 0},
    {"Podium Timer 2 edges seeded prune", 9, 0},
    {"Podium Timer 2 signals unseeded no-prune", 9, 0},
    {"Podium Timer 2 signals unseeded prune", 9, 0},
    {"Podium Timer 2 signals seeded no-prune", 9, 0},
    {"Podium Timer 2 signals seeded prune", 9, 0},
    {"Any Window Open Alarm edges unseeded no-prune", 17, 0},
    {"Any Window Open Alarm edges unseeded prune", 17, 2},
    {"Any Window Open Alarm edges seeded no-prune", 17, 0},
    {"Any Window Open Alarm edges seeded prune", 17, 2},
    {"Any Window Open Alarm signals unseeded no-prune", 23, 0},
    {"Any Window Open Alarm signals unseeded prune", 20, 5},
    {"Any Window Open Alarm signals seeded no-prune", 23, 0},
    {"Any Window Open Alarm signals seeded prune", 20, 5},
    {"Two Button Light edges unseeded no-prune", 9, 0},
    {"Two Button Light edges unseeded prune", 9, 0},
    {"Two Button Light edges seeded no-prune", 9, 0},
    {"Two Button Light edges seeded prune", 9, 0},
    {"Two Button Light signals unseeded no-prune", 9, 0},
    {"Two Button Light signals unseeded prune", 9, 0},
    {"Two Button Light signals seeded no-prune", 9, 0},
    {"Two Button Light signals seeded prune", 9, 0},
    {"Doorbell Extender 1 edges unseeded no-prune", 131, 0},
    {"Doorbell Extender 1 edges unseeded prune", 97, 34},
    {"Doorbell Extender 1 edges seeded no-prune", 131, 0},
    {"Doorbell Extender 1 edges seeded prune", 97, 34},
    {"Doorbell Extender 1 signals unseeded no-prune", 278, 0},
    {"Doorbell Extender 1 signals unseeded prune", 112, 49},
    {"Doorbell Extender 1 signals seeded no-prune", 278, 0},
    {"Doorbell Extender 1 signals seeded prune", 112, 49},
    {"Doorbell Extender 2 edges unseeded no-prune", 415, 0},
    {"Doorbell Extender 2 edges unseeded prune", 225, 98},
    {"Doorbell Extender 2 edges seeded no-prune", 415, 0},
    {"Doorbell Extender 2 edges seeded prune", 225, 98},
    {"Doorbell Extender 2 signals unseeded no-prune", 1155, 0},
    {"Doorbell Extender 2 signals unseeded prune", 256, 129},
    {"Doorbell Extender 2 signals seeded no-prune", 1155, 0},
    {"Doorbell Extender 2 signals seeded prune", 256, 129},
    {"Podium Timer 3 edges unseeded no-prune", 605, 0},
    {"Podium Timer 3 edges unseeded prune", 206, 66},
    {"Podium Timer 3 edges seeded no-prune", 605, 0},
    {"Podium Timer 3 edges seeded prune", 206, 58},
    {"Podium Timer 3 signals unseeded no-prune", 30, 0},
    {"Podium Timer 3 signals unseeded prune", 30, 4},
    {"Podium Timer 3 signals seeded no-prune", 30, 0},
    {"Podium Timer 3 signals seeded prune", 30, 4},
    {"Noise At Night Detector edges unseeded no-prune", 14900, 0},
    {"Noise At Night Detector edges unseeded prune", 1115, 360},
    {"Noise At Night Detector edges seeded no-prune", 14804, 0},
    {"Noise At Night Detector edges seeded prune", 1115, 360},
    {"Noise At Night Detector signals unseeded no-prune", 426283, 0},
    {"Noise At Night Detector signals unseeded prune", 1574, 819},
    {"Noise At Night Detector signals seeded no-prune", 425691, 0},
    {"Noise At Night Detector signals seeded prune", 1574, 819},
    {"random3 edges unseeded no-prune", 2590481, 0},
    {"random3 edges unseeded prune", 21070, 14127},
    {"random3 edges seeded no-prune", 2562897, 0},
    {"random3 edges seeded prune", 17054, 11343},
    {"random3 signals unseeded no-prune", 733724, 0},
    {"random3 signals unseeded prune", 2421, 1221},
    {"random3 signals seeded no-prune", 677396, 0},
    {"random3 signals seeded prune", 2421, 1205},
    {"random7 edges unseeded no-prune", 1503973, 0},
    {"random7 edges unseeded prune", 4073, 2808},
    {"random7 edges seeded no-prune", 1501925, 0},
    {"random7 edges seeded prune", 3865, 2712},
    {"random7 signals unseeded no-prune", 4544177, 0},
    {"random7 signals unseeded prune", 6659, 4345},
    {"random7 signals seeded no-prune", 4543217, 0},
    {"random7 signals seeded prune", 6451, 4233},
    {"random11 edges unseeded no-prune", 1237492, 0},
    {"random11 edges unseeded prune", 3773, 2448},
    {"random11 edges seeded no-prune", 613376, 0},
    {"random11 edges seeded prune", 3314, 1829},
    {"random11 signals unseeded no-prune", 311912, 0},
    {"random11 signals unseeded prune", 3977, 1788},
    {"random11 signals seeded no-prune", 255556, 0},
    {"random11 signals seeded prune", 3964, 1762},
    {"random19 edges unseeded no-prune", 2889513, 0},
    {"random19 edges unseeded prune", 6668, 4279},
    {"random19 edges seeded no-prune", 2889513, 0},
    {"random19 edges seeded prune", 6668, 4279},
    {"random19 signals unseeded no-prune", 1877847, 0},
    {"random19 signals unseeded prune", 2206, 1201},
    {"random19 signals seeded no-prune", 1877847, 0},
    {"random19 signals seeded prune", 2206, 1201},
    {"random5x18 budget 20000", 20494, 14809},
  };
  expectPinned(pinned, plainEfforts());
}

TEST(SearchEffort, TypedSerialCountsArePinned) {
  const std::vector<Effort> pinned = {
    {"seed1 unseeded no-prune", 23458, 0},
    {"seed1 unseeded prune", 146, 69},
    {"seed1 seeded no-prune", 23458, 0},
    {"seed1 seeded prune", 146, 69},
    {"seed2 unseeded no-prune", 19410, 0},
    {"seed2 unseeded prune", 174, 58},
    {"seed2 seeded no-prune", 10569, 0},
    {"seed2 seeded prune", 138, 40},
    {"seed3 unseeded no-prune", 7525, 0},
    {"seed3 unseeded prune", 341, 119},
    {"seed3 seeded no-prune", 6094, 0},
    {"seed3 seeded prune", 341, 120},
    {"seed4 unseeded no-prune", 14063, 0},
    {"seed4 unseeded prune", 397, 160},
    {"seed4 seeded no-prune", 6334, 0},
    {"seed4 seeded prune", 220, 76},
    {"seed5 unseeded no-prune", 11761, 0},
    {"seed5 unseeded prune", 227, 89},
    {"seed5 seeded no-prune", 11125, 0},
    {"seed5 seeded prune", 211, 79},
    {"seed6 unseeded no-prune", 19391, 0},
    {"seed6 unseeded prune", 115, 30},
    {"seed6 seeded no-prune", 4508, 0},
    {"seed6 seeded prune", 106, 28},
  };
  expectPinned(pinned, typedEfforts());
}

}  // namespace
}  // namespace eblocks::partition
